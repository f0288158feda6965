"""rogetkb: a Roget-structured thesaurus as an electronic lexical knowledge
base. Parser, complete index, edge-counting semantic distance, and
synset-driven relation labelling."""

from .aligner import (
    ClassCoverage,
    CoverageRow,
    Evidence,
    HeadCoverage,
    LabelledGroup,
    LabelledParagraph,
    class_coverage,
    common_strings,
    head_coverage,
    label_paragraph,
    pos_distribution,
)
from .bundle import BuildMeta, BundleError, KBBundle, load_bundle, structured_document, write_bundle
from .index import LexicalIndex, build_index
from .lexnet import (
    DEFAULT_RELATIONS,
    LABEL_PRECEDENCE,
    LexiconError,
    MiniNet,
    RelationType,
    SenseNeighbourhood,
    Synset,
    SynsetResource,
    build_mini_net,
    lexicon_lemmas,
    load_neighbourhood,
    load_resource,
)
from .metrics import PathResult, sg_distance, word_distance
from .model import (
    Address,
    AddressError,
    CountRecord,
    CrossReference,
    Entry,
    Head,
    HeadTally,
    Paragraph,
    PartOfSpeech,
    RogetClass,
    Section,
    SemicolonGroup,
    ThesaurusKB,
)
from .parser import ParseDiagnostic, ParseResult, parse_cross_ref, parse_source, serialize_kb
from .text import normalize, strip_gloss

__version__ = "0.1.0"
