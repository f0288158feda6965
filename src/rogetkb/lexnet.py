"""WordNet-style synset resource: interchange format loader and mini-nets.

Interchange format, one record per line:

    SYN <id> <pos> <lemma;lemma;...> [| gloss]
    REL <type> <srcId> <dstId>
    // comment

Hyponym edges are stored as their hypernym inverses, never twice. A
mini-net is the one-hop neighbourhood of a lemma: its seed synsets plus
every synset one link away per relation its part of speech follows
(``DEFAULT_RELATIONS``), where "coordinate" means each direct hypernym
together with all of that hypernym's direct hyponyms (seed and hypernym
included).

A mini-net reads a few synsets, so :func:`load_neighbourhood` checks the
whole document but keeps only what one lemma's mini-net reads.

Every reader reads a document once, one chunk at a time (see
:func:`_records`). Each chunk is proven to be in a strict form by a few
regular-expression passes, up to the first chunk that the proof refuses;
from there on every chunk is checked record by record, which is what
gives every :class:`LexiconError`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from operator import itemgetter
from typing import Iterator, Optional

from .model import POS_BY_TAG, PartOfSpeech, _collector_paused
from .text import normalize

__all__ = [
    "RelationType",
    "LABEL_PRECEDENCE",
    "DEFAULT_RELATIONS",
    "Synset",
    "SynsetResource",
    "SenseNeighbourhood",
    "MiniNet",
    "LexiconError",
    "load_resource",
    "lexicon_lemmas",
    "load_neighbourhood",
    "build_mini_net",
]


class RelationType(enum.Enum):
    """Typed synset-to-synset links. Declaration order is the labelling
    precedence (synonym strongest)."""

    SYNONYM = "synonym"
    ANTONYM = "antonym"
    HYPERNYM = "hypernym"
    HYPONYM = "hyponym"
    MERONYM = "meronym"
    HOLONYM = "holonym"
    COORDINATE = "coordinate"
    ENTAILMENT = "entailment"
    CAUSE = "cause"
    SIMILAR = "similar"
    ATTRIBUTE = "attribute"
    DERIVATION = "derivation"
    PERTAINYM = "pertainym"
    ALSO_SEE = "also-see"
    PARTICIPLE = "participle"

    @classmethod
    def parse(cls, token: str) -> "RelationType":
        rel = _RELATION_BY_NAME.get(token.lower())
        if rel is None:
            raise ValueError(f"unknown relation type {token!r}")
        return rel


# Every reader of a relation name goes through this table; names are lower case.
_RELATION_BY_NAME = {rel.value: rel for rel in RelationType}
LABEL_PRECEDENCE: tuple[RelationType, ...] = tuple(RelationType)

# Relations followed by default when building a mini-net, per part of speech.
DEFAULT_RELATIONS: dict[PartOfSpeech, frozenset[RelationType]] = {
    PartOfSpeech.NOUN: frozenset({
        RelationType.SYNONYM, RelationType.HYPERNYM, RelationType.HYPONYM,
        RelationType.COORDINATE, RelationType.MERONYM, RelationType.HOLONYM,
        RelationType.ANTONYM,
    }),
    PartOfSpeech.VERB: frozenset({
        RelationType.SYNONYM, RelationType.HYPERNYM, RelationType.HYPONYM,
        RelationType.ENTAILMENT, RelationType.CAUSE, RelationType.ANTONYM,
    }),
    PartOfSpeech.ADJECTIVE: frozenset({
        RelationType.SYNONYM, RelationType.SIMILAR, RelationType.ANTONYM,
        RelationType.ATTRIBUTE,
    }),
    PartOfSpeech.ADVERB: frozenset({RelationType.SYNONYM, RelationType.ANTONYM}),
    PartOfSpeech.INTERJECTION: frozenset({RelationType.SYNONYM, RelationType.ANTONYM}),
}


class LexiconError(ValueError):
    """Malformed interchange document. Renders as ``<line>:error: <message>``."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"{line}:error: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True, slots=True)
class Synset:
    """One sense: a set of synonymous lemmas. Lemmas are normalized and kept
    in file order for deterministic rendering."""

    id: str
    pos: PartOfSpeech
    lemmas: tuple[str, ...]
    gloss: Optional[str] = None


@dataclass(frozen=True)
class SynsetResource:
    """The loaded graph; immutable. Synset and edge order follow the file."""

    synsets: dict[str, Synset]
    edges: tuple[tuple[str, RelationType, str], ...]

    @cached_property
    @_collector_paused()
    def lemma_index(self) -> dict[str, tuple[str, ...]]:
        index: dict[str, list[str]] = {}
        for synset in self.synsets.values():
            for lemma in synset.lemmas:
                index.setdefault(lemma, []).append(synset.id)
        return {lemma: tuple(ids) for lemma, ids in index.items()}

    @cached_property
    @_collector_paused()
    def _neighbour_ids(self) -> dict[tuple[str, RelationType], list[str]]:
        """Neighbour ids per ``(synset, relation)``. Each hypernym edge is
        also filed in reverse as a hyponym edge. The lists are kept as built:
        copying them into tuples would hold the table twice at its peak."""
        table: dict[tuple[str, RelationType], list[str]] = {}
        for src, rel, dst in self.edges:
            table.setdefault((src, rel), []).append(dst)
            if rel is RelationType.HYPERNYM:
                table.setdefault((dst, RelationType.HYPONYM), []).append(src)
        return table

    def neighbours(self, synset_id: str, relation: RelationType) -> tuple[Synset, ...]:
        """Synsets one ``relation`` edge away, in file order."""
        ids = self._neighbour_ids.get((synset_id, relation), ())
        return tuple(self.synsets[i] for i in ids)

    def synsets_for(self, lemma: str, pos: PartOfSpeech) -> tuple[Synset, ...]:
        found = (self.synsets[i] for i in self.lemma_index.get(normalize(lemma), ()))
        return tuple(s for s in found if s.pos is pos)

    @cached_property
    def _all_lemmas(self) -> frozenset[str]:
        out: set[str] = set()
        for synset in self.synsets.values():
            out.update(synset.lemmas)
        return frozenset(out)

    def all_lemmas(self) -> frozenset[str]:
        """Every lemma of every synset, built once per resource."""
        return self._all_lemmas


def _chunks(text: str) -> Iterator[str]:
    """``text`` in chunks of about 64 KiB, each ending just past a line
    feed (the last may end without one): a line feed ends a line whatever
    comes before it, so each chunk holds whole lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one chunk at a time, so that the list of
    every line never exists at once."""
    for chunk in _chunks(text):
        yield from chunk.splitlines()


# A chunk in the strict form is proven by a few regular-expression passes
# instead of being checked record by record. Each line ends in "\n" and is a
# "//" comment or a record whose fields are split by single spaces:
#     SYN <id> <upper-case tag> <lemma>(;<lemma>)*[ |<gloss>]
#     REL <lower-case relation name> <src> <dst>
# where a lemma is a single-spaced run free of ";" and "|", and the lemma
# fields equal their own lower case, so every lemma is already normalized.
# Each pattern matches one whole line from the line feed before it, and no
# field holds another line break (every one is whitespace, and the gloss and
# comment classes leave them out). So the matches of a chunk add up to its
# line feeds exactly when every line is strict.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_STRICT_ID = r"[^\s|]+"
_STRICT_SYN = re.compile(
    rf"\nSYN ({_STRICT_ID}) ({'|'.join(POS_BY_TAG)}) ([^\s;|]+(?:[ ;][^\s;|]+)*)"
    rf"(?: \|([^\n{_OTHER_BREAKS}]*))?(?=\n)"
)
_STRICT_SYN_ID = re.compile(rf"\nSYN ({_STRICT_ID}) ")
_STRICT_REL = re.compile(
    rf"\nREL ({'|'.join(map(re.escape, _RELATION_BY_NAME))}) ({_STRICT_ID}) ({_STRICT_ID})(?=\n)"
)
_STRICT_COMMENT = re.compile(rf"\n//[^\n{_OTHER_BREAKS}]*(?=\n)")
_FIRST, _SECOND, _THIRD = (itemgetter(i) for i in range(3))

# A chunk read: SYN records ``(id, upper-case tag, normalized lemma field with
# no blank lemma, raw gloss)``, REL records as written ``(lower-case relation
# name, src, dst)``, the lemma fields joined by ";", and its last line's number.
_Read = tuple[list[tuple[str, str, str, str]], list[tuple[str, str, str]], str, int]


def _proof(chunk: str, line_no: int, ids: set[str]) -> Optional[_Read]:
    """A chunk in the strict form, read from the proof's matches, or None
    when it is not in that form or would declare an id twice. Only a proven
    chunk adds its ids to ``ids``. The proof is sufficient, not necessary:
    a refused chunk may be well formed."""
    lines = "\n" + chunk
    syns, rels = _STRICT_SYN.findall(lines), _STRICT_REL.findall(lines)
    fields = ";".join(map(_THIRD, syns))
    breaks = chunk.count("\n")
    if (not chunk.endswith("\n") or fields != fields.lower()
            or len(syns) + len(rels) + len(_STRICT_COMMENT.findall(lines)) != breaks
            or not ids.isdisjoint(map(_FIRST, syns))):
        return None
    declared = len(ids)
    ids.update(map(_FIRST, syns))
    if len(ids) - declared != len(syns):  # the chunk itself declares an id twice
        ids.difference_update(map(_FIRST, syns))
        return None
    return syns, rels, fields, line_no + breaks


def _checked(chunk: str, line_no: int, ids: set[str]) -> _Read:
    """A chunk whose first line follows line ``line_no``, checked record by
    record, each id added to ``ids``. Raises :class:`LexiconError` on the
    first malformed record."""
    syns: list[tuple[str, str, str, str]] = []
    rels: list[tuple[str, str, str]] = []
    for line_no, raw in enumerate(chunk.splitlines(), start=line_no + 1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "SYN":
            body, _, gloss = rest.partition("|")
            parts = body.split(None, 2)
            if len(parts) < 3:
                raise LexiconError(line_no, f"malformed SYN record {line!r}")
            syn_id, pos_tok, lemma_field = parts
            if syn_id in ids:
                raise LexiconError(line_no, f"duplicate synset id {syn_id}")
            tag = pos_tok.upper()
            if tag not in POS_BY_TAG:
                raise LexiconError(line_no, f"unknown part of speech {pos_tok!r}")
            field = (";".join(filter(None, map(normalize, lemma_field.split(";"))))
                     if ";" in lemma_field else normalize(lemma_field))
            if not field:
                raise LexiconError(line_no, f"synset {syn_id} has no lemmas")
            ids.add(syn_id)
            syns.append((syn_id, tag, field, gloss))
        elif kind == "REL":
            parts = rest.split()
            if len(parts) != 3:
                raise LexiconError(line_no, f"malformed REL record {line!r}")
            rel_tok, src, dst = parts
            name = rel_tok.lower()
            if name not in _RELATION_BY_NAME:
                raise LexiconError(line_no, f"unknown relation type {rel_tok!r}")
            rels.append((name, src, dst))
        else:
            raise LexiconError(line_no, f"unknown record kind {kind!r}")
    return syns, rels, ";".join(map(_THIRD, syns)), line_no


def _records(text: str) -> Iterator[tuple[bool, list[tuple[str, str, str, str]],
                                          list[tuple[str, str, str]], str]]:
    """Each chunk of an interchange document, in file order, read once:
    whether it was proven, then its records and lemma fields (``_Read``).
    Chunks are proven up to the first that the proof refuses; from that one
    on, every chunk is checked. Raises :class:`LexiconError` on the first
    malformed record; an edge may name a synset declared further on, so an
    unknown endpoint is reported only after every record is read."""
    ids: set[str] = set()
    # edge endpoints not declared before their chunk ended
    pending: set[str] = set()
    line_no, proven = 0, True
    for chunk in _chunks(text):
        read = _proof(chunk, line_no, ids) if proven else None
        if read is None:
            proven = False
            read = _checked(chunk, line_no, ids)
        syns, rels, fields, line_no = read
        pending |= {*map(_SECOND, rels), *map(_THIRD, rels)} - ids
        yield proven, syns, rels, fields
    if pending <= ids:
        return
    # one more scan, on this error path only, finds the first edge at fault
    for line_no, raw in enumerate(_lines(text), start=1):
        kind, _, rest = raw.strip().partition(" ")
        if kind == "REL":
            rel_tok, src, dst = rest.split()
            # a hyponym edge names its endpoints as its stored inverse does
            for endpoint in _stored(src, _RELATION_BY_NAME[rel_tok.lower()], dst)[::2]:
                if endpoint not in ids:
                    raise LexiconError(line_no, f"unknown synset {endpoint}")


def _synset(syn_id: str, tag: str, lemma_field: str, gloss: str) -> Synset:
    """The synset of a SYN record as :func:`_records` gives it: its lemmas
    in file order, repeats dropped."""
    lemmas = tuple(dict.fromkeys(lemma_field.split(";"))) if ";" in lemma_field else (lemma_field,)
    return Synset(syn_id, POS_BY_TAG[tag], lemmas, gloss.strip() or None)


def _as_written(rels: list[tuple[str, str, str]]) -> Iterator[tuple[str, RelationType, str]]:
    """``(src, relation, dst)`` of each REL record, a hyponym edge as written."""
    return zip(map(_SECOND, rels), map(_RELATION_BY_NAME.__getitem__, map(_FIRST, rels)),
               map(_THIRD, rels))


def _stored(src: str, rel: RelationType, dst: str) -> tuple[str, RelationType, str]:
    """The stored form of an edge: a hyponym edge as its inverse hypernym."""
    return (dst, RelationType.HYPERNYM, src) if rel is RelationType.HYPONYM else (src, rel, dst)


@_collector_paused()
def load_resource(text: str) -> SynsetResource:
    """Parse an interchange document into the synset graph. Raises
    :class:`LexiconError` on the first malformed record."""
    synsets: dict[str, Synset] = {}
    edges: list[tuple[str, RelationType, str]] = []
    for _, syns, rels, _ in _records(text):
        for record in syns:
            synsets[record[0]] = _synset(*record)
        edges += starmap(_stored, _as_written(rels))
    return SynsetResource(synsets=synsets, edges=tuple(edges))


@_collector_paused()
def lexicon_lemmas(text: str) -> frozenset[str]:
    """Every normalized lemma of an interchange document, checked as
    :func:`load_resource` checks it (the same :class:`LexiconError`) but
    without building the synset graph: ``load_resource(text).all_lemmas()``."""
    lemmas: set[str] = set()
    for _, _, _, fields in _records(text):
        lemmas.update(fields.split(";"))
    lemmas.discard("")  # the fields of a chunk that declares no synset
    return frozenset(lemmas)


@_collector_paused()
def load_neighbourhood(text: str, lemma: str, pos: PartOfSpeech) -> SynsetResource:
    """The part of an interchange document that ``build_mini_net(res, lemma,
    pos)`` reads, checked as :func:`load_resource` checks the whole (the
    same :class:`LexiconError`): the seed synsets, every edge of theirs
    that a relation of ``DEFAULT_RELATIONS[pos]`` follows, and, when
    coordinates are followed, every hyponym edge of each seed hypernym;
    then the synsets those edges reach. Synsets and edges keep their file
    order, so the mini-net is the one the whole graph gives. Other queries
    on the result see only this part."""
    lemma = normalize(lemma)
    wanted = DEFAULT_RELATIONS[pos]
    # The edges, as written, whose stored relation ``wanted`` follows (every
    # part of speech that follows hyponyms or coordinates follows hypernyms
    # too). An edge's endpoints may be declared later, so all are kept to the end.
    names = {name for name, rel in _RELATION_BY_NAME.items() if _stored("", rel, "")[1] in wanted}
    records: list[tuple[str, RelationType, str]] = []
    seeds: set[str] = set()
    proven = 0  # the chunks read by proof, which come first
    for strict, syns, rels, fields in _records(text):
        proven += strict
        # a lemma is never blank, and fields that do not hold the lemma hold no seed
        if lemma and lemma in fields:
            seeds.update(syn_id for syn_id, tag, lemma_field, _ in syns
                         if tag == pos.value and lemma in lemma_field.split(";"))
        records += _as_written([record for record in rels if record[0] in names])
    if not seeds:  # no synset of ``pos`` holds the lemma: the checks were the whole read
        return SynsetResource(synsets={}, edges=())
    # Every edge kept below has an endpoint among the seeds or the synsets
    # one edge away from them, so only those edges are stored, in file order.
    near = seeds.union(*((src, dst) for src, _, dst in records if src in seeds or dst in seeds))
    candidates = [_stored(*edge) for edge in records if edge[0] in near or edge[2] in near]
    del records
    # a hyponym edge of a seed, or of a seed hypernym when coordinates are followed
    hyponyms_of = set(seeds)
    if RelationType.COORDINATE in wanted:
        hyponyms_of.update(
            dst for src, rel, dst in candidates if rel is RelationType.HYPERNYM and src in seeds
        )
    edges = tuple(
        (src, rel, dst) for src, rel, dst in candidates
        if src in seeds or (rel is RelationType.HYPERNYM and dst in hyponyms_of)
    )
    reached = seeds.union(*((src, dst) for src, _, dst in edges))
    return SynsetResource(synsets=_synsets_of(text, reached, proven), edges=edges)


def _synsets_of(text: str, ids: set[str], proven: int) -> dict[str, Synset]:
    """The synsets of ``ids``, in file order, read from a document that
    :func:`_records` has read whole, its first ``proven`` chunks by proof:
    every record is known to be well formed."""
    found: dict[str, Synset] = {}
    for i, chunk in enumerate(_chunks(text)):
        if i < proven:
            lines = "\n" + chunk
            # most proven chunks declare none of ``ids``, and their ids alone are cheap to find
            if ids.isdisjoint(_STRICT_SYN_ID.findall(lines)):
                continue
            syns = _STRICT_SYN.findall(lines)
        else:  # only the lines that declare one of ``ids`` are read again
            syns = _checked("\n".join(line for line in chunk.splitlines() if line.lstrip()
                                      .startswith("SYN ") and line.split(None, 2)[1] in ids),
                            0, set())[0]
        for record in syns:
            if record[0] in ids:
                found[record[0]] = _synset(*record)
    return found


@dataclass(frozen=True)
class SenseNeighbourhood:
    """One seed synset of the mini-net lemma plus everything one hop away.
    ``reached`` holds only relations that reached at least one synset, in
    precedence order."""

    seed: Synset
    reached: tuple[tuple[RelationType, tuple[Synset, ...]], ...]


@dataclass(frozen=True)
class MiniNet:
    lemma: str
    pos: PartOfSpeech
    senses: tuple[SenseNeighbourhood, ...]


def _coordinates(res: SynsetResource, seed: Synset) -> tuple[Synset, ...]:
    """Each direct hypernym plus all of that hypernym's direct hyponyms;
    the seed itself and the hypernym are both members. Explicit coordinate
    edges, if any, are appended. A synset reached more than once is kept
    once, at its first position."""
    reached: list[Synset] = []
    for hypernym in res.neighbours(seed.id, RelationType.HYPERNYM):
        reached += (hypernym, *res.neighbours(hypernym.id, RelationType.HYPONYM))
    reached += res.neighbours(seed.id, RelationType.COORDINATE)
    return tuple({synset.id: synset for synset in reached}.values())


def build_mini_net(res: SynsetResource, lemma: str, pos: PartOfSpeech) -> MiniNet:
    """One-hop neighbourhood of ``lemma`` at ``pos`` over the relations
    ``DEFAULT_RELATIONS[pos]``. An unknown lemma gives a net with zero
    senses, not an error."""
    lemma = normalize(lemma)
    wanted = sorted(DEFAULT_RELATIONS[pos], key=LABEL_PRECEDENCE.index)
    senses = []
    for seed in res.synsets_for(lemma, pos):
        reached = []
        for relation in wanted:
            if relation is RelationType.COORDINATE:
                group = _coordinates(res, seed)
            else:
                group = res.neighbours(seed.id, relation)
            if group:
                reached.append((relation, group))
        senses.append(SenseNeighbourhood(seed=seed, reached=tuple(reached)))
    return MiniNet(lemma=lemma, pos=pos, senses=tuple(senses))
