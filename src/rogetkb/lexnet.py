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

Every reader first tries to prove a document in a strict form (see
:func:`_strict_chunks`), which it then reads by a few regular-expression
passes per chunk. Any other document is read record by record, which is
also what gives every :class:`LexiconError`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from operator import itemgetter
from typing import Callable, Iterator, Optional

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


def _synset(syn_id: str, pos: PartOfSpeech, lemma_field: str, gloss: str) -> Synset:
    """The synset of one SYN record's fields. Its lemmas are normalized,
    with blanks and repeats dropped, in file order."""
    lemmas = tuple(dict.fromkeys(filter(None, map(normalize, lemma_field.split(";")))))
    return Synset(syn_id, pos, lemmas, gloss.strip() or None)


def _read_records(
    text: str,
    add_synset: Callable[[str, PartOfSpeech, str, str], object],
    add_edge: Callable[[str, RelationType, str], object],
) -> None:
    """Check every record of an interchange document in file order. Each
    SYN record's id, part of speech, raw lemma field and raw gloss go to
    ``add_synset``; each REL record goes to ``add_edge``, a hyponym as its
    inverse hypernym. Raises :class:`LexiconError` on the first malformed
    record. An edge may name a synset declared further on, so an unknown
    endpoint is reported only after every record is read."""
    ids: set[str] = set()
    # edges read before one of their endpoints was declared, in file order
    pending: list[tuple[int, str, str]] = []

    for line_no, raw in enumerate(_lines(text), start=1):
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
            pos = POS_BY_TAG.get(pos_tok.upper())
            if pos is None:
                raise LexiconError(line_no, f"unknown part of speech {pos_tok!r}")
            # a lemma normalizes to "" exactly when it is blank
            if not lemma_field.replace(";", " ").strip():
                raise LexiconError(line_no, f"synset {syn_id} has no lemmas")
            ids.add(syn_id)
            add_synset(syn_id, pos, lemma_field, gloss)
        elif kind == "REL":
            parts = rest.split()
            if len(parts) != 3:
                raise LexiconError(line_no, f"malformed REL record {line!r}")
            rel_tok, src, dst = parts
            rel = _RELATION_BY_NAME.get(rel_tok.lower())
            if rel is None:
                raise LexiconError(line_no, f"unknown relation type {rel_tok!r}")
            if rel is RelationType.HYPONYM:
                # canonical storage: the inverse hypernym edge
                rel, src, dst = RelationType.HYPERNYM, dst, src
            if src not in ids or dst not in ids:
                pending.append((line_no, src, dst))
            add_edge(src, rel, dst)
        else:
            raise LexiconError(line_no, f"unknown record kind {kind!r}")

    for line_no, src, dst in pending:
        for endpoint in (src, dst):
            if endpoint not in ids:
                raise LexiconError(line_no, f"unknown synset {endpoint}")


# A lexicon in the strict form is proven by a few regular-expression passes
# per chunk instead of being checked record by record. Each line ends in "\n"
# and is a "//" comment or a record whose fields are split by single spaces:
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


class _NotStrict(Exception):
    """A lexicon outside the strict form, which only :func:`_read_records` reads."""


def _strict_chunks(text: str) -> Iterator[tuple[list[tuple[str, str, str, str]],
                                                list[tuple[str, str, str]], str]]:
    """Prove ``text`` in the strict form, one chunk at a time. Each chunk
    gives its SYN records as ``(id, tag, lemma field, gloss)``, its REL
    records as ``(relation name, src, dst)`` and its lemma fields joined by
    ";". Raises :class:`_NotStrict` as soon as the text is shown not to be
    strict, the last chunk included: a synset id declared twice or an edge
    endpoint never declared is only known at the end, so a reader keeps
    nothing it took from the chunks until the iteration ends. The proof is
    sufficient, not necessary: a refused text may be well formed."""
    if not text.endswith("\n"):
        raise _NotStrict
    ids: set[str] = set()
    # edge endpoints not declared before their chunk ended
    pending: set[str] = set()
    for chunk in _chunks(text):
        lines = "\n" + chunk
        syns, rels = _STRICT_SYN.findall(lines), _STRICT_REL.findall(lines)
        fields = ";".join(map(_THIRD, syns))
        declared = len(ids)
        ids.update(map(_FIRST, syns))
        if (len(syns) + len(rels) + len(_STRICT_COMMENT.findall(lines)) != chunk.count("\n")
                or len(ids) - declared != len(syns) or fields != fields.lower()):
            raise _NotStrict
        endpoints = set(map(_SECOND, rels))
        endpoints.update(map(_THIRD, rels))
        pending.update(endpoints - ids)
        yield syns, rels, fields
    if not pending <= ids:
        raise _NotStrict


def _strict_synset(syn_id: str, tag: str, lemma_field: str, gloss: str) -> Synset:
    """:func:`_synset` of a strict SYN record, whose lemmas are normalized."""
    lemmas = tuple(dict.fromkeys(lemma_field.split(";"))) if ";" in lemma_field else (lemma_field,)
    return Synset(syn_id, POS_BY_TAG[tag], lemmas, gloss.strip() or None)


def _as_written(rels: list[tuple[str, str, str]]) -> Iterator[tuple[str, RelationType, str]]:
    """``(src, relation, dst)`` of each strict REL record, a hyponym edge as written."""
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
    try:
        for syns, rels, _ in _strict_chunks(text):
            for record in syns:
                synsets[record[0]] = _strict_synset(*record)
            edges += starmap(_stored, _as_written(rels))
    except _NotStrict:
        synsets.clear()
        edges.clear()

        def add_synset(syn_id: str, pos: PartOfSpeech, lemma_field: str, gloss: str) -> None:
            synsets[syn_id] = _synset(syn_id, pos, lemma_field, gloss)

        _read_records(text, add_synset, lambda src, rel, dst: edges.append((src, rel, dst)))
    return SynsetResource(synsets=synsets, edges=tuple(edges))


@_collector_paused()
def lexicon_lemmas(text: str) -> frozenset[str]:
    """Every normalized lemma of an interchange document, checked as
    :func:`load_resource` checks it (the same :class:`LexiconError`) but
    without building the synset graph: ``load_resource(text).all_lemmas()``."""
    lemmas: set[str] = set()
    try:
        for _, _, fields in _strict_chunks(text):
            lemmas.update(fields.split(";"))
    except _NotStrict:
        lemmas.clear()

        def add_synset(syn_id: str, pos: PartOfSpeech, lemma_field: str, gloss: str) -> None:
            lemmas.update(map(normalize, lemma_field.split(";")))

        _read_records(text, add_synset, lambda src, rel, dst: None)
    lemmas.discard("")
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
    seeds: set[str] = set()
    # An edge's endpoints may be declared later, so every candidate is kept
    # to the end. A hyponym edge is stored as a hypernym edge, and
    # coordinates are read through hypernyms; every part of speech that
    # follows either follows hypernyms too.
    candidates: list[tuple[str, RelationType, str]] = []
    # the proof's edges of a relation that ``wanted`` follows, as written
    records: list[tuple[str, RelationType, str]] = []
    proven = True
    try:
        names = {name for name, rel in _RELATION_BY_NAME.items()
                 if _stored("", rel, "")[1] in wanted}
        for syns, rels, fields in _strict_chunks(text):
            # a strict lemma is never blank, and fields that do not hold the lemma hold no seed
            if lemma and lemma in fields:
                seeds.update(syn_id for syn_id, tag, lemma_field, _ in syns
                             if tag == pos.value and lemma in lemma_field.split(";"))
            records += _as_written([record for record in rels if record[0] in names])
    except _NotStrict:
        proven = False
        seeds.clear()
        records.clear()

        def add_synset(syn_id: str, syn_pos: PartOfSpeech, lemma_field: str, gloss: str) -> None:
            # a blank lemma normalizes to "" and names no synset
            if syn_pos is pos and lemma and lemma in map(normalize, lemma_field.split(";")):
                seeds.add(syn_id)

        def add_edge(src: str, rel: RelationType, dst: str) -> None:
            if rel in wanted:
                candidates.append((src, rel, dst))

        _read_records(text, add_synset, add_edge)
    else:
        # Every edge kept below has an endpoint among the seeds or the
        # synsets one edge away from them, so only those edges are stored,
        # in file order.
        near = seeds.union(*((src, dst) for src, _, dst in records
                             if src in seeds or dst in seeds))
        candidates = [_stored(*edge) for edge in records if edge[0] in near or edge[2] in near]
    del records
    if not seeds:  # no synset of ``pos`` holds the lemma: the checks were the whole read
        return SynsetResource(synsets={}, edges=())
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


def _synsets_of(text: str, ids: set[str], proven: bool) -> dict[str, Synset]:
    """The synsets of ``ids``, in file order, read from a document that has
    passed :func:`_read_records`, or been ``proven`` strict: every record is
    known to be well formed."""
    found: dict[str, Synset] = {}
    if proven:
        for chunk in _chunks(text):
            lines = "\n" + chunk
            # most chunks declare none of ``ids``, and their ids alone are cheap to find
            if not ids.isdisjoint(_STRICT_SYN_ID.findall(lines)):
                for record in _STRICT_SYN.findall(lines):
                    if record[0] in ids:
                        found[record[0]] = _strict_synset(*record)
        return found
    for raw in _lines(text):
        kind, _, rest = raw.strip().partition(" ")
        if kind == "SYN":
            body, _, gloss = rest.partition("|")
            syn_id, pos_tok, lemma_field = body.split(None, 2)
            if syn_id in ids:
                found[syn_id] = _synset(syn_id, POS_BY_TAG[pos_tok.upper()], lemma_field, gloss)
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
