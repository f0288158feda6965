"""Cross-resource alignment: overlap statistics against a synset resource
and automatic relation labelling of paragraphs via mini-net matching.

Labelling matches each semicolon group of a paragraph against the one-hop
mini-net of the paragraph's keyword: a group earns every relation whose
reached synsets share at least one normalized string with the group's
members (cross-reference keywords count by default). The highest-precedence
relation wins; a group with no match is left unlabelled. The keyword itself
is the source of every candidate relation, so it is not matchable inside
its own group; if that group ends up with no other evidence it falls back
to a synonym label against the seed synsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional

from .lexnet import (
    LABEL_PRECEDENCE,
    RelationType,
    Synset,
    SynsetResource,
    build_mini_net,
)
from .model import (
    Address,
    AddressError,
    HeadTally,
    Paragraph,
    PartOfSpeech,
    SemicolonGroup,
    ThesaurusKB,
)
from .text import normalize, strip_gloss as _strip_head_gloss

__all__ = [
    "CoverageRow",
    "ClassCoverage",
    "HeadCoverage",
    "Evidence",
    "LabelledGroup",
    "LabelledParagraph",
    "common_strings",
    "class_coverage",
    "head_coverage",
    "pos_distribution",
    "label_paragraph",
]


# -- coverage statistics ------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    """Counts and common-string percentages for one class (class_num None
    for the totals row). ``strings`` counts entry occurrences, repetitions
    included; percentages are fractions in [0, 1]."""

    class_num: Optional[int]
    sections: int
    heads: int
    paragraphs: int
    groups: int
    strings: int
    pct_common_heads: float
    pct_common_keywords: float
    pct_common_strings: float


# the column name of each CoverageRow (`stats class`, `export structured`) and HeadCoverage
# (`stats head`) field, in field order, and the four a table without a lexicon leaves out
COVERAGE_COLUMNS = ("classNum", "sections", "heads", "paragraphs", "semicolonGroups", "strings",
                    "pctCommonHeads", "pctCommonKeywords", "pctCommonStrings")
HEAD_COLUMNS = ("headNum", "headName", "headNameInLex", "paragraphs", "semicolonGroups", "strings",
                "pctCommonStrings", "pctCommonKeywords")
LEXICON_COLUMNS = {"pctCommonHeads", "pctCommonKeywords", "pctCommonStrings", "headNameInLex"}


@dataclass(frozen=True)
class ClassCoverage:
    rows: tuple[CoverageRow, ...]
    total: CoverageRow


@dataclass(frozen=True)
class HeadCoverage:
    head_num: int
    head_name: str
    head_name_in_lex: bool
    paragraphs: int
    groups: int
    strings: int
    pct_common_strings: float
    pct_common_keywords: float


def common_strings(kb: ThesaurusKB, lemmas: frozenset[str]) -> frozenset[str]:
    """Normalized strings present in both resources: the entry strings of
    ``kb`` that are among a lexicon's ``lemmas``. The entry texts stream
    into the intersection, so the set of every one is never built."""
    return lemmas.intersection(
        entry.text for _, _, head in kb.walk_heads() for para in head.paragraphs
        for group in para.groups for entry in group.entries
    )


def _head_name_key(name: str, use_stripped: bool) -> str:
    return normalize(_strip_head_gloss(name) if use_stripped else name)


def _pct(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _coverage_row(
    class_num: Optional[int], sections: int, heads: list[tuple[str, HeadTally]],
    common: Collection[str],
) -> CoverageRow:
    """Sum the tallies of ``heads``, each paired with its name's key, into
    one table row; a head's name is common when its key is in ``common``."""
    paragraphs = sum(t.paragraphs for _, t in heads)
    strings = sum(t.entries for _, t in heads)
    return CoverageRow(
        class_num=class_num, sections=sections, heads=len(heads),
        paragraphs=paragraphs, groups=sum(t.groups for _, t in heads), strings=strings,
        pct_common_heads=_pct(sum(key in common for key, _ in heads), len(heads)),
        pct_common_keywords=_pct(sum(t.keyword_hits for _, t in heads), paragraphs),
        pct_common_strings=_pct(sum(t.entry_hits for _, t in heads), strings),
    )


# A tally row: a head's class number, its own number, its name and its HeadTally.
# ``ThesaurusKB.tally_heads`` gives them through ``_kb_tallies``, and
# ``parser._tallies`` reads them from a proven canonical text; the tables
# below are built from either.
_TallyRow = tuple[int, int, str, HeadTally]


def _kb_tallies(kb: ThesaurusKB, strings: frozenset[str] = frozenset()) -> Iterator[_TallyRow]:
    """``kb.tally_heads(strings)`` as tally rows."""
    return ((cls.number, head.number, head.name, tally)
            for cls, head, tally in kb.tally_heads(strings))


def _class_table(
    classes: list[tuple[int, int]], tallies: Iterable[_TallyRow], common: Collection[str],
    strip_gloss: bool,
) -> ClassCoverage:
    """``class_coverage`` of the KB whose classes are ``classes``, each its
    number and its number of sections, and whose heads are ``tallies``.
    ``common`` is read only once every tally is, so a tally that gathers
    the common strings as it goes may fill it."""
    per_class: dict[int, list[tuple[str, HeadTally]]] = {number: [] for number, _ in classes}
    for class_num, _, name, tally in tallies:
        per_class[class_num].append((_head_name_key(name, strip_gloss), tally))
    rows = tuple(
        _coverage_row(number, sections, per_class[number], common) for number, sections in classes
    )
    every_head = [head for heads in per_class.values() for head in heads]
    total = _coverage_row(None, sum(r.sections for r in rows), every_head, common)
    return ClassCoverage(rows=rows, total=total)


def class_coverage(
    kb: ThesaurusKB,
    common: frozenset[str],
    *,
    strip_gloss: bool = False,
) -> ClassCoverage:
    """One row per class plus an occurrence-weighted totals row.

    pct_common_strings = common entry occurrences / entry occurrences;
    pct_common_keywords = paragraphs whose keyword is common / paragraphs;
    pct_common_heads = heads whose name (optionally gloss-stripped at the
    first ":") is common / heads.
    """
    classes = [(cls.number, len(cls.sections)) for cls in kb.classes]
    return _class_table(classes, _kb_tallies(kb, common), common, strip_gloss)


def _head_table(
    tallies: Iterable[_TallyRow], lemmas: frozenset[str], strip_gloss: bool
) -> tuple[HeadCoverage, ...]:
    """``head_coverage`` of the KB whose heads are ``tallies``."""
    out = [
        HeadCoverage(
            number, name, _head_name_key(name, strip_gloss) in lemmas,
            tally.paragraphs, tally.groups, tally.entries,
            _pct(tally.entry_hits, tally.entries), _pct(tally.keyword_hits, tally.paragraphs),
        )
        for _, number, name, tally in tallies
    ]
    return tuple(sorted(out, key=lambda r: (-r.pct_common_strings, r.head_num)))


def head_coverage(
    kb: ThesaurusKB,
    lemmas: frozenset[str],
    common: frozenset[str],
    *,
    strip_gloss: bool = False,
) -> tuple[HeadCoverage, ...]:
    """One row per head, sorted descending by pct_common_strings, ties by
    ascending head number. head_name_in_lex tests the name against the
    lexicon's ``lemmas`` (not the intersection)."""
    return _head_table(_kb_tallies(kb, common), lemmas, strip_gloss)


def _pos_shares(tallies: Iterable[_TallyRow]) -> dict[PartOfSpeech, float]:
    """``pos_distribution`` of the KB whose heads are ``tallies``."""
    counts = [0] * len(PartOfSpeech)
    for *_, tally in tallies:
        counts = [a + b for a, b in zip(counts, tally.pos_entries)]
    total = sum(counts)
    return {pos: _pct(count, total) for pos, count in zip(PartOfSpeech, counts)}


def pos_distribution(kb: ThesaurusKB) -> dict[PartOfSpeech, float]:
    """Fraction of entry occurrences per part of speech; all five tags are
    present, zeros included. Sums to 1 for a non-empty KB."""
    return _pos_shares(_kb_tallies(kb))


# -- relation labelling -------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """One match: ``string`` occurs both in the semicolon group and in the
    synset reached via ``relation``."""

    string: str
    synset_id: str
    relation: RelationType


@dataclass(frozen=True)
class LabelledGroup:
    group: SemicolonGroup
    label: Optional[RelationType]  # None = no label
    evidence: tuple[Evidence, ...]


@dataclass(frozen=True)
class LabelledParagraph:
    """The paragraph's groups in source order, each with its label."""

    source: Address
    keyword: str
    labelled: tuple[LabelledGroup, ...]


def group_strings(group: SemicolonGroup, *, include_cross_refs: bool) -> frozenset[str]:
    out = {entry.text for entry in group.entries}
    if include_cross_refs:
        out.update(ref.keyword for entry in group.entries for ref in entry.cross_refs)
    return frozenset(out)


def _evidence_sort_key(ev: Evidence) -> tuple:
    return (ev.string, ev.synset_id, LABEL_PRECEDENCE.index(ev.relation))


def label_paragraph(
    kb: ThesaurusKB,
    res: SynsetResource,
    target: Address,
    *,
    match_cross_refs: bool = True,
) -> LabelledParagraph:
    """Label every semicolon group of the paragraph at ``target`` against
    the keyword's mini-net (all senses unioned). ``match_cross_refs`` lets
    cross-reference keywords participate as group members."""
    para = kb.resolve(target)
    if not isinstance(para, Paragraph):
        raise AddressError(f"{target} does not name a paragraph")
    keyword = para.keyword
    net = build_mini_net(res, keyword, para.pos)

    # every (relation, synset) pair one hop from any sense; seeds carry the
    # synonym relation themselves (every part of speech follows SYNONYM)
    channels: list[tuple[RelationType, Synset]] = []
    for sense in net.senses:
        channels.append((RelationType.SYNONYM, sense.seed))
        for relation, reached in sense.reached:
            channels.extend((relation, synset) for synset in reached)

    labelled = []
    for sg_idx, group in enumerate(para.groups):
        members = group_strings(group, include_cross_refs=match_cross_refs)
        if sg_idx == 0:
            # the keyword is the relation source, not a matchable member of
            # its own group
            members = members - {keyword}
        found = {
            Evidence(string, synset.id, relation)
            for relation, synset in channels
            for string in synset.lemmas if string in members
        }
        if sg_idx == 0 and not found:
            # a keyword group with nothing else to say is synonymous with
            # its own seed synsets
            found = {
                Evidence(keyword, sense.seed.id, RelationType.SYNONYM)
                for sense in net.senses
            }
        evidence = tuple(sorted(found, key=_evidence_sort_key))
        label = (min((ev.relation for ev in evidence), key=LABEL_PRECEDENCE.index)
                 if evidence else None)
        labelled.append(LabelledGroup(group=group, label=label, evidence=evidence))

    return LabelledParagraph(source=target, keyword=keyword, labelled=tuple(labelled))
