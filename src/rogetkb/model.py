"""Immutable document model for a Roget-structured thesaurus.

The taxonomy is a fixed-depth tree: root (0), class (1), section (2),
head (3), part-of-speech group (4), paragraph (5), semicolon group (6),
entry (7). Semicolon groups are the unit of word sense; entries are the
strings inside them.

Every node is a frozen dataclass holding tuples and every address an
immutable tuple, so a built knowledge base is hashable-by-content and safe
to share. Canonical serialization also lives here so that the model does
not depend on the parser.

Navigation takes constant time on a warm KB. ``ThesaurusKB.resolve`` and
``ThesaurusKB.head_address`` answer from tables that each KB builds once,
on first use, with the cyclic collector paused: about 5 ms and 0.8 MB at
paper scale. A KB is immutable, so the tables cannot go stale. ``Address``
accepts its common shapes on a straight line of type and range tests and
gives any other input the full checks.
"""

from __future__ import annotations

import enum
import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, NoReturn, Optional, Union

__all__ = [
    "PartOfSpeech",
    "CrossReference",
    "Entry",
    "SemicolonGroup",
    "Paragraph",
    "Head",
    "Section",
    "RogetClass",
    "ThesaurusKB",
    "Address",
    "AddressError",
    "Node",
    "CountRecord",
    "HeadTally",
    "SG_LEVEL",
    "MAX_GROUP_DISTANCE",
    "MAX_DIGITS",
]

# Tree depth constants: root=0, class=1, section=2, head=3, POS group=4,
# paragraph=5, semicolon group=6, entry=7.
SG_LEVEL = 6
MAX_GROUP_DISTANCE = 2 * SG_LEVEL


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Switch the cyclic collector off while a builder allocates what its
    caller keeps, and back on however the builder ends; a collector that is
    already off stays off. The built layers are acyclic and freed by
    reference counting, so the collections their allocation would start
    scan all of them and free nothing. The switch is process-wide: other
    threads pause too, and a setting another thread makes during the pause
    is overwritten when it ends."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class PartOfSpeech(enum.Enum):
    """Part-of-speech tag of a paragraph, in canonical display order."""

    NOUN = "N"
    ADJECTIVE = "ADJ"
    VERB = "VB"
    ADVERB = "ADV"
    INTERJECTION = "INT"

    @property
    def display(self) -> str:
        """Abbreviation used when rendering paragraphs (``N.``, ``Adj.`` ...)."""
        return self.value.capitalize() + "."

    @classmethod
    def parse(cls, token: str) -> "PartOfSpeech":
        pos = POS_BY_TAG.get(token.upper())
        if pos is None:
            raise ValueError(f"unknown part of speech {token!r}")
        return pos


# Every reader of a tag goes through this table; tags are upper case.
POS_BY_TAG = {pos.value: pos for pos in PartOfSpeech}
_POS_RANK = {pos: rank for rank, pos in enumerate(PartOfSpeech)}


@dataclass(frozen=True, slots=True)
class CrossReference:
    """Pointer to another head: ``@307 shortfall`` refers to head 307 under
    the keyword ``shortfall``."""

    head_num: int
    keyword: str

    def render(self) -> str:
        return f"@{self.head_num} {self.keyword}"


@dataclass(frozen=True, slots=True)
class Entry:
    """One string in a semicolon group, with any cross-references attached
    to it. ``text`` is stored normalized."""

    text: str
    cross_refs: tuple[CrossReference, ...] = ()

    def render(self) -> str:
        parts = [self.text]
        parts.extend(ref.render() for ref in self.cross_refs)
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class SemicolonGroup:
    """A run of closely related entries; the unit of word sense."""

    entries: tuple[Entry, ...]

    def render(self) -> str:
        return ", ".join(entry.render() for entry in self.entries)


@dataclass(frozen=True, slots=True)
class Paragraph:
    """All semicolon groups of one part of speech sharing a keyword."""

    pos: PartOfSpeech
    groups: tuple[SemicolonGroup, ...]

    @property
    def keyword(self) -> str:
        """First entry of the first group names the paragraph."""
        return self.groups[0].entries[0].text


@dataclass(frozen=True, slots=True)
class Head:
    """A numbered topic. Paragraphs are kept in source order; the address
    scheme groups them by part of speech."""

    number: int
    name: str
    paragraphs: tuple[Paragraph, ...]

    def pos_paragraphs(self, pos: PartOfSpeech) -> tuple[Paragraph, ...]:
        return tuple(p for p in self.paragraphs if p.pos is pos)


@dataclass(frozen=True, slots=True)
class Section:
    number: int
    name: str
    heads: tuple[Head, ...]


@dataclass(frozen=True, slots=True)
class RogetClass:
    number: int
    name: str
    sections: tuple[Section, ...]


Node = Union["RogetClass", "Section", "Head", "Paragraph", "SemicolonGroup", "Entry"]


class AddressError(ValueError):
    """An address component is malformed or does not exist in the tree."""


# Numbers in addresses and source text have at most MAX_DIGITS digits, the
# default int-string limit, so every Python reads and prints them alike.
MAX_DIGITS = 4300
_NUMBER_END = 10**MAX_DIGITS
_NUMBER = rf"(0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
_ADDRESS_TEXT = re.compile(
    rf"{_NUMBER}(?:\.{_NUMBER}(?:\.{_NUMBER}"
    rf"(?::({'|'.join(POS_BY_TAG)}):{_NUMBER}(?::{_NUMBER}(?::{_NUMBER})?)?)?)?)?"
)


class _AddressFields(NamedTuple):
    """The components of :class:`Address`, which adds the checks (a
    NamedTuple cannot override ``__new__`` in its own body)."""

    class_num: int
    section_num: Optional[int] = None
    head_num: Optional[int] = None
    pos: Optional[PartOfSpeech] = None
    para_idx: Optional[int] = None
    sg_idx: Optional[int] = None
    entry_idx: Optional[int] = None


class Address(_AddressFields):
    """Progressive path into the tree: an immutable tuple of seven
    components, validated on every construction.

    A prefix of components may be given, in order: class, section, head,
    (pos, para_idx) together, sg_idx, entry_idx. Rendered as
    ``class.section.head:POS:para:sg:entry`` truncated at the last set
    component, e.g. ``1.3.42:N:0:0:0`` for an entry or ``1.3`` for a
    section. Each number has at most :data:`MAX_DIGITS` digits. The first
    ``n`` components (``n`` not 4) are those of the level-``n`` ancestor.
    Addresses are ordered by :meth:`sort_key`, not by ``<``.
    """

    __slots__ = ()

    def __new__(
        cls, class_num: int, section_num: Optional[int] = None,
        head_num: Optional[int] = None, pos: Optional[PartOfSpeech] = None,
        para_idx: Optional[int] = None, sg_idx: Optional[int] = None,
        entry_idx: Optional[int] = None,
    ) -> "Address":
        # a head, or a paragraph, group or entry of a head, with plain in-range ints is
        # accepted on this straight line; any other input takes the full checks below,
        # which give every verdict and message
        if (type(class_num) is int and 0 < class_num < _NUMBER_END
                and type(section_num) is int and 0 < section_num < _NUMBER_END
                and type(head_num) is int and 0 < head_num < _NUMBER_END):
            if pos is None:
                accepted = para_idx is None and sg_idx is None and entry_idx is None
            else:
                accepted = (
                    type(pos) is PartOfSpeech
                    and type(para_idx) is int and 0 <= para_idx < _NUMBER_END
                    and (sg_idx is None and entry_idx is None
                         or type(sg_idx) is int and 0 <= sg_idx < _NUMBER_END
                         and (entry_idx is None
                              or type(entry_idx) is int and 0 <= entry_idx < _NUMBER_END))
                )
            if accepted:
                return tuple.__new__(
                    cls, (class_num, section_num, head_num, pos, para_idx, sg_idx, entry_idx)
                )
        if (pos is None) != (para_idx is None):
            raise AddressError("paragraph address needs both a part of speech and an index")
        if pos is not None and type(pos) is not PartOfSpeech:
            raise AddressError(f"bad part of speech component {pos!r}")
        seen_gap = False
        for name, value, minimum in (
            ("class", class_num, 1), ("section", section_num, 1), ("head", head_num, 1),
            ("paragraph", para_idx, 0), ("group", sg_idx, 0), ("entry", entry_idx, 0),
        ):
            if value is None and name != "class":
                seen_gap = True
            elif seen_gap:
                raise AddressError(f"{name} component set without its parent levels")
            elif type(value) is not int or not minimum <= value < _NUMBER_END:
                # repr of an int past the limit raises ValueError, so it is not shown
                shown = (f"of more than {MAX_DIGITS} digits"
                         if isinstance(value, int) and abs(value) >= _NUMBER_END else repr(value))
                raise AddressError(f"bad {name} component {shown}")
        return tuple.__new__(
            cls, (class_num, section_num, head_num, pos, para_idx, sg_idx, entry_idx)
        )

    # ``_replace`` builds through ``_make``, which would otherwise skip the checks.
    _make = classmethod(lambda cls, components: cls(*components))

    @property
    def level(self) -> int:
        """Tree depth of the node this address names (class=1 ... entry=7).
        It is the number of set components: a paragraph sets two, ``pos``
        and ``para_idx``, for the part-of-speech level (4) and its own (5)."""
        return len(self) - self.count(None)

    def sort_key(self) -> tuple:
        """Deterministic ordering key, usable across addresses of any depth:
        the seven components in order, an unset one as -1, the part of
        speech as its rank in ``PartOfSpeech`` and a number as itself. So
        within a head, paragraphs order by canonical POS order then index."""
        return tuple(-1 if value is None else _POS_RANK.get(value, value) for value in self)

    def group_prefix(self) -> "Address":
        """This address truncated to semicolon-group depth."""
        if self.sg_idx is None:
            raise AddressError(f"{self} does not reach semicolon-group depth")
        return Address(*self[:SG_LEVEL])

    def __str__(self) -> str:
        # every component in place, cut before the first unset one ("None", in no number or
        # tag): unlike a join of the set ones, it allocates nothing the collector tracks.
        # The tag is read from the member, without the ``value`` descriptor.
        class_num, section, head, pos, para, group, entry = self
        text = f"{class_num}.{section}.{head}:{pos and pos._value_}:{para}:{group}:{entry}"
        unset = text.find("None")
        return text if unset < 0 else text[:unset - 1]

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Inverse of ``str``: reads exactly ``n[.n[.n[:POS:n[:n[:n]]]]]`` after
        stripping surrounding whitespace, where ``n`` is ``0`` or at most 4,300
        ASCII digits with no leading zero and POS is upper case. Other text is a
        ``malformed address``; the constructor then checks the components."""
        match = _ADDRESS_TEXT.fullmatch(text.strip())
        if match is None:
            raise AddressError(f"malformed address {text!r}")
        numbers = [None if part is None else int(part) for part in match.group(1, 2, 3, 5, 6, 7)]
        pos = match[4] and POS_BY_TAG[match[4]]
        return cls(*numbers[:3], pos, *numbers[3:])


@dataclass(frozen=True, slots=True)
class CountRecord:
    """Node totals of a whole KB. ``entries`` counts every occurrence,
    repetitions included."""

    sections: int
    heads: int
    paragraphs: int
    groups: int
    entries: int


class HeadTally(NamedTuple):
    """Node counts of one head. ``keyword_hits`` and ``entry_hits`` count
    the paragraph keywords and entry occurrences found in the tallied
    string set; ``pos_entries`` holds entry occurrences per part of speech,
    in ``PartOfSpeech`` order."""

    paragraphs: int
    groups: int
    entries: int
    keyword_hits: int
    entry_hits: int
    pos_entries: tuple[int, ...]


@dataclass(frozen=True)
class ThesaurusKB:
    """A fully built knowledge base. Numbers ascend at every level: classes
    in the KB, sections in their class, heads across the KB. The parser
    guarantees it, and :func:`rogetkb.index.build_index` relies on it to
    emit postings in taxonomy order without sorting.

    :meth:`resolve` and :meth:`head_address` read two tables, built once per
    KB on first use with the collector paused: about 5 ms at paper scale. A
    KB is immutable, so the tables cannot go stale. They live in the
    instance dict, outside the fields: equality, hashing, ``repr`` and
    pickling read ``classes`` alone."""

    classes: tuple[RogetClass, ...]

    # pickled as the state list of a slotted dataclass, without the tables
    def __getstate__(self) -> list:
        return [self.classes]

    def __setstate__(self, state: list) -> None:
        object.__setattr__(self, "classes", state[0])

    def canonical_source(self) -> str:
        """Deterministic textual form: one semicolon group per line, entries
        comma-separated, cross-references inline. Parsing this text yields an
        equal knowledge base."""
        lines: list[str] = []
        for cls in self.classes:
            lines.append(f"#CLASS {cls.number} {cls.name}")
            for sec in cls.sections:
                lines.append(f"#SECTION {sec.number} {sec.name}")
                for head in sec.heads:
                    lines.append(f"#HEAD {head.number} {head.name}")
                    for para in head.paragraphs:
                        lines.append(f"#PARA {para.pos.value}")
                        for group in para.groups:
                            lines.append(f"{group.render()};")
        return "\n".join(lines) + "\n"

    # -- navigation ---------------------------------------------------------

    @cached_property
    @_collector_paused()
    def _nodes(self) -> dict[tuple, Union[Node, list[Paragraph]]]:
        """Each class, section and head under its first three address
        components, unset ones as None, and each head's paragraphs of one
        part of speech, in order, under those three and the part of speech.
        As in a walk, the first node of a prefix wins: a repeated class or
        section is not descended into."""
        nodes: dict[tuple, Union[Node, list[Paragraph]]] = {}
        for cls in self.classes:
            key = (cls.number, None, None)
            if key in nodes:
                continue
            nodes[key] = cls
            for sec in cls.sections:
                key = (cls.number, sec.number, None)
                if key in nodes:
                    continue
                nodes[key] = sec
                for head in sec.heads:
                    key = (cls.number, sec.number, head.number)
                    if key in nodes:
                        continue
                    nodes[key] = head
                    for para in head.paragraphs:
                        nodes.setdefault((*key, para.pos), []).append(para)
        return nodes

    @cached_property
    @_collector_paused()
    def _head_places(self) -> dict[int, tuple[int, int, int]]:
        """The class, section and head number of the first head, in walk
        order, of each head number."""
        places: dict[int, tuple[int, int, int]] = {}
        for cls, sec, head in self.walk_heads():
            places.setdefault(head.number, (cls.number, sec.number, head.number))
        return places

    def head_address(self, number: int) -> Optional[Address]:
        """The address of the first head, in taxonomy order, whose number
        equals ``number``, or None."""
        try:
            place = self._head_places.get(number)
        except TypeError:  # an unhashable number equals no head's
            return None
        return None if place is None else Address(*place)

    def resolve(self, address: Address) -> Node:
        """Return the node an address names, or raise :class:`AddressError`
        naming the first missing level."""
        class_num, section_num, head_num, pos, para_idx, sg_idx, entry_idx = address
        nodes = self._nodes
        if pos is None:
            node = nodes.get((class_num, section_num, head_num))
            return self._missing_level(address) if node is None else node
        bucket = nodes.get((class_num, section_num, head_num, pos), ())
        if para_idx >= len(bucket):
            head = nodes.get((class_num, section_num, head_num)) or self._missing_level(address)
            raise AddressError(
                f"paragraph {pos.value}:{para_idx} not found in head {head.number}"
            )
        para = bucket[para_idx]
        if sg_idx is None:
            return para
        if sg_idx >= len(para.groups):
            head = nodes[class_num, section_num, head_num]
            raise AddressError(f"group {sg_idx} not found in {head.number}:{pos.value}:{para_idx}")
        group = para.groups[sg_idx]
        if entry_idx is None:
            return group
        if entry_idx >= len(group.entries):
            raise AddressError(f"entry {entry_idx} not found in group {address.group_prefix()}")
        return group.entries[entry_idx]

    def _missing_level(self, address: Address) -> NoReturn:
        """Raise the :class:`AddressError` of the first of the class, section
        and head of ``address`` that is not in the tree."""
        cls = self._nodes.get((address.class_num, None, None))
        if cls is None:
            raise AddressError(f"class {address.class_num} not found")
        sec = self._nodes.get((address.class_num, address.section_num, None))
        if sec is None:
            raise AddressError(f"section {address.section_num} not found in class {cls.number}")
        raise AddressError(
            f"head {address.head_num} not found in section {cls.number}.{sec.number}"
        )

    # -- iteration ----------------------------------------------------------

    def walk_heads(self) -> Iterator[tuple[RogetClass, Section, Head]]:
        for cls in self.classes:
            for sec in cls.sections:
                for head in sec.heads:
                    yield cls, sec, head

    def entry_strings(self) -> frozenset[str]:
        """The distinct entry texts, from one walk."""
        return frozenset(entry.text for _, _, head in self.walk_heads() for para in head.paragraphs
                         for group in para.groups for entry in group.entries)

    def tally_heads(
        self, strings: frozenset[str] = frozenset()
    ) -> Iterator[tuple[RogetClass, Head, HeadTally]]:
        """Yield every head with its :class:`HeadTally`, in taxonomy order.
        Every count and coverage table is built from this one walk; with no
        ``strings`` the hit counts are 0 and no entry is looked at."""
        for cls, _, head in self.walk_heads():
            groups = entries = keyword_hits = entry_hits = 0
            pos_entries = [0] * len(PartOfSpeech)
            for para in head.paragraphs:
                para_entries = 0
                for group in para.groups:
                    para_entries += len(group.entries)
                groups += len(para.groups)
                entries += para_entries
                pos_entries[_POS_RANK[para.pos]] += para_entries
                if strings:
                    keyword_hits += para.keyword in strings
                    entry_hits += sum([e.text in strings for g in para.groups for e in g.entries])
            yield cls, head, HeadTally(
                len(head.paragraphs), groups, entries,
                keyword_hits, entry_hits, tuple(pos_entries),
            )

    def count_nodes(self) -> CountRecord:
        """Node totals of the KB, summed over :meth:`tally_heads`. Per-class
        counts are the rows of :func:`rogetkb.aligner.class_coverage`."""
        heads = paragraphs = groups = entries = 0
        for _, _, tally in self.tally_heads():
            heads += 1
            paragraphs += tally.paragraphs
            groups += tally.groups
            entries += tally.entries
        sections = sum(len(cls.sections) for cls in self.classes)
        return CountRecord(sections, heads, paragraphs, groups, entries)
