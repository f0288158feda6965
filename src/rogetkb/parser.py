"""Line-oriented thesaurus source parser.

Grammar, one construct per line unless noted:

    #CLASS <n> <name>     begins a class
    #SECTION <n> <name>   begins a section in the current class
    #HEAD <n> <name>      begins a head in the current section
    #PARA <POS>           begins a paragraph in the current head; POS in
                          {N, ADJ, VB, ADV, INT}; the keyword is the first
                          entry, never restated
    entry lines           entries separated by ","; a semicolon group is
                          terminated by ";" and may span lines; an entry may
                          carry cross-references written "@<headnum> <keyword>";
                          a group may not start with "#" or "//" (its
                          canonical line would read as a directive or comment)
    // comment            ignored, as are blank lines

A line break also separates entries, so an individual entry never spans
lines. A comma token's entry text runs up to its first "@", and each "@"
starts one cross-reference reaching to the next "@" or the token's end. A
token holding only cross-references attaches them to the entry before it;
an empty token, or one of only "@"s and whitespace, is skipped with a
warning. A directive closes whatever is open at its own level or deeper.
Class numbers lie in 1..8 and ascend; section numbers are positive and
ascend within their class; head numbers are positive and ascend across the
file; a number of 0 is "not a positive integer", as is one not written in
decimal digits or longer than 4,300 digits. No construct may be empty: a
class needs a section, a section a head, a head a paragraph, a paragraph a
semicolon group. Diagnostics are collected rather than raised; a knowledge
base is returned only when no error-severity diagnostic was produced.

:func:`canonical_heads` recognises the canonical form ``serialize_kb``
writes, in which a head can be parsed on its own under its class and
section lines, and which ``_canonical_kb`` builds without this parser.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

from .model import (
    MAX_DIGITS,
    POS_BY_TAG,
    Address,
    CrossReference,
    Entry,
    Head,
    Paragraph,
    PartOfSpeech,
    RogetClass,
    Section,
    SemicolonGroup,
    ThesaurusKB,
    _collector_paused,
)
from .text import normalize

__all__ = [
    "HeadSlice",
    "ParseDiagnostic",
    "ParseResult",
    "canonical_heads",
    "parse_source",
    "parse_cross_ref",
    "serialize_kb",
]


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    line: int
    severity: str  # "warning" or "error"
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.severity}: {self.message}"


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Outcome of a parse: ``kb`` is None iff any diagnostic is an error."""

    kb: Optional[ThesaurusKB]
    diagnostics: tuple[ParseDiagnostic, ...]


def _number(text: str) -> int:
    """``text`` read as a decimal number, or 0 (which no construct accepts)
    when it is not one of at most :data:`MAX_DIGITS` (4,300) digits: Python's
    default limit on int-string conversion, past which int() raises where it
    is enforced."""
    return int(text) if text.isdecimal() and len(text) <= MAX_DIGITS else 0


def parse_cross_ref(token: str) -> Optional[CrossReference]:
    """Read one ``@<headnum> <keyword>`` annotation; None when the token is
    not a cross-reference. Raises ValueError for ``@`` with a bad number."""
    token = token.strip()
    if not token.startswith("@"):
        return None
    body = token[1:].strip()
    num_part, _, keyword = body.partition(" ")
    head_num = _number(num_part)
    if head_num < 1:
        raise ValueError(f"bad cross-reference head number {num_part!r}")
    keyword = normalize(keyword)
    if not keyword:
        raise ValueError("cross-reference is missing its keyword")
    return CrossReference(head_num, keyword)


# Depths of the open constructs. A directive opens one a level below its
# parent, closing whatever was open at its own depth or deeper.
_CLASS, _SECTION, _HEAD, _PARA = range(4)
_DIRECTIVES = {"#CLASS": _CLASS, "#SECTION": _SECTION, "#HEAD": _HEAD, "#PARA": _PARA}
_LEVELS = ("class", "section", "head", "paragraph")
_NODES = (RogetClass, Section, Head, Paragraph)
_CHILDREN = ("sections", "heads", "paragraphs")


class _Open(NamedTuple):
    """A construct whose closing line is still to come: the fields of its
    node other than the children, the line of its directive, and the
    children finished so far."""

    fields: tuple
    line: int
    children: list


class _Builder:
    """Accumulates the tree while the line loop below drives it."""

    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.classes: list[RogetClass] = []
        self.open: list[_Open] = []  # outermost first, so the index is the depth
        self.entries: list[Entry] = []  # current, unterminated group
        self.last_class_num = 0
        self.last_head_num = 0
        self.declared_heads: set[int] = set()
        self.ref_sites: list[tuple[int, int]] = []  # (line, referenced head)

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "error", message))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "warning", message))

    def flush_group(self, line: int, *, implicit: bool) -> None:
        if self.entries:
            if implicit:
                self.warn(line, "semicolon group not terminated by ';'")
            self.open[-1].children.append(SemicolonGroup(tuple(self.entries)))
            self.entries = []

    def close(self, depth: int, line: int) -> None:
        """Close every construct open at ``depth`` or deeper, innermost
        first, keeping each one that has children. An empty class or section
        is reported at ``line``, an empty head or paragraph at its own."""
        self.flush_group(line, implicit=True)
        while len(self.open) > depth:
            node = self.open.pop()
            level = len(self.open)
            if node.children:
                parent = self.open[-1].children if self.open else self.classes
                parent.append(_NODES[level](*node.fields, tuple(node.children)))
            elif level == _PARA:
                self.error(node.line, "paragraph has no semicolon groups")
            else:
                where = node.line if level == _HEAD else line
                self.error(where, f"{_LEVELS[level]} {node.fields[0]} has no {_CHILDREN[level]}")

    def begin(self, depth: int, rest: str, line: int) -> None:
        """Open the construct a directive at ``depth`` begins, unless its
        payload or its number is rejected. Classes and heads ascend across
        the file, past the last one opened; sections ascend within their
        class from 1, past the last one kept."""
        if depth == _PARA:
            try:
                self.open.append(_Open((PartOfSpeech.parse(rest),), line, []))
            except ValueError as exc:
                self.error(line, str(exc))
            return
        if depth == _CLASS:
            floor = self.last_class_num
        elif depth == _SECTION:
            kept = self.open[-1].children
            floor = kept[-1].number if kept else 0
        else:
            floor = self.last_head_num
        num_part, _, name = rest.partition(" ")
        name = " ".join(name.split())
        number = _number(num_part)
        if number < 1:
            self.error(line, f"{_LEVELS[depth]} number {num_part!r} is not a positive integer")
        elif not name:
            self.error(line, f"{_LEVELS[depth]} has no name")
        elif depth == _CLASS and number > 8:
            self.error(line, f"class number {number} outside 1..8")
        elif number <= floor:
            self.error(line, f"{_LEVELS[depth]} number {number} not ascending")
        else:
            self.open.append(_Open((number, name), line, []))
            if depth == _CLASS:
                self.last_class_num = number
            elif depth == _HEAD:
                self.last_head_num = number
                self.declared_heads.add(number)


def _feed_entry_line(text: str, line: int, builder: _Builder) -> None:
    if len(builder.open) <= _PARA:
        builder.error(line, "semicolon group outside paragraph")
        return
    segments = text.split(";")
    for i, segment in enumerate(segments):
        closes = i < len(segments) - 1
        segment = segment.strip()
        if segment:
            for token in segment.split(","):
                # the entry text runs up to the first "@"; each "@" starts one
                # ref reaching to the next "@" or the token's end
                raw_text, at, ref_text = token.partition("@")
                entry_text = normalize(raw_text)
                refs: list[CrossReference] = []
                bad = False
                for part in ref_text.split("@") if at else ():
                    if not part.strip():
                        continue
                    try:
                        ref = parse_cross_ref("@" + part)
                    except ValueError as exc:
                        builder.error(line, str(exc))
                        bad = True
                        continue
                    refs.append(ref)
                    builder.ref_sites.append((line, ref.head_num))
                if entry_text:
                    if not builder.entries and entry_text.startswith(("#", "//")):
                        builder.error(line, f"semicolon group cannot start with {entry_text!r}")
                    builder.entries.append(Entry(entry_text, tuple(refs)))
                elif refs:
                    if builder.entries:
                        prev = builder.entries[-1]
                        builder.entries[-1] = Entry(prev.text, prev.cross_refs + tuple(refs))
                    else:
                        builder.error(line, "cross-reference with no entry to attach to")
                elif not bad:
                    builder.warn(line, "empty entry skipped")
        if closes:
            if builder.entries:
                builder.flush_group(line, implicit=False)
            else:
                builder.warn(line, "empty semicolon group skipped")


@_collector_paused()
def parse_source(text: str) -> ParseResult:
    """Parse a whole source document. Never raises on bad input; every
    problem becomes a diagnostic and ``kb`` is None when any is an error."""
    builder = _Builder()

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not line.startswith("#"):
            _feed_entry_line(line, line_no, builder)
            continue
        directive, _, rest = line.partition(" ")
        depth = _DIRECTIVES.get(directive)
        if depth is None:
            builder.error(line_no, f"unknown directive {directive!r}")
        elif len(builder.open) < depth:
            builder.error(line_no, f"{_LEVELS[depth]} outside {_LEVELS[depth - 1]}")
        else:
            builder.close(depth, line_no)
            builder.begin(depth, rest.strip(), line_no)

    # the line after a final line break counts, as it does in an editor;
    # lines break where splitlines breaks them, "\r" and "\r\n" included
    ends_with_break = text[-1:].splitlines() == [""]
    last_line = max(1, len(lines) + ends_with_break)
    builder.close(_CLASS, last_line)

    # dangling cross-references are warnings: fixtures are sparse subsets of
    # the full head space by design
    for line_no, head_num in builder.ref_sites:
        if head_num not in builder.declared_heads:
            builder.warn(line_no, f"cross-reference to unknown head {head_num}")

    diagnostics = tuple(builder.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(ThesaurusKB(tuple(builder.classes)), diagnostics)


# The canonical form, line by line, with the line each directive must be
# followed by. A text of these lines holds no line break but "\n" (every
# other one is whitespace), no comment, blank line or unterminated group,
# and no empty construct. Entries and cross-reference keywords are
# single-spaced runs free of ",", ";" and "@"; a number has no leading zero.
_WORD = r"[^\s,;@]+(?: [^\s,;@]+)*"
_NUM = rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}"
_NAME = r"\S+(?: \S+)*"
_ENTRY = rf"{_WORD}(?: @{_NUM} {_WORD})*"
_CANONICAL_LINE = (
    rf"#CLASS [1-8] {_NAME}\n(?=#SECTION )|#SECTION {_NUM} {_NAME}\n(?=#HEAD )"
    rf"|#HEAD {_NUM} {_NAME}\n(?=#PARA )|#PARA (?:{'|'.join(POS_BY_TAG)})\n(?!#)"
    rf"|(?!#|//){_ENTRY}(?:, {_ENTRY})*;\n"
)
# each searched for after a "\n", so that the search skips to line breaks
_NON_CANONICAL_LINE = re.compile(rf"\n(?!\Z|{_CANONICAL_LINE})")
_DIRECTIVE_LINE = re.compile(r"\n#[^\n]*")
_ENTRY_TEXT = re.compile(_WORD)
_OPENING = re.compile(r"\n(?=(#(CLASS|SECTION|HEAD) ([0-9]+)[^\n]*\n))")


class HeadSlice(NamedTuple):
    """A head of a canonical text: its number, and the ``(start, end)``
    offsets of the text that parses it alone: its ``#CLASS`` line, its
    ``#SECTION`` line, and its own lines up to the next such directive."""

    number: int
    pieces: tuple[tuple[int, int], ...]


def canonical_heads(text: str) -> Optional[list[HeadSlice]]:
    """The heads of ``text``, in file order, when it is in the canonical form
    that ``serialize_kb`` writes; otherwise None. Such a text parses with no
    error-severity diagnostic, as does any text made of some of its heads'
    pieces in file order, and every group line is its own ``str.lower()``,
    so each raw entry is its normalized text. The check is sufficient, not
    necessary: it refuses some texts that parse (the empty one, a comment,
    a messy spacing or case), never one that does not. It costs a few
    searches of the whole text plus one step per class, section and head."""
    lines = "\n" + text
    if not (text.startswith("#CLASS ") and text.endswith(";\n")):
        return None
    if _NON_CANONICAL_LINE.search(lines):
        return None
    groups = _DIRECTIVE_LINE.sub("", lines)
    if groups != groups.lower():
        return None
    # ``lines`` is ``text`` shifted by one: the "\n" a match starts at sits
    # where its line starts in ``text``
    openings = list(_OPENING.finditer(lines))
    ends = [match.start() for match in openings[1:]] + [len(text)]
    heads: list[HeadSlice] = []
    floors = dict.fromkeys(("CLASS", "SECTION", "HEAD"), (0, ""))
    above: dict[str, tuple[int, int]] = {}
    for match, end in zip(openings, ends):
        kind, number = match.group(2, 3)
        key = (len(number), number)  # numeric order: no number has a leading zero
        if key <= floors[kind]:
            return None
        floors[kind] = key
        above[kind] = (match.start(), match.end(1) - 1)
        if kind == "CLASS":
            floors["SECTION"] = (0, "")
        elif kind == "HEAD":
            pieces = (above["CLASS"], above["SECTION"], (match.start(), end))
            heads.append(HeadSlice(int(number), pieces))
    return heads


_REF_NUMBER = re.compile(r"@([0-9]+) ")


def _unknown_refs(text: str, heads: list[HeadSlice]) -> tuple[ParseDiagnostic, ...]:
    """``parse_source(text).diagnostics`` for a text that ``canonical_heads``
    proves (``heads`` is its proof): one warning per cross-reference to a
    head the text does not declare, in file order, at its line. No other
    diagnostic can arise. In a group line every ``"@"`` starts a reference,
    whose number has no leading zero and so is compared as written; a
    directive line, whose name may hold ``" @7 x"``, is skipped."""
    declared = {str(head.number) for head in heads}
    diagnostics: list[ParseDiagnostic] = []
    line, at = 1, 0
    for site in _REF_NUMBER.finditer(text):
        number, start = site[1], site.start()
        if number in declared or text[text.rfind("\n", 0, start) + 1] == "#":
            continue
        line += text.count("\n", at, start)
        at = start
        diagnostics.append(
            ParseDiagnostic(line, "warning", f"cross-reference to unknown head {number}")
        )
    return tuple(diagnostics)


def _canonical_counts(text: str, heads: list[HeadSlice]) -> tuple[int, int, int]:
    """``len(kb.classes)`` and the ``heads`` and ``entries`` of
    ``kb.count_nodes()`` for the KB of a text that ``canonical_heads`` proves
    (``heads`` is its proof), counted in the text. A class is a ``#CLASS``
    line, and every line that is not a directive is one group of entries
    joined by ``", "``; a directive line, whose name may hold ``", "``,
    holds no entry."""
    directives = _DIRECTIVE_LINE.findall("\n" + text)
    separators = text.count(", ") - sum(line.count(", ") for line in directives)
    groups = text.count("\n") - len(directives)
    classes = sum(line.startswith("\n#CLASS ") for line in directives)
    return classes, len(heads), separators + groups


def _entry_sites(text: str, heads: list[HeadSlice], word: str) -> Iterator[tuple[int, int]]:
    """``(i, at)`` for each entry of a text that ``canonical_heads`` proves
    (``heads`` is its proof) whose text is ``normalize(word)``, in file
    order: ``at`` is its offset and ``heads[i]`` its head. In a group line
    an entry is its own normalized text, a run free of ",", ";" and "@" from
    the line start or ", " to ",", ";" or " @", so one literal search finds
    them all. A hit on a directive line, whose name may hold ", ", is none."""
    query = normalize(word)
    if _ENTRY_TEXT.fullmatch(query) is None:  # no entry's text: "", or one holding ",;@"
        return
    starts = [head.pieces[-1][0] for head in heads]
    for hit in re.finditer(re.escape(query) + "(?=[,;]| @)", text):
        at = hit.start()
        line = text.rfind("\n", 0, at) + 1
        if (at == line or text[at - 2:at] == ", ") and text[line] != "#":
            yield bisect_right(starts, at) - 1, at


def _fields(text: str, at: int) -> list[str]:
    """The directive line at offset ``at``: its keyword, number and name."""
    return text[at:text.index("\n", at)].split(" ", 2)


def _postings(text: str, heads: list[HeadSlice], word: str) -> list[tuple[Address, str, str]]:
    """The postings of ``word`` in a text that ``canonical_heads`` proves
    (``heads`` is its proof), in ``Address.sort_key`` order, each with its
    head's name and its paragraph's keyword: ``build_index`` of the text's
    KB and ``resolve`` of each posting's head and paragraph give the same.
    Each is counted from its entry's site. The class and section numbers and
    the head name are read from the head's pieces, ``para_idx`` counts the
    head's earlier ``#PARA`` lines of the same tag, ``sg_idx`` the lines
    since the paragraph's own and ``entry_idx`` the ``", "`` before the
    entry on its line; the keyword is the paragraph's first entry."""
    rows = []
    for i, at in _entry_sites(text, heads, word):
        (class_at, _), (section_at, _), (head_at, _) = heads[i].pieces
        para_at = text.rfind("\n#PARA ", head_at, at) + 1
        groups_at = text.index("\n", para_at) + 1
        tag = text[para_at + 6:groups_at - 1]
        line_at = text.rfind("\n", 0, at) + 1
        address = Address(
            int(_fields(text, class_at)[1]), int(_fields(text, section_at)[1]), heads[i].number,
            POS_BY_TAG[tag], text.count(f"\n#PARA {tag}\n", head_at, para_at),
            text.count("\n", groups_at, line_at), text.count(", ", line_at, at),
        )
        rows.append((address, _fields(text, head_at)[2], _ENTRY_TEXT.match(text, groups_at)[0]))
    rows.sort(key=lambda row: row[0].sort_key())
    return rows


def _entry(token: str) -> Entry:
    """The ``Entry`` of a canonical entry token: its text, then each
    ``" @"`` cross-reference."""
    word, at, refs = token.partition(" @")
    return Entry(word, tuple([
        CrossReference(int(number), keyword)
        for number, keyword in (ref.split(" ", 1) for ref in refs.split(" @"))
    ]) if at else ())


def _paragraph(text: str) -> Paragraph:
    """The paragraph of ``text``: its tag line, then one group a line."""
    tag, *lines = text.split("\n")
    return Paragraph(POS_BY_TAG[tag], tuple([
        SemicolonGroup(tuple(map(_entry, line[:-1].split(", ")))) for line in lines
    ]))


def _node(kind: type, text: str, separator: str, child: Callable[[str], object]) -> object:
    """The ``kind`` node of ``text``: ``<number> <name>``, then its children."""
    first, *children = text.split(separator)
    number, name = first.split(" ", 1)
    return kind(int(number), name, tuple(map(child, children)))


_head = partial(_node, Head, separator="\n#PARA ", child=_paragraph)
_section = partial(_node, Section, separator="\n#HEAD ", child=_head)
_class = partial(_node, RogetClass, separator="\n#SECTION ", child=_section)


@_collector_paused()
def _canonical_kb(text: str) -> ThesaurusKB:
    """``parse_source(text).kb`` for a text that ``canonical_heads`` accepts,
    or one of some of its heads' pieces in file order, built without the
    general parser. It trusts the proof: a construct ends where a ``"\\n#"``
    directive of its level or above starts, every other line is one group,
    ``line[:-1].split(", ")``, of normalized entries with cross-references
    after ``" @"``."""
    # past the first "#CLASS " and before the final line break
    return ThesaurusKB(tuple(map(_class, text[7:-1].split("\n#CLASS ")) if text else ()))


def serialize_kb(kb: ThesaurusKB) -> str:
    """Canonical document; parsing it back yields an equal KB."""
    if not kb.classes:
        return ""
    return kb.canonical_source()

