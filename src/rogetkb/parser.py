"""Line-oriented thesaurus source parser.

Grammar, one construct per line unless noted:

    #CLASS <n> <name>     begins a class (n in 1..8, ascending)
    #SECTION <n> <name>   begins a section in the current class (ascending)
    #HEAD <n> <name>      begins a head (numbers ascend across the file)
    #PARA <POS>           begins a paragraph; POS in {N, ADJ, VB, ADV, INT};
                          the keyword is the first entry, never restated
    entry lines           entries separated by ","; a semicolon group is
                          terminated by ";" and may span lines; an entry may
                          carry cross-references written "@<headnum> <keyword>";
                          a group may not start with "#" or "//" (its
                          canonical line would read as a directive or comment)
    // comment            ignored, as are blank lines

A line break also separates entries, so an individual entry never spans
lines. Diagnostics are collected rather than raised; a knowledge base is
returned only when no error-severity diagnostic was produced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .model import (
    CrossReference,
    Entry,
    Head,
    Paragraph,
    PartOfSpeech,
    RogetClass,
    Section,
    SemicolonGroup,
    ThesaurusKB,
)
from .text import normalize

__all__ = [
    "ParseDiagnostic",
    "ParseResult",
    "parse_source",
    "parse_cross_ref",
    "serialize_kb",
    "full_corpus_problems",
]

_CROSS_REF = re.compile(r"@(\S+)\s*")


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    severity: str  # "warning" or "error"
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    """Outcome of a parse: ``kb`` is None iff any diagnostic is an error."""

    kb: Optional[ThesaurusKB]
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


def parse_cross_ref(token: str) -> Optional[CrossReference]:
    """Read one ``@<headnum> <keyword>`` annotation; None when the token is
    not a cross-reference. Raises ValueError for ``@`` with a bad number."""
    token = token.strip()
    if not token.startswith("@"):
        return None
    body = token[1:].strip()
    num_part, _, keyword = body.partition(" ")
    if not num_part.isdigit() or int(num_part) <= 0:
        raise ValueError(f"bad cross-reference head number {num_part!r}")
    keyword = normalize(keyword)
    if not keyword:
        raise ValueError("cross-reference is missing its keyword")
    return CrossReference(int(num_part), keyword)


class _Builder:
    """Accumulates the tree while the line loop below drives it."""

    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.classes: list[RogetClass] = []
        # open constructs, flushed bottom-up on every boundary
        self.cls: Optional[tuple[int, str]] = None
        self.sections: list[Section] = []
        self.sec: Optional[tuple[int, str]] = None
        self.heads: list[Head] = []
        self.head: Optional[tuple[int, str, int]] = None  # number, name, line
        self.paragraphs: list[Paragraph] = []
        self.para: Optional[tuple[PartOfSpeech, int]] = None  # pos, line
        self.groups: list[SemicolonGroup] = []
        self.entries: list[Entry] = []  # current, unterminated group
        self.last_head_num = 0
        self.declared_heads: set[int] = set()
        self.ref_sites: list[tuple[int, int]] = []  # (line, referenced head)

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "error", message))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, "warning", message))

    # -- flushes, innermost first --------------------------------------------

    def flush_group(self, line: int, *, implicit: bool) -> None:
        if self.entries:
            if implicit:
                self.warn(line, "semicolon group not terminated by ';'")
            self.groups.append(SemicolonGroup(tuple(self.entries)))
            self.entries = []

    def flush_paragraph(self, line: int) -> None:
        self.flush_group(line, implicit=True)
        if self.para is None:
            return
        pos, para_line = self.para
        if self.groups:
            self.paragraphs.append(Paragraph(pos, tuple(self.groups)))
        else:
            self.error(para_line, "paragraph has no semicolon groups")
        self.para = None
        self.groups = []

    def flush_head(self, line: int) -> None:
        self.flush_paragraph(line)
        if self.head is None:
            return
        number, name, head_line = self.head
        if self.paragraphs:
            self.heads.append(Head(number, name, tuple(self.paragraphs)))
        else:
            self.error(head_line, f"head {number} has no paragraphs")
        self.head = None
        self.paragraphs = []

    def flush_section(self, line: int) -> None:
        self.flush_head(line)
        if self.sec is None:
            return
        number, name = self.sec
        if self.heads:
            self.sections.append(Section(number, name, tuple(self.heads)))
        else:
            self.error(line, f"section {number} has no heads")
        self.sec = None
        self.heads = []

    def flush_class(self, line: int) -> None:
        self.flush_section(line)
        if self.cls is None:
            return
        number, name = self.cls
        if self.sections:
            self.classes.append(RogetClass(number, name, tuple(self.sections)))
        else:
            self.error(line, f"class {number} has no sections")
        self.cls = None
        self.sections = []


def _split_directive(rest: str, line: int, builder: _Builder, what: str) -> Optional[tuple[int, str]]:
    num_part, _, name = rest.partition(" ")
    name = " ".join(name.split())
    if not num_part.isdigit():
        builder.error(line, f"{what} number {num_part!r} is not a positive integer")
        return None
    if not name:
        builder.error(line, f"{what} has no name")
        return None
    return int(num_part), name


def _parse_entry_token(token: str, line: int, builder: _Builder) -> tuple[str, list[CrossReference], bool]:
    """Split one comma-delimited token into entry text and its refs.
    A token may carry several ``@n kw`` annotations; text may be empty,
    which attaches the refs to the preceding entry. The third value flags
    that a malformed ref was already reported."""
    at = token.find("@")
    if at < 0:
        return normalize(token), [], False
    text = normalize(token[:at])
    refs: list[CrossReference] = []
    bad = False
    # each "@" starts one ref reaching to the next "@" or the token's end
    for part in token[at:].split("@"):
        if not part.strip():
            continue
        try:
            ref = parse_cross_ref("@" + part)
        except ValueError as exc:
            builder.error(line, str(exc))
            bad = True
            continue
        if ref is not None:
            refs.append(ref)
            builder.ref_sites.append((line, ref.head_num))
    return text, refs, bad


def _feed_entry_line(text: str, line: int, builder: _Builder) -> None:
    if builder.para is None:
        builder.error(line, "semicolon group outside paragraph")
        return
    segments = text.split(";")
    for i, segment in enumerate(segments):
        closes = i < len(segments) - 1
        segment = segment.strip()
        if segment:
            for token in segment.split(","):
                token = token.strip()
                if not token:
                    builder.warn(line, "empty entry skipped")
                    continue
                entry_text, refs, bad = _parse_entry_token(token, line, builder)
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


def parse_source(text: str) -> ParseResult:
    """Parse a whole source document. Never raises on bad input; every
    problem becomes a diagnostic and ``kb`` is None when any is an error."""
    builder = _Builder()
    last_class_num = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("#"):
            directive, _, rest = line.partition(" ")
            rest = rest.strip()
            if directive == "#CLASS":
                builder.flush_class(line_no)
                parsed = _split_directive(rest, line_no, builder, "class")
                if parsed:
                    number, name = parsed
                    if not 1 <= number <= 8:
                        builder.error(line_no, f"class number {number} outside 1..8")
                    elif number <= last_class_num:
                        builder.error(line_no, f"class number {number} not ascending")
                    else:
                        last_class_num = number
                        builder.cls = (number, name)
            elif directive == "#SECTION":
                if builder.cls is None:
                    builder.error(line_no, "section outside class")
                    continue
                builder.flush_section(line_no)
                parsed = _split_directive(rest, line_no, builder, "section")
                if parsed:
                    number, name = parsed
                    if builder.sections and number <= builder.sections[-1].number:
                        builder.error(line_no, f"section number {number} not ascending")
                    else:
                        builder.sec = (number, name)
            elif directive == "#HEAD":
                if builder.sec is None:
                    builder.error(line_no, "head outside section")
                    continue
                builder.flush_head(line_no)
                parsed = _split_directive(rest, line_no, builder, "head")
                if parsed:
                    number, name = parsed
                    if number <= builder.last_head_num:
                        builder.error(line_no, f"head number {number} not ascending")
                    else:
                        builder.last_head_num = number
                        builder.declared_heads.add(number)
                        builder.head = (number, name, line_no)
            elif directive == "#PARA":
                if builder.head is None:
                    builder.error(line_no, "paragraph outside head")
                    continue
                builder.flush_paragraph(line_no)
                try:
                    pos = PartOfSpeech.parse(rest)
                except ValueError as exc:
                    builder.error(line_no, str(exc))
                    continue
                builder.para = (pos, line_no)
            else:
                builder.error(line_no, f"unknown directive {directive!r}")
        else:
            _feed_entry_line(line, line_no, builder)

    last_line = text.count("\n") + 1 if text else 1
    builder.flush_class(last_line)

    # dangling cross-references are warnings: fixtures are sparse subsets of
    # the full head space by design
    for line_no, head_num in builder.ref_sites:
        if head_num not in builder.declared_heads:
            builder.warn(line_no, f"cross-reference to unknown head {head_num}")

    diagnostics = tuple(builder.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(ThesaurusKB(tuple(builder.classes)), diagnostics)


def serialize_kb(kb: ThesaurusKB) -> str:
    """Canonical document; parsing it back yields an equal KB."""
    if not kb.classes:
        return ""
    return kb.canonical_source()


def full_corpus_problems(kb: ThesaurusKB) -> list[str]:
    """Extra checks that only hold for the complete eight-class corpus."""
    problems = []
    present = [cls.number for cls in kb.classes]
    if present != list(range(1, 9)):
        problems.append(f"expected classes 1..8, found {present}")
    heads = [head.number for _, _, head in kb.walk_heads()]
    if heads and heads[-1] > 990:
        problems.append(f"head numbers exceed 990 (max {heads[-1]})")
    if len(heads) != 990:
        problems.append(f"expected 990 heads, found {len(heads)}")
    return problems
