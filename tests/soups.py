"""Hypothesis strategies for source documents and lexicons of arbitrary
line soup.

Source soups are shared by the parser's consistency property, the index
oracle property, the bundle round-trip property and the CLI fuzz test;
lexicon soups feed the lexicon reader's oracle property. Canonical sources
are the text ``build`` stores for a well-formed soup, as it is, after one
edit, or with one directive renamed to a name that reads like a group
line's references and separators. Signed bundles store a source and a
lexicon soup as drawn, each under its own correct checksum, so every one
of them passes the load's checksum gate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

from hypothesis import strategies as st

from oracles import walk_paragraphs
from rogetkb.lexnet import RelationType
from rogetkb.parser import parse_source, serialize_kb

# str.splitlines breaks a line at each of these; an entry token never holds one
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_IN_LINE = st.text(
    st.characters(codec="utf-8", exclude_characters=_LINE_BREAKS), max_size=8
)
# "\u00b2" is a digit to str.isdigit but no number to int; 5,000 digits are
# past Python's default limit on int-string conversion
_NUMBERS = ["0", "1", "8", "9", "\u00b2", "x", "", "7" * 5000]
# Fixed choices are enumerated up front: one draw from a list costs far less
# than the nested draws that would build the same strings.
_DIRECTIVE = st.one_of(
    st.sampled_from([
        f"{level} {number} {name}"
        for level in ("#CLASS", "#SECTION", "#HEAD")
        for number in _NUMBERS
        for name in ("", "Name", "Two  Words")
    ]),
    st.sampled_from([f"#PARA {pos}" for pos in ("N", "adj", "VB", "ADV", "INT", "XYZ", "")]),
    st.sampled_from(["#FOO", "#", "#FOO 1 Name"]),
)
_TEXT = st.one_of(_IN_LINE, st.sampled_from(["word", "Two  Words", "#z", "//c", " "]))
_REF = st.builds("@{} {}".format, st.sampled_from(["42", *_NUMBERS]), _TEXT)
_TOKEN = st.one_of(
    _TEXT, st.builds(lambda text, refs: " ".join([text, *refs]), _TEXT, st.lists(_REF, max_size=2))
)
_ENTRY_LINE = st.builds(
    lambda tokens, seps, tail: "".join(t + s for t, s in zip(tokens, seps)) + tail,
    st.lists(_TOKEN, min_size=1, max_size=4),
    st.sampled_from(list(itertools.product([",", ";", ", ,", ";;", " ; "], repeat=4))),
    st.sampled_from(["", ";", ","]),
)
_COMMENT = st.builds("//{}".format, _IN_LINE)
_SOUP_LINE = st.one_of(_DIRECTIVE, _ENTRY_LINE, _ENTRY_LINE, _COMMENT, st.just(""))
_SKELETON = ["#CLASS 1 C", "#SECTION 1 S", "#HEAD 1 H", "#PARA N"]
_BODY = st.one_of(_ENTRY_LINE, _COMMENT, st.just(""))

# entries that never open a group with "#" or "//" and refs that always parse;
# some need JSON escapes (a quote, a backslash, control characters) and one is
# a lemma of the decrement.lex fixture
_WORDS = [
    "word", "Two  Words", "x-y", "caf\u00e9", "a#b", " spaced ",
    'say "so"', "back\\slash", "bell\x07\x1b", "decrement",
]
_GOOD_REFS = [f"@{head} {word}" for head in ("1", "2", "42") for word in _WORDS]
_GOOD_ENTRY = st.sampled_from([
    " ".join([word, *refs])
    for word in _WORDS
    for refs in [(), *itertools.product(_GOOD_REFS), *itertools.product(_GOOD_REFS, repeat=2)]
])
_GOOD_GROUP_LINE = st.builds(
    lambda entries, end: ", ".join(entries) + end,
    st.lists(_GOOD_ENTRY, min_size=1, max_size=3),
    st.sampled_from([";", ";", "; ;", ","]),
)
_GOOD_BODY = st.one_of(_GOOD_GROUP_LINE, _COMMENT, st.just(""))
_CLASS_SETS = st.sampled_from([
    *itertools.combinations(range(1, 9), 1), *itertools.combinations(range(1, 9), 2)
])
_POS_TAGS = ["N", "adj", "VB", "ADV", "INT"]
# per head: the step to its number, its name, and the tags of its paragraphs
_HEAD_OPENING = st.sampled_from(list(itertools.product(
    range(1, 4), _WORDS, [*itertools.product(_POS_TAGS), *itertools.product(_POS_TAGS, repeat=2)]
)))


@st.composite
def _well_formed(draw) -> list[str]:
    """Ascending classes, sections and heads, each holding at least one
    child, down to paragraphs that open with a whole group."""
    lines = []
    head = 0
    for cls in draw(_CLASS_SETS):
        lines.append(f"#CLASS {cls} Class {cls}")
        for section in range(1, draw(st.integers(1, 2)) + 1):
            lines.append(f"#SECTION {section} S")
            for _ in range(draw(st.integers(1, 2))):
                step, name, tags = draw(_HEAD_OPENING)
                head += step
                lines.append(f"#HEAD {head} {name}")
                for pos in tags:
                    lines.append(f"#PARA {pos}")
                    lines.append(draw(_GOOD_GROUP_LINE))
                    lines += draw(st.lists(_GOOD_BODY, max_size=2))
    return lines


@st.composite
def line_soups(draw) -> str:
    """One of: any mix of directives with good and bad payloads, entry lines
    of arbitrary token text, comments and blank lines; a well-formed opening
    followed by entry lines, comments and blank lines only; or a well-formed
    document, which parses to a knowledge base (with warnings at most)."""
    kind = draw(st.sampled_from(["soup", "opening", "document"]))
    if kind == "soup":
        lines = draw(st.lists(_SOUP_LINE, max_size=24))
    elif kind == "opening":
        lines = _SKELETON + draw(st.lists(_BODY, max_size=6))
    else:
        lines = draw(_well_formed())
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


# -- canonical sources and single edits of them -----------------------------------

_EDITS = ["space", "upper", "break", "semicolon", "swap", "repeat", "para", "ref"]


@st.composite
def canonical_sources(draw, edited: bool = True) -> str:
    """``serialize_kb`` of a well-formed document, as it is or, when
    ``edited``, maybe with one edit: a doubled space, a letter in upper
    case, a "\\r", "\\x85" or "\\u2028", a dropped ";", two head numbers
    swapped, a head number repeated, an empty "#PARA", or a "@0" or bare
    "@" reference. An edit that finds no place to act leaves the text as
    it is."""
    text = serialize_kb(parse_source("\n".join(draw(_well_formed()))).kb)
    edit = draw(st.sampled_from([None, *_EDITS])) if edited else None
    if edit in ("swap", "repeat"):
        heads = list(re.finditer(r"#HEAD ([0-9]+)", text))
        if len(heads) < 2:
            return text
        i = draw(st.integers(1, len(heads) - 1))
        a, b = heads[draw(st.integers(0, i - 1))], heads[i]
        first, second = (b[1], a[1]) if edit == "swap" else (a[1], a[1])
        return text[:a.start(1)] + first + text[a.end(1):b.start(1)] + second + text[b.end(1):]
    if edit == "break":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(["\r", "\x85", "\u2028"])) + text[at:]
    if edit is None:
        return text
    pattern, new = {
        "space": (" ", lambda m: "  "),
        "upper": ("[a-z]", lambda m: m[0].upper()),
        "semicolon": (";", lambda m: ""),
        "para": ("\n(?=#|\\Z)", lambda m: "\n#PARA N\n"),
        "ref": ("[,;]", lambda m: draw(st.sampled_from([" @0 x", " @"])) + m[0]),
    }[edit]
    found = list(re.finditer(pattern, text))
    if not found:
        return text
    match = draw(st.sampled_from(found))
    return text[:match.start()] + new(match) + text[match.end():]


# names a canonical directive may carry that read like a group line's
# references, separators and terminator; head 7 may or may not be declared
_GROUP_LIKE_NAMES = ["a @7 x", "a, b", "a; b", "Y @7 x, z; w", "@7 x;", "@99999 q @7 r"]


@st.composite
def group_like_names(draw) -> str:
    """A canonical source with one class, section or head renamed to a
    name holding ``" @7 x"``, ``", "`` or ``";"``: still canonical."""
    text = draw(canonical_sources(edited=False))
    names = list(re.finditer(r"^#(?:CLASS|SECTION|HEAD) [0-9]+ ([^\n]*)", text, re.MULTILINE))
    match = draw(st.sampled_from(names))
    return text[:match.start(1)] + draw(st.sampled_from(_GROUP_LIKE_NAMES)) + text[match.end(1):]


# -- lexicon interchange documents ----------------------------------------------

_SYN_IDS = ["a.n.1", "b.n.1", "c.v.1", "A.n.1", "d.a.1"]
# "\u0131nt" (dotless i) upper-cases to "INT"; "\u0130nt" (dotted capital I) does not
_GOOD_POS = ["N", "n", "adj", "VB", "Adv", "INT", "\u0131nt"]
_BAD_POS = ["Q", "NOUN", "\u0130nt", "N.", "-"]
# "\u00a0" and "\u2003" are whitespace to str.split; "\u0130" lower-cases to two characters
_GOOD_FIELDS = [
    "alpha", "Alpha ; beta;alpha ", "Two  Words;x-y", "caf\u00e9;CAF\u00c9", "a\u00a0b",
    "\u0130stanbul;ss;\u00df", "x;;y;", ";lone", "it's\u2003so",
]
_BLANK_FIELDS = [";", " ; ;", ";\u00a0;", "\u2003;"]
_GLOSSES = ["", " | a gloss", "|", " | x | y", "|   ", "|gloss|"]
_GOOD_RELATIONS = [
    "synonym", "hypernym", "hyponym", "meronym", "also-see", "HYPERNYM", "Hyponym",
    "ALSO-SEE", "Similar", "participle",
]
# "s\u0131milar" keeps its dotless i and "\u017fimilar" its long s when lower-cased
_BAD_RELATIONS = ["friend-of", "hyponyms", "s\u0131milar", "\u017fimilar", "also_see", "-"]
_ENDPOINTS = [*_SYN_IDS, "ghost.n.1"]

_GOOD_SYN = st.sampled_from([
    f"SYN {{}} {pos} {field}{gloss}"
    for pos in _GOOD_POS for field in _GOOD_FIELDS for gloss in _GLOSSES
])
_GOOD_REL = st.sampled_from([f"REL {rel} {{}} {{}}" for rel in _GOOD_RELATIONS])
# one draw per kind of fault, so no kind is crowded out by a longer list
_FAULTY = st.one_of(
    st.sampled_from([f"SYN {syn_id} {pos} alpha" for syn_id in _SYN_IDS for pos in _BAD_POS]),
    st.sampled_from([
        f"SYN {syn_id} N {field}{gloss}"
        for syn_id in _SYN_IDS for field in _BLANK_FIELDS for gloss in _GLOSSES
    ]),
    st.sampled_from([f"REL {rel} a.n.1 b.n.1" for rel in _BAD_RELATIONS]),
    st.sampled_from([
        f"REL {rel} {src} {dst}"
        for rel in ("hypernym", "hyponym") for src in _ENDPOINTS for dst in _ENDPOINTS
    ]),
    st.sampled_from([
        "SYN", "SYN a.n.1", "SYN a.n.1 N", "SYN a.n.1 N | gloss only", "SYN\ta.n.1 N a",
        "syn a.n.1 N a", "REL", "REL hypernym a.n.1", "REL hypernym a.n.1 b.n.1 c.v.1",
        "BOGUS x", "#SYN a.n.1 N a", "/ not a comment",
    ]),
)
_LEXICON_NOISE = st.one_of(
    st.builds("//{}".format, _IN_LINE), st.sampled_from(["", "   ", "\t// indented"])
)
_LEXICON_LINE_ENDS = ["\n", "\r\n", "\r", "\x85", "\u2028"]


def _keyed_syn(tag: str, field: str):
    """The SYN record, given its id, that holds ``field`` under ``tag``. It
    is built without ``str.format``, since a word may hold "{" or "}"."""
    return lambda syn_id: f"SYN {syn_id} {tag} {field}"


@st.composite
def _valid_records(draw, words: tuple[str, ...], tags: tuple[str, ...]) -> list[str]:
    """A SYN record for each of some distinct ids and REL records between
    them, in any order, so edges may refer forward; comments and blank
    lines in between. Given ``words`` and ``tags``, a record may hold some
    of the words under one of the tags."""
    syn = _GOOD_SYN.map(lambda template: template.format)
    if words:
        syn = st.one_of(syn, st.builds(
            _keyed_syn, st.sampled_from(tags),
            st.lists(st.sampled_from(words), min_size=1, max_size=2).map(";".join),
        ))
    ids = draw(st.lists(st.sampled_from(_SYN_IDS), min_size=1, unique=True))
    lines = [draw(syn)(syn_id) for syn_id in ids]
    for _ in range(draw(st.integers(0, 4))):
        pair = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        lines.append(draw(_GOOD_REL).format(*pair))
    lines += draw(st.lists(_LEXICON_NOISE, max_size=3))
    return draw(st.permutations(lines))


@st.composite
def lexicon_soups(draw, words: tuple[str, ...] = (), tags: tuple[str, ...] = ()) -> str:
    """One of: a valid document; a valid document followed by records
    that are cut short, repeat an earlier line, or carry a mistyped token,
    an unknown id or a malformed shape, or with edges to undeclared ids
    slipped in anywhere; or a soup of all of these lines. Given ``words``
    and the part-of-speech ``tags`` of the paragraphs that hold them, the
    valid records may take their lemmas and tags from them, and a valid
    document may hold the first two words under the first tag, in two
    synsets, the first word's the hyponym."""
    kind = draw(st.sampled_from([*["keyed"] * 3 * bool(words), "valid", "damaged", "soup"]))
    if kind == "keyed":
        lines = [f"SYN k.n.1 {tags[0]} {words[0]}",
                 f"SYN h.n.1 {tags[0]} {words[min(1, len(words) - 1)]}",
                 "REL hypernym k.n.1 h.n.1"]
    elif kind == "soup":
        line = st.one_of(_GOOD_SYN.map(lambda r: r.format("a.n.1")), _FAULTY, _LEXICON_NOISE,
                         _GOOD_REL.map(lambda r: r.format("a.n.1", "b.n.1")))
        lines = draw(st.lists(line, max_size=12))
    else:
        lines = draw(_valid_records(words, tags))
        if kind == "damaged":
            for _ in range(draw(st.integers(1, 3))):
                fault = draw(st.sampled_from(["cut", "repeat", "faulty", "dangling"]))
                if fault == "faulty":
                    lines.append(draw(_FAULTY))
                elif fault == "dangling":
                    # an edge to an id that no record declares, anywhere in the file
                    ends = draw(st.permutations([draw(st.sampled_from(_ENDPOINTS)), "ghost.n.1"]))
                    lines.insert(draw(st.integers(0, len(lines))), draw(_GOOD_REL).format(*ends))
                else:
                    earlier = draw(st.sampled_from(lines))
                    cut = draw(st.integers(0, len(earlier))) if fault == "cut" else None
                    lines.append(earlier[:cut])
    text = draw(st.sampled_from(_LEXICON_LINE_ENDS)).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


# -- strict-form lexicons and single edits of them ---------------------------------

# Ids free of whitespace and "|", and lemmas already normalized: single-spaced,
# lower case, free of ";" and "|". "\u00df", the dotless "\u0131" and the
# final sigma are their own lower case, though not their upper case's.
_STRICT_IDS = ["a.n.1", "b.n.1", "c.v.1", "A.n.1", "d;a.1", "\u00e9.r.2", "s/7"]
_STRICT_LEMMAS = ["alpha", "beta", "two words", "x-y", "it's", "caf\u00e9", "stra\u00dfe",
                  "\u03c3\u03bf\u03c6\u03bf\u03c2", "\u0131", "a b c"]
_STRICT_GLOSSES = ["", " |", " | a gloss", " |x | y", " |  Padded \t", " |\u00a0\u2003",
                   " |SYN a.n.1 N x"]
_STRICT_SYN = st.sampled_from([
    f"SYN {{}} {tag} {';'.join(lemmas)}{gloss}"
    for tag in ("N", "ADJ", "VB", "ADV", "INT")
    for n in (1, 2) for lemmas in itertools.product(_STRICT_LEMMAS, repeat=n)
    for gloss in _STRICT_GLOSSES
])
_STRICT_REL = st.sampled_from([
    f"REL {rel.value} {{}} {{}}"
    for rel in (RelationType.HYPERNYM, RelationType.HYPONYM, *RelationType)
])
_STRICT_COMMENTS = ["//", "// a comment", "//\tTabbed Upper", "//SYN a.n.1 n Alpha", "// |;"]
_LEXICON_EDITS = ["crlf", "space", "upper", "tag", "blank", "duplicate", "dangling", "cut"]


@st.composite
def strict_lexicons(draw, edited: bool = False) -> str:
    """A lexicon in the strict form that ``lexnet`` proves: SYN records
    for some distinct ids, REL records between them and comments, in any
    order, so edges may refer forward, each line ending in "\n". When
    ``edited``, with one edit that takes it out of that form: CRLF line
    ends, a doubled space between fields or inside a lemma, a letter of a
    lemma in upper case, a tag in lower case, a blank line, a second record
    of a declared id, an edge to an undeclared id, or a record cut short
    before its last field."""
    ids = draw(st.lists(st.sampled_from(_STRICT_IDS), min_size=1, unique=True))
    lines = [draw(_STRICT_SYN).format(syn_id) for syn_id in ids]
    for _ in range(draw(st.integers(0, 6))):
        pair = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        lines.append(draw(_STRICT_REL).format(*pair))
    lines += draw(st.lists(st.sampled_from(_STRICT_COMMENTS), max_size=2))
    lines = draw(st.permutations(lines))
    if not edited:
        return "".join(line + "\n" for line in lines)
    edit = draw(st.sampled_from(_LEXICON_EDITS))
    records = [i for i, line in enumerate(lines) if not line.startswith("//")]
    at = draw(st.sampled_from([i for i in records if lines[i].startswith("SYN")]
                              if edit in ("upper", "tag") else records))
    line = lines[at]
    # where the lemma field of a SYN record, or the last field of a REL record,
    # starts and ends
    fields = line.split(" ", 3)
    start = len(line.rsplit(" ", 1)[0] if fields[0] == "REL" else " ".join(fields[:3])) + 1
    end = (line + " |").index(" |")
    if edit == "space":
        i = draw(st.sampled_from([i for i, ch in enumerate(line[:end + 1]) if ch == " "]))
        lines[at] = line[:i] + " " + line[i:]
    elif edit == "upper":
        i = draw(st.sampled_from([i for i in range(start, end) if line[i].islower()]))
        lines[at] = line[:i] + line[i].upper() + line[i + 1:]
    elif edit == "tag":
        lines[at] = " ".join([*fields[:2], fields[2].lower(), fields[3]])
    elif edit == "blank":
        lines.insert(draw(st.integers(0, len(lines))), "")
    elif edit == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(_STRICT_SYN).format(draw(st.sampled_from(ids))))
    elif edit == "dangling":
        ends = draw(st.permutations([draw(st.sampled_from(ids)), "ghost.n.1"]))
        lines.insert(draw(st.integers(0, len(lines))), draw(_STRICT_REL).format(*ends))
    elif edit == "cut":
        lines[at] = line[:draw(st.integers(0, start))]
    text = "".join(line + "\n" for line in lines)
    return text.replace("\n", "\r\n") if edit == "crlf" else text


# -- bundles signed over their own texts ------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def widest_paragraph(kb):
    """The address and paragraph of ``kb``'s first paragraph with the most
    semicolon groups."""
    return max(walk_paragraphs(kb), key=lambda found: len(found[1].groups))


@st.composite
def signed_bundles(draw) -> str:
    """Bundle JSON holding a source soup or a canonical source (maybe
    edited) and, three times in four, a lexicon soup, both as drawn, with
    the checksums a bundle records for them: sha256 of the UTF-8 text,
    where an empty source checksums a single line break. The lexicon's
    valid records may take their lemmas from the keyword's group in the
    source's widest paragraph, so that the paragraph can be labelled by
    relation. The JSON itself is laid out as ``build`` writes it or on one
    line, with non-ASCII characters raw or escaped."""
    source = draw(st.one_of(line_soups(), canonical_sources()))
    kb = parse_source(source).kb
    para = widest_paragraph(kb)[1] if kb is not None and kb.classes else None
    words = tuple(dict.fromkeys(entry.text for entry in para.groups[0].entries)) if para else ()
    tags = (para.pos.value,) if para else ()
    with_lexicon = draw(st.sampled_from([True, True, True, False]))
    lexicon = draw(lexicon_soups(words, tags)) if with_lexicon else None
    document = {
        "format": "rogetkb-bundle",
        "version": 1,
        "meta": {
            "sourceChecksum": _sha256(source or "\n"),
            "lexChecksum": None if lexicon is None else _sha256(lexicon),
            "diagnostics": {"errors": 0, "warnings": 0},
        },
        "source": source,
        "lexicon": lexicon,
    }
    indent = draw(st.sampled_from([2, None]))
    return json.dumps(document, indent=indent, ensure_ascii=draw(st.booleans())) + "\n"
