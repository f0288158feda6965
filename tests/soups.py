"""Hypothesis strategy for source documents of arbitrary line soup.

Shared by the parser's consistency property, the index oracle property,
the bundle round-trip property and the CLI fuzz test.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

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
