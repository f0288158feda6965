"""Hypothesis strategy for source documents of arbitrary line soup.

Shared by the parser's consistency property, the index oracle property,
the bundle round-trip property and the CLI fuzz test.
"""

from __future__ import annotations

from hypothesis import strategies as st

# str.splitlines breaks a line at each of these; an entry token never holds one
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_IN_LINE = st.text(
    st.characters(codec="utf-8", exclude_characters=_LINE_BREAKS), max_size=8
)
# "\u00b2" is a digit to str.isdigit but no number to int; 5,000 digits are
# past Python's default limit on int-string conversion
_NUMBERS = st.sampled_from(["0", "1", "8", "9", "\u00b2", "x", "", "7" * 5000])
_DIRECTIVE = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["#CLASS", "#SECTION", "#HEAD"]),
        _NUMBERS,
        st.sampled_from(["", "Name", "Two  Words"]),
    ),
    st.builds("#PARA {}".format, st.sampled_from(["N", "adj", "VB", "ADV", "INT", "XYZ", ""])),
    st.sampled_from(["#FOO", "#", "#FOO 1 Name"]),
)
_TEXT = st.one_of(_IN_LINE, st.sampled_from(["word", "Two  Words", "#z", "//c", " "]))
_REF = st.builds("@{} {}".format, st.one_of(st.just("42"), _NUMBERS), _TEXT)
_TOKEN = st.one_of(
    _TEXT, st.builds(lambda text, refs: " ".join([text, *refs]), _TEXT, st.lists(_REF, max_size=2))
)
_ENTRY_LINE = st.builds(
    lambda tokens, seps, tail: "".join(t + s for t, s in zip(tokens, seps)) + tail,
    st.lists(_TOKEN, min_size=1, max_size=4),
    st.lists(st.sampled_from([",", ";", ", ,", ";;", " ; "]), min_size=4, max_size=4),
    st.sampled_from(["", ";", ","]),
)
_COMMENT = st.builds("//{}".format, _IN_LINE)
_SOUP_LINE = st.one_of(_DIRECTIVE, _ENTRY_LINE, _ENTRY_LINE, _COMMENT, st.just(""))
_SKELETON = ["#CLASS 1 C", "#SECTION 1 S", "#HEAD 1 H", "#PARA N"]
_BODY = st.one_of(_ENTRY_LINE, _COMMENT, st.just(""))

# entries that never open a group with "#" or "//" and refs that always parse;
# some need JSON escapes (a quote, a backslash, control characters) and one is
# a lemma of the decrement.lex fixture
_WORD = st.sampled_from([
    "word", "Two  Words", "x-y", "caf\u00e9", "a#b", " spaced ",
    'say "so"', "back\\slash", "bell\x07\x1b", "decrement",
])
_GOOD_ENTRY = st.builds(
    lambda text, refs: " ".join([text, *refs]),
    _WORD,
    st.lists(st.builds("@{} {}".format, st.sampled_from(["1", "2", "42"]), _WORD), max_size=2),
)
_GOOD_GROUP_LINE = st.builds(
    lambda entries, end: ", ".join(entries) + end,
    st.lists(_GOOD_ENTRY, min_size=1, max_size=3),
    st.sampled_from([";", ";", "; ;", ","]),
)
_GOOD_BODY = st.one_of(_GOOD_GROUP_LINE, _COMMENT, st.just(""))


@st.composite
def _well_formed(draw) -> list[str]:
    """Ascending classes, sections and heads, each holding at least one
    child, down to paragraphs that open with a whole group."""
    lines = []
    head = 0
    for cls in sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=2))):
        lines.append(f"#CLASS {cls} Class {cls}")
        for section in range(1, draw(st.integers(1, 2)) + 1):
            lines.append(f"#SECTION {section} S")
            for _ in range(draw(st.integers(1, 2))):
                head += draw(st.integers(1, 3))
                lines.append(f"#HEAD {head} {draw(_WORD)}")
                for pos in draw(st.lists(st.sampled_from(["N", "adj", "VB", "ADV", "INT"]),
                                         min_size=1, max_size=2)):
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
