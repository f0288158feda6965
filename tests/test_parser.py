from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpusgen import fixture_text, generate
from oracles import (
    count_entry_tokens, errors, full_corpus_problems, reference_parse_source, walk_entries,
    walk_paragraphs, warnings,
)
from soups import canonical_sources, line_soups
from rogetkb.model import CrossReference, PartOfSpeech
from rogetkb.parser import (
    _canonical_kb,
    canonical_heads,
    parse_cross_ref,
    parse_source,
    serialize_kb,
)


def parse_ok(text: str):
    result = parse_source(text)
    assert result.kb is not None, [str(d) for d in errors(result)]
    return result.kb


MINIMAL = "#CLASS 1 One\n#SECTION 1 First\n#HEAD 1 Start\n#PARA N\nword;\n"


def doc(*entry_lines: str) -> str:
    return MINIMAL.replace("word;\n", "\n".join(entry_lines) + "\n")


class TestBasics:
    def test_minimal_document(self):
        result = parse_source(MINIMAL)
        assert result.diagnostics == ()
        total = result.kb.count_nodes()
        assert (total.sections, total.heads, total.paragraphs) == (1, 1, 1)
        assert (total.groups, total.entries) == (1, 1)

    def test_head42_fixture(self, kb42):
        total = kb42.count_nodes()
        assert total.groups == 11
        assert total.entries == 27
        refs = sum(len(e.cross_refs) for _, e in walk_entries(kb42))
        assert refs == 10

    def test_head42_dangling_refs_warn_but_build(self):
        result = parse_source(fixture_text("head42.roget"))
        assert result.kb is not None
        assert errors(result) == ()
        assert len(warnings(result)) == 10
        assert all("unknown head" in d.message for d in warnings(result))

    def test_two_class_fixture(self, kb2):
        total = kb2.count_nodes()
        assert (total.sections, total.heads, total.paragraphs) == (3, 5, 12)
        assert (total.groups, total.entries) == (18, 39)

    def test_two_class_forward_ref_resolves_dangling_warns(self):
        result = parse_source(fixture_text("two_class.roget"))
        assert [str(d) for d in warnings(result)] == [
            "38:warning: cross-reference to unknown head 999"
        ]

    def test_entries_normalized(self):
        kb = parse_ok(doc("WORD,  Second   Word ;"))
        texts = [e.text for _, e in walk_entries(kb)]
        assert texts == ["word", "second word"]

    def test_comments_and_blank_lines_ignored(self):
        kb = parse_ok("// top\n\n" + MINIMAL + "\n// tail\n")
        assert kb.count_nodes().entries == 1


class TestGroupsAndRefs:
    def test_group_spans_lines_newline_separates_entries(self):
        kb = parse_ok(doc("alpha, beta,", "gamma", "delta;"))
        para = kb.classes[0].sections[0].heads[0].paragraphs[0]
        assert len(para.groups) == 1
        assert [e.text for e in para.groups[0].entries] == [
            "alpha", "beta", "gamma", "delta",
        ]

    def test_several_groups_on_one_line(self):
        kb = parse_ok(doc("a, b; c; d, e;"))
        para = kb.classes[0].sections[0].heads[0].paragraphs[0]
        assert [len(g.entries) for g in para.groups] == [2, 1, 2]

    def test_inline_ref(self):
        kb = parse_ok(doc("cut @37 diminution;"))
        (entry,) = [e for _, e in walk_entries(kb)]
        assert entry.text == "cut"
        assert entry.cross_refs == (CrossReference(37, "diminution"),)

    def test_bare_comma_ref_attaches_to_previous_entry(self):
        kb = parse_ok(doc("rebate, @810 discount;"))
        (entry,) = [e for _, e in walk_entries(kb)]
        assert entry.text == "rebate"
        assert entry.cross_refs == (CrossReference(810, "discount"),)

    def test_two_refs_on_one_entry(self):
        kb = parse_ok(doc("defect @307 shortfall, @636 insufficiency;"))
        (entry,) = [e for _, e in walk_entries(kb)]
        assert entry.cross_refs == (
            CrossReference(307, "shortfall"),
            CrossReference(636, "insufficiency"),
        )

    def test_two_refs_without_comma(self):
        kb = parse_ok(doc("defect @307 shortfall @636 insufficiency;"))
        (entry,) = [e for _, e in walk_entries(kb)]
        assert len(entry.cross_refs) == 2

    def test_ref_keyword_normalized(self):
        kb = parse_ok(doc("cut @37  Large  Cut ;"))
        (entry,) = [e for _, e in walk_entries(kb)]
        assert entry.cross_refs == (CrossReference(37, "large cut"),)


def errors_of(text: str) -> list[str]:
    result = parse_source(text)
    assert result.kb is None
    return [d.message for d in errors(result)]


class TestErrors:
    def test_entry_line_outside_paragraph(self):
        msgs = errors_of("#CLASS 1 One\n#SECTION 1 S\n#HEAD 1 H\nword;\n")
        assert "semicolon group outside paragraph" in msgs

    def test_unknown_directive(self):
        assert "unknown directive '#FOO'" in errors_of(MINIMAL + "#FOO bar\n")

    def test_class_number_range(self):
        assert "class number 9 outside 1..8" in errors_of(
            MINIMAL.replace("#CLASS 1", "#CLASS 9")
        )

    def test_class_numbers_must_ascend(self):
        text = MINIMAL + MINIMAL  # repeats class 1
        assert "class number 1 not ascending" in errors_of(text)

    def test_section_numbers_ascend_within_class(self):
        text = MINIMAL + "#SECTION 1 Again\n#HEAD 2 H\n#PARA N\nx;\n"
        assert "section number 1 not ascending" in errors_of(text)

    def test_head_numbers_ascend_globally(self):
        text = (
            MINIMAL
            + "#CLASS 2 Two\n#SECTION 1 S\n#HEAD 1 Duplicate\n#PARA N\nx;\n"
        )
        assert "head number 1 not ascending" in errors_of(text)

    def test_orphan_directives(self):
        assert "section outside class" in errors_of("#SECTION 1 S\n")
        assert "head outside section" in errors_of("#CLASS 1 C\n#HEAD 1 H\n")
        assert "paragraph outside head" in errors_of(
            "#CLASS 1 C\n#SECTION 1 S\n#PARA N\n"
        )

    def test_empty_containers(self):
        assert "paragraph has no semicolon groups" in errors_of(
            "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA N\n"
        )
        assert "head 1 has no paragraphs" in errors_of(
            "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n"
        )
        assert "section 1 has no heads" in errors_of("#CLASS 1 C\n#SECTION 1 S\n")
        assert "class 1 has no sections" in errors_of("#CLASS 1 C\n")

    def test_empty_paragraph_error_cites_para_line(self):
        result = parse_source("#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA N\n")
        (diag,) = [d for d in errors(result) if "semicolon" in d.message]
        assert diag.line == 4

    def test_malformed_directive_payloads(self):
        assert "class number '' is not a positive integer" in errors_of("#CLASS\n")
        assert "class has no name" in errors_of("#CLASS 1\n")
        assert "unknown part of speech 'XYZ'" in errors_of(
            "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA XYZ\nx;\n"
        )

    def test_bad_ref_number(self):
        assert "bad cross-reference head number 'abc'" in errors_of(
            doc("cut @abc diminution;")
        )
        # a token of only a bad ref is reported once, not also as an empty entry
        assert [str(d) for d in parse_source(doc("cut, @abc diminution;")).diagnostics] == [
            "5:error: bad cross-reference head number 'abc'"
        ]

    def test_non_decimal_digits_are_not_numbers(self):
        # "\u00b2" (superscript two) is a digit to str.isdigit but no number to int
        assert errors_of("#CLASS \u00b2 C\n") == ["class number '\u00b2' is not a positive integer"]
        assert errors_of(doc("cut @\u00b2 diminution;")) == [
            "bad cross-reference head number '\u00b2'"
        ]

    def test_numbers_past_the_digit_limit_are_not_numbers(self):
        # 5,000 digits are past Python's default limit on int-string conversion
        long = "7" * 5000
        assert [str(d) for d in errors(parse_source(f"#CLASS {long} C\n"))] == [
            f"1:error: class number '{long}' is not a positive integer"
        ]
        assert f"2:error: section number '{long}' is not a positive integer" in [
            str(d) for d in errors(parse_source(f"#CLASS 1 C\n#SECTION {long} S\n"))
        ]
        assert f"3:error: head number '{long}' is not a positive integer" in [
            str(d) for d in errors(parse_source(f"#CLASS 1 C\n#SECTION 1 S\n#HEAD {long} H\n"))
        ]
        assert [str(d) for d in parse_source(doc(f"cut @{long} diminution;")).diagnostics] == [
            f"5:error: bad cross-reference head number '{long}'"
        ]

    def test_numbers_up_to_the_digit_limit_parse(self):
        long = "7" * 4300
        kb = parse_ok(f"#CLASS 1 C\n#SECTION 1 S\n#HEAD {long} H\n#PARA N\nx @{long} y;\n")
        (_, _, head), = kb.walk_heads()
        assert head.number == int(long)
        assert head.paragraphs[0].groups[0].entries[0].cross_refs[0].head_num == int(long)
        assert parse_source(serialize_kb(kb)).kb == kb

    def test_ref_without_keyword(self):
        assert "cross-reference is missing its keyword" in errors_of(doc("cut @37;"))

    def test_leading_ref_has_no_entry(self):
        assert "cross-reference with no entry to attach to" in errors_of(
            doc("@37 diminution, cut;")
        )

    @pytest.mark.parametrize("line, entry", [("x; #z;", "#z"), ("x;//b;", "//b")])
    def test_group_cannot_open_with_directive_or_comment(self, line, entry):
        # the canonical form starts each group on its own line, where this
        # entry would re-read as a directive or a comment
        assert f"semicolon group cannot start with {entry!r}" in errors_of(doc(line))

    def test_kb_is_none_iff_errors(self):
        bad = parse_source(doc("@1;"))
        assert bad.kb is None and errors(bad)
        good = parse_source(MINIMAL)
        assert good.kb is not None and not errors(good)


class TestWarnings:
    def warnings_of(self, text: str) -> list[str]:
        result = parse_source(text)
        assert result.kb is not None
        return [d.message for d in warnings(result)]

    def test_unterminated_group_at_eof(self):
        msgs = self.warnings_of(doc("stray, pair"))
        assert msgs == ["semicolon group not terminated by ';'"]
        kb = parse_ok(doc("stray, pair"))
        assert kb.count_nodes().entries == 2

    def test_unterminated_group_at_directive(self):
        text = doc("first") + "#PARA VB\nsecond;\n"
        assert "semicolon group not terminated by ';'" in self.warnings_of(text)
        kb = parse_ok(text)
        assert kb.count_nodes().groups == 2

    def test_empty_entry_skipped(self):
        # a lone "@" starts no cross-reference and leaves no entry text
        for line in ("a, , b;", "a, @, b;"):
            msgs = self.warnings_of(doc(line))
            assert msgs == ["empty entry skipped"]
            kb = parse_ok(doc(line))
            assert kb.count_nodes().entries == 2

    def test_empty_group_skipped(self):
        msgs = self.warnings_of(doc("a; ; b;"))
        assert msgs == ["empty semicolon group skipped"]
        kb = parse_ok(doc("a; ; b;"))
        assert kb.count_nodes().groups == 2

    def test_dangling_ref_line_number(self):
        text = doc("a @77 other;")
        result = parse_source(text)
        (diag,) = warnings(result)
        assert str(diag) == "5:warning: cross-reference to unknown head 77"


def test_diagnostic_lines_point_into_input():
    corpus = generate(3, n_classes=2).text
    broken = corpus + "#FOO\n@9\n;;\n"
    result = parse_source(broken)
    n_lines = broken.count("\n")
    assert result.diagnostics
    for diag in result.diagnostics:
        assert 1 <= diag.line <= n_lines
        assert re.fullmatch(r"\d+:(error|warning): .+", str(diag))


def diagnostics_of(*lines: str) -> list[str]:
    return [str(d) for d in parse_source("\n".join(lines)).diagnostics]


PARA_1 = ("#CLASS 1 C", "#SECTION 1 S", "#HEAD 1 H", "#PARA N", "x;")


class TestConstructEdges:
    """Full diagnostics, line numbers included, for how directives open and
    close the class/section/head/paragraph levels."""

    def test_first_section_of_a_class_may_not_be_zero(self):
        # section numbers are positive, as Address requires
        assert diagnostics_of("#CLASS 1 C", "#SECTION 0 S", *PARA_1[2:]) == [
            "2:error: section number '0' is not a positive integer",
            "3:error: head outside section",
            "4:error: paragraph outside head",
            "5:error: semicolon group outside paragraph",
            "5:error: class 1 has no sections",
        ]

    def test_first_head_and_class_may_not_be_zero(self):
        # zero breaks "positive" at every level, not "ascending" or "1..8"
        assert diagnostics_of(*PARA_1[:2], "#HEAD 0 H", *PARA_1[3:]) == [
            "3:error: head number '0' is not a positive integer",
            "4:error: paragraph outside head",
            "5:error: semicolon group outside paragraph",
            "5:error: section 1 has no heads",
            "5:error: class 1 has no sections",
        ]
        assert diagnostics_of("#CLASS 0 C", *PARA_1[1:]) == [
            "1:error: class number '0' is not a positive integer",
            "2:error: section outside class",
            "3:error: head outside section",
            "4:error: paragraph outside head",
            "5:error: semicolon group outside paragraph",
        ]

    def test_empty_class_and_section_cite_the_closing_directive(self):
        assert diagnostics_of(
            "#CLASS 1 C", "#SECTION 1 S", "// note", "#CLASS 2 D", *PARA_1[1:]
        ) == ["4:error: section 1 has no heads", "4:error: class 1 has no sections"]

    def test_empty_class_and_section_cite_the_last_line(self):
        # the line after a final newline counts as the last line
        assert diagnostics_of("#CLASS 1 C", "#SECTION 1 S") == [
            "2:error: section 1 has no heads", "2:error: class 1 has no sections",
        ]
        assert diagnostics_of("#CLASS 1 C", "#SECTION 1 S", "") == [
            "3:error: section 1 has no heads", "3:error: class 1 has no sections",
        ]

    def test_carriage_return_line_ends_number_the_last_line_alike(self):
        assert diagnostics_of(
            "#CLASS 1 C\r#SECTION 1 S\r#HEAD 1 H\r#PARA N\r\r\r#CLASS 2 D"
        )[-1] == "7:error: class 2 has no sections"
        assert diagnostics_of("#CLASS 1 C\r#SECTION 1 S\r")[-1] == "3:error: class 1 has no sections"

    def test_empty_head_and_paragraph_cite_their_own_directive(self):
        assert diagnostics_of(
            "#CLASS 1 C", "#SECTION 1 S", "#HEAD 1 H", "#HEAD 2 I", "#PARA N", "#PARA VB", "x;"
        ) == ["3:error: head 1 has no paragraphs", "5:error: paragraph has no semicolon groups"]

    def test_levels_close_innermost_first_at_the_end(self):
        assert diagnostics_of("#CLASS 1 C", "#SECTION 1 S", "#HEAD 1 H", "#PARA N", "", "", "") == [
            "4:error: paragraph has no semicolon groups",
            "3:error: head 1 has no paragraphs",
            "7:error: section 1 has no heads",
            "7:error: class 1 has no sections",
        ]

    def test_unknown_directive_closes_nothing(self):
        text = "\n".join(PARA_1[:-1] + ("x", "#FOO bar", "y;"))
        result = parse_source(text)
        assert [str(d) for d in result.diagnostics] == ["6:error: unknown directive '#FOO'"]
        # the open group carried on across the unknown directive
        assert parse_source(text.replace("#FOO bar\n", "")).diagnostics == ()

    @pytest.mark.parametrize("rejected, deeper, expected", [
        ("#CLASS 9 Nine", "#SECTION 1 T",
         ["6:error: class number 9 outside 1..8", "7:error: section outside class"]),
        ("#CLASS 1 Again", "#SECTION 1 T",
         ["6:error: class number 1 not ascending", "7:error: section outside class"]),
        ("#CLASS 2", "#SECTION 1 T",
         ["6:error: class has no name", "7:error: section outside class"]),
        ("#SECTION 1 Again", "#HEAD 2 I",
         ["6:error: section number 1 not ascending", "7:error: head outside section"]),
        ("#SECTION x S", "#HEAD 2 I",
         ["6:error: section number 'x' is not a positive integer",
          "7:error: head outside section"]),
        ("#HEAD 1 Again", "#PARA N",
         ["6:error: head number 1 not ascending", "7:error: paragraph outside head"]),
        ("#HEAD 2", "#PARA N",
         ["6:error: head has no name", "7:error: paragraph outside head"]),
        ("#PARA XYZ", "y;",
         ["6:error: unknown part of speech 'XYZ'",
          "7:error: semicolon group outside paragraph"]),
    ])
    def test_rejected_directive_closes_its_level_and_opens_nothing(self, rejected, deeper, expected):
        # the construct before the rejected directive is complete and kept
        assert diagnostics_of(*PARA_1, rejected, deeper) == expected

    def test_sections_ascend_against_the_last_kept_section(self):
        assert diagnostics_of("#CLASS 1 C", "#SECTION 2 Empty", *PARA_1[1:]) == [
            "3:error: section 2 has no heads",
        ]
        assert diagnostics_of(*PARA_1, "#SECTION 2 Empty", "#SECTION 1 Again") == [
            "7:error: section 2 has no heads",
            "7:error: section number 1 not ascending",
        ]

    def test_classes_and_heads_ascend_against_the_last_opened(self):
        assert diagnostics_of("#CLASS 2 Empty", *PARA_1) == [
            "2:error: class 2 has no sections",
            "2:error: class number 1 not ascending",
            "3:error: section outside class",
            "4:error: head outside section",
            "5:error: paragraph outside head",
            "6:error: semicolon group outside paragraph",
        ]
        assert diagnostics_of(*PARA_1[:2], "#HEAD 2 Empty", *PARA_1[2:]) == [
            "3:error: head 2 has no paragraphs",
            "4:error: head number 1 not ascending",
            "5:error: paragraph outside head",
            "6:error: semicolon group outside paragraph",
            "6:error: section 1 has no heads",
            "6:error: class 1 has no sections",
        ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups())
def test_any_line_soup_parses_to_a_consistent_result(text):
    result = parse_source(text)  # never raises
    assert (result.kb is None) == any(d.severity == "error" for d in result.diagnostics)
    # the line after a final line break counts, as it does in an editor:
    # a character appended to the text starts it
    last_line = len((text + "x").splitlines())
    assert all(1 <= d.line <= last_line for d in result.diagnostics)
    if result.kb is not None:
        assert parse_source(serialize_kb(result.kb)).kb == result.kb


class TestParseCrossRef:
    def test_plain(self):
        assert parse_cross_ref("@37 diminution") == CrossReference(37, "diminution")

    def test_not_a_ref(self):
        assert parse_cross_ref("diminution") is None

    def test_bad_number(self):
        with pytest.raises(ValueError):
            parse_cross_ref("@zero word")
        with pytest.raises(ValueError):
            parse_cross_ref("@0 word")

    def test_missing_keyword(self):
        with pytest.raises(ValueError):
            parse_cross_ref("@37")

    def test_multiword_keyword(self):
        assert parse_cross_ref("@12  State of  Affairs") == CrossReference(
            12, "state of affairs"
        )


class TestRoundTrip:
    def test_fixture_round_trip(self, kb42, kb2):
        for kb in (kb42, kb2):
            again = parse_ok(serialize_kb(kb))
            assert again == kb
            assert again.canonical_source() == kb.canonical_source()

    def test_canonical_is_fixed_point(self, kb2):
        once = serialize_kb(kb2)
        assert serialize_kb(parse_ok(once)) == once

    @pytest.mark.parametrize("line", ["x, #z;", "x, //b;", "x; y, #z, //b;"])
    def test_directive_or_comment_text_after_group_start_round_trips(self, line):
        kb = parse_ok(doc(line))
        assert parse_ok(serialize_kb(kb)) == kb

    def test_empty_kb_serializes_empty(self):
        from rogetkb.model import ThesaurusKB

        assert serialize_kb(ThesaurusKB(())) == ""

    def test_checksum_changes_with_content(self, kb42, tmp_path):
        from rogetkb.bundle import write_bundle

        changed = fixture_text("head42.roget").replace("toll", "tolls")
        checksum = lambda kb, name: write_bundle(tmp_path / name, kb).source_checksum
        assert checksum(parse_ok(changed), "changed.kb") != checksum(kb42, "kb42.kb")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_corpora_parse_to_ground_truth(seed):
    corpus = generate(seed)
    result = parse_source(corpus.text)
    assert result.kb is not None, [str(d) for d in errors(result)]
    assert errors(result) == ()

    total = result.kb.count_nodes()
    assert total.sections == corpus.sections
    assert total.heads == corpus.heads
    assert total.paragraphs == corpus.paragraphs
    assert total.groups == corpus.groups
    assert total.entries == corpus.entries
    assert len(result.kb.classes) == corpus.classes

    assert sum(len(e.cross_refs) for _, e in walk_entries(result.kb)) == corpus.cross_refs
    assert [h.number for _, _, h in result.kb.walk_heads()] == corpus.head_numbers
    assert [p.keyword for _, p in walk_paragraphs(result.kb)] == corpus.keywords

    # independent recount straight off the raw text
    assert count_entry_tokens(corpus.text) == corpus.entries

    # canonical serialization round-trips
    again = parse_source(serialize_kb(result.kb)).kb
    assert again == result.kb


def test_full_corpus_problems_flag_small_fixtures(kb42):
    problems = full_corpus_problems(kb42)
    assert problems
    assert any("classes" in p for p in problems)
    assert any("990" in p for p in problems)


def test_full_corpus_problems_flag_a_head_numbered_above_990():
    kb = parse_ok("#CLASS 1 C\n#SECTION 1 S\n#HEAD 991 H\n#PARA N\nx;\n")
    assert full_corpus_problems(kb) == [
        "expected classes 1..8, found [1]",
        "head numbers exceed 990 (max 991)",
        "expected 990 heads, found 1",
    ]


class TestCanonicalHeads:
    """``canonical_heads`` accepts only texts that parse with no error, and
    every canonical text that ``build`` writes; each head's pieces parse to
    that head alone."""

    @staticmethod
    def assert_sound(text: str) -> bool:
        """When the check accepts ``text``, the parse has no error, and the
        heads it lists are the parsed heads, each parsed alone from its own
        pieces. Returns whether it accepted."""
        heads = canonical_heads(text)
        if heads is None:
            return False
        result = parse_source(text)
        assert errors(result) == (), text
        whole = list(result.kb.walk_heads())
        assert [head.number for head in heads] == [head.number for _, _, head in whole]
        for head, (cls, sec, parsed) in zip(heads, whole):
            alone = parse_ok("".join(text[start:end] for start, end in head.pieces))
            assert list(alone.walk_heads()) == [(
                type(cls)(cls.number, cls.name, (type(sec)(sec.number, sec.name, (parsed,)),)),
                type(sec)(sec.number, sec.name, (parsed,)),
                parsed,
            )]
        return True

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.one_of(line_soups(), canonical_sources()))
    def test_an_accepted_text_parses_without_error(self, text):
        self.assert_sound(text)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=line_soups())
    def test_every_canonical_text_is_accepted(self, text):
        kb = parse_source(text).kb
        if kb is not None:
            assert self.assert_sound(serialize_kb(kb))

    def test_the_empty_text_is_accepted(self):
        """"" is ``serialize_kb`` of the empty KB, which has no heads."""
        assert serialize_kb(parse_ok("")) == ""
        assert canonical_heads("") == []
        assert self.assert_sound("")

    @pytest.mark.parametrize("name", ["head42.roget", "two_class.roget"])
    def test_the_fixtures_canonical_texts_are_accepted(self, name):
        text = fixture_text(name)
        assert not self.assert_sound(text)  # as written, with comments
        assert self.assert_sound(serialize_kb(parse_ok(text)))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_corpora_are_accepted_in_canonical_form_only(self, perfbench_corpus, seed):
        corpus = perfbench_corpus.generate(seed, scale=0.02)
        assert self.assert_sound(corpus.canonical)
        assert not self.assert_sound(corpus.messy)
        assert self.assert_sound(serialize_kb(parse_ok(corpus.messy)))
        messy = generate(seed).text
        assert not self.assert_sound(messy)
        assert self.assert_sound(serialize_kb(parse_ok(messy)))

    @pytest.mark.parametrize("text", [
        MINIMAL.replace("\n", "\r\n"),
        MINIMAL[:-1],
        MINIMAL + "\n",
        MINIMAL.replace("word", "Word"),
        MINIMAL.replace("word", "w  ord"),
        MINIMAL.replace("Start", "Two  Words"),
        MINIMAL.replace("#HEAD 1", "#HEAD 01"),
        MINIMAL.replace("#SECTION 1", "#SECTION \u00b2"),
        MINIMAL.replace("#CLASS 1", "#CLASS 9"),
        MINIMAL.replace("#PARA N", "#PARA adj"),
        MINIMAL.replace("word;", "word @0 x;"),
        MINIMAL.replace("word;", "word @;"),
        MINIMAL.replace("word;", "//word;"),
        MINIMAL.replace("word;", "word,x;"),
        MINIMAL + "#HEAD 1 Again\n#PARA N\nx;\n",
        MINIMAL + "#SECTION 2 Empty\n",
        "// comment\n" + MINIMAL,
    ], ids=[
        "crlf", "no-final-break", "blank-line", "upper-entry", "doubled-space-entry",
        "doubled-space-name", "leading-zero", "superscript-digit", "class-9", "lower-tag",
        "ref-0", "bare-ref", "comment-group", "unspaced-comma", "repeated-head",
        "empty-section", "comment",
    ])
    def test_refuses(self, text):
        assert canonical_heads(text) is None

    def test_pieces_of_heads_that_share_a_section(self, kb2):
        text = serialize_kb(kb2)
        heads = canonical_heads(text)
        assert [head.number for head in heads] == [1, 2, 9, 183, 184]
        assert heads[0].pieces[:2] == heads[1].pieces[:2]  # class 1, section 1
        assert text[slice(*heads[-1].pieces[-1])].startswith("#HEAD 184 ")
        assert heads[-1].pieces[-1][1] == len(text)


class TestCanonicalBuilder:
    """``_canonical_kb`` builds what the reference parser builds from every
    text ``canonical_heads`` accepts, and from the pieces of any of its
    heads that ``kb_of`` joins."""

    @staticmethod
    def assert_builds_the_reference(text: str) -> bool:
        """When the check accepts ``text``: the builder's KB equals the
        reference parser's, for the whole text, each head's pieces and the
        pieces of every other head. Returns whether it accepted."""
        heads = canonical_heads(text)
        if heads is None:
            return False
        for kept in [heads, *([head] for head in heads), heads[::2]]:
            pieces = dict.fromkeys(piece for head in kept for piece in head.pieces)
            part = "".join(text[start:end] for start, end in pieces)
            assert _canonical_kb(part) == reference_parse_source(part).kb, part
        return True

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.one_of(canonical_sources(edited=True), line_soups()))
    def test_every_accepted_text(self, text):
        self.assert_builds_the_reference(text)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=line_soups())
    def test_every_canonical_text_of_a_soup(self, text):
        kb = reference_parse_source(text).kb
        if kb is not None:
            assert self.assert_builds_the_reference(serialize_kb(kb))

    @pytest.mark.parametrize("name", ["head42.roget", "two_class.roget"])
    def test_the_fixtures_canonical_texts(self, name):
        assert self.assert_builds_the_reference(serialize_kb(parse_ok(fixture_text(name))))

    def test_a_generated_corpus(self, perfbench_corpus):
        assert self.assert_builds_the_reference(perfbench_corpus.generate(3, scale=0.05).canonical)

    def test_no_heads(self):
        assert _canonical_kb("") == reference_parse_source("").kb
