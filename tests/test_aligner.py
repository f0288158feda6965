from __future__ import annotations

import random

import pytest

from corpusgen import WORDS, generate
from oracles import net_strings, paragraph_strings, recount_tables
from rogetkb.aligner import (
    CoverageRow,
    HeadCoverage,
    class_coverage,
    common_strings,
    head_coverage,
    label_paragraph,
    pos_distribution,
)
from rogetkb.lexnet import RelationType, build_mini_net, load_resource
from rogetkb.model import Address, AddressError, CountRecord, PartOfSpeech
from rogetkb.parser import parse_source

PARA_42 = Address.parse("1.3.42:N:0")


class TestCommonStrings:
    def test_head42_against_fixture_resource(self, kb42, res_dec):
        assert common_strings(kb42, res_dec.all_lemmas()) == frozenset({
            "decrement", "shrinkage", "wastage", "slippage",
            "leak", "leakage", "escape",
        })

    def test_disjoint_resources(self, kb2, res_dec):
        assert common_strings(kb2, res_dec.all_lemmas()) == frozenset()


class TestClassCoverage:
    def test_head42_row(self, kb42, res_dec):
        common = common_strings(kb42, res_dec.all_lemmas())
        cov = class_coverage(kb42, common)
        (row,) = cov.rows
        assert (row.class_num, row.sections, row.heads) == (1, 1, 1)
        assert (row.paragraphs, row.groups, row.strings) == (1, 11, 27)
        assert row.pct_common_strings == pytest.approx(7 / 27)
        assert row.pct_common_keywords == 1.0  # "decrement" is shared
        assert row.pct_common_heads == 0.0  # full name carries the gloss

    def test_strip_gloss_matches_head_name(self, kb42, res_dec):
        common = common_strings(kb42, res_dec.all_lemmas())
        cov = class_coverage(kb42, common, strip_gloss=True)
        assert cov.rows[0].pct_common_heads == 1.0

    def test_totals_row_is_occurrence_weighted(self, kb2, res_dec):
        common = common_strings(kb2, res_dec.all_lemmas())
        cov = class_coverage(kb2, common)
        t = cov.total
        assert t.class_num is None
        assert (t.sections, t.heads, t.paragraphs, t.groups, t.strings) == (
            3, 5, 12, 18, 39,
        )
        assert t.pct_common_strings == 0.0

    def test_against_brute_force_recount(self, kb2):
        # resource sharing some two_class strings, built for this test
        res = load_resource(
            "SYN v.n.1 N void;blank\n"
            "SYN s.n.1 N space\n"
            "SYN e.n.1 N existence\n"
        )
        common = common_strings(kb2, res.all_lemmas())
        cov = class_coverage(kb2, common)
        for row in cov.rows:
            cls = next(c for c in kb2.classes if c.number == row.class_num)
            occurrences = [
                e.text
                for sec in cls.sections
                for head in sec.heads
                for para in head.paragraphs
                for group in para.groups
                for e in group.entries
            ]
            expected = sum(1 for text in occurrences if text in common)
            assert row.pct_common_strings == pytest.approx(expected / len(occurrences))
        weighted = sum(r.pct_common_strings * r.strings for r in cov.rows)
        assert cov.total.pct_common_strings == pytest.approx(
            weighted / cov.total.strings
        )

    def test_empty_kb(self):
        from rogetkb.model import ThesaurusKB

        cov = class_coverage(ThesaurusKB(()), frozenset())
        assert cov.rows == ()
        assert cov.total.strings == 0
        assert cov.total.pct_common_strings == 0.0


class TestHeadCoverage:
    def test_head42_row(self, kb42, res_dec):
        common = common_strings(kb42, res_dec.all_lemmas())
        (row,) = head_coverage(kb42, res_dec.all_lemmas(), common)
        assert row.head_num == 42
        assert row.head_name == "Decrement: thing deducted"
        assert row.head_name_in_lex is False
        assert (row.paragraphs, row.groups, row.strings) == (1, 11, 27)
        assert row.pct_common_strings == pytest.approx(7 / 27)
        assert row.pct_common_keywords == 1.0

    def test_strip_gloss_finds_name_in_lexicon(self, kb42, res_dec):
        common = common_strings(kb42, res_dec.all_lemmas())
        (row,) = head_coverage(kb42, res_dec.all_lemmas(), common, strip_gloss=True)
        assert row.head_name_in_lex is True

    def test_sorted_by_coverage_then_number(self, res_dec):
        source = (
            "#CLASS 1 C\n#SECTION 1 S\n"
            "#HEAD 1 Alpha\n#PARA N\nalpha, beta;\n"
            "#HEAD 2 Bravo\n#PARA N\nwastage, shrinkage;\n"
            "#HEAD 3 Charlie\n#PARA N\ngamma;\n"
        )
        kb = parse_source(source).kb
        common = common_strings(kb, res_dec.all_lemmas())
        rows = head_coverage(kb, res_dec.all_lemmas(), common)
        assert [r.head_num for r in rows] == [2, 1, 3]
        assert rows[0].pct_common_strings == 1.0

    def test_all_zero_ties_by_head_number(self, kb2, res_dec):
        common = common_strings(kb2, res_dec.all_lemmas())
        rows = head_coverage(kb2, res_dec.all_lemmas(), common)
        assert [r.head_num for r in rows] == [1, 2, 9, 183, 184]


class TestPosDistribution:
    def test_two_class_fractions(self, kb2):
        dist = pos_distribution(kb2)
        assert dist[PartOfSpeech.NOUN] == pytest.approx(29 / 39)
        assert dist[PartOfSpeech.VERB] == pytest.approx(4 / 39)
        assert dist[PartOfSpeech.ADJECTIVE] == pytest.approx(3 / 39)
        assert dist[PartOfSpeech.ADVERB] == pytest.approx(3 / 39)
        assert dist[PartOfSpeech.INTERJECTION] == 0.0

    def test_all_five_keys_and_unit_sum(self, kb42):
        dist = pos_distribution(kb42)
        assert set(dist) == set(PartOfSpeech)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_empty_kb_is_all_zero(self):
        from rogetkb.model import ThesaurusKB

        dist = pos_distribution(ThesaurusKB(()))
        assert all(v == 0.0 for v in dist.values())


def _named_heads(text: str, rng: random.Random) -> str:
    """Give every head a dictionary word as its name, half of them with a
    ``:`` gloss, so head-name matching has something to find."""
    lines = []
    for line in text.splitlines():
        if line.startswith("#HEAD "):
            number = line.split()[1]
            name = rng.choice(WORDS).capitalize()
            if rng.random() < 0.5:
                name += f": {rng.choice(WORDS)}"
            line = f"#HEAD {number} {name}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [3, 31, 314, 3141, 31415])
@pytest.mark.parametrize("strip", [False, True])
def test_tables_against_address_recount(seed, strip):
    rng = random.Random(seed)
    kb = parse_source(_named_heads(generate(seed, n_classes=4).text, rng)).kb
    words = sorted({w.lower() for w in WORDS})
    common = frozenset(rng.sample(words, rng.randint(0, len(words))))
    lemma_words = rng.sample(words, rng.randint(1, len(words)))
    res = load_resource("".join(f"SYN s{i}.n.1 N {w}\n" for i, w in enumerate(lemma_words)))
    heads, classes, pos = recount_tables(kb, common, res.all_lemmas(), strip_gloss=strip)

    def pct(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    expected_heads = sorted(
        (
            HeadCoverage(
                head_num=num, head_name=row["name"], head_name_in_lex=row["in_lex"],
                paragraphs=row["paragraphs"], groups=row["groups"], strings=row["strings"],
                pct_common_strings=pct(row["str_in"], row["strings"]),
                pct_common_keywords=pct(row["kw_in"], row["paragraphs"]),
            )
            for num, row in heads.items()
        ),
        key=lambda r: (-r.pct_common_strings, r.head_num),
    )
    assert list(head_coverage(kb, res.all_lemmas(), common, strip_gloss=strip)) == expected_heads

    cov = class_coverage(kb, common, strip_gloss=strip)
    assert [r.class_num for r in cov.rows] == sorted(classes)
    for row in cov.rows:
        want = classes[row.class_num]
        assert row == CoverageRow(
            class_num=row.class_num, sections=want["sections"], heads=want["heads"],
            paragraphs=want["paragraphs"], groups=want["groups"], strings=want["strings"],
            pct_common_heads=pct(want["heads_in"], want["heads"]),
            pct_common_keywords=pct(want["kw_in"], want["paragraphs"]),
            pct_common_strings=pct(want["str_in"], want["strings"]),
        )
    whole = {key: sum(c[key] for c in classes.values()) for key in next(iter(classes.values()))}
    assert cov.total.pct_common_heads == pct(whole["heads_in"], whole["heads"])
    assert cov.total.pct_common_keywords == pct(whole["kw_in"], whole["paragraphs"])
    assert cov.total.pct_common_strings == pct(whole["str_in"], whole["strings"])

    assert kb.count_nodes() == CountRecord(
        whole["sections"], whole["heads"], whole["paragraphs"], whole["groups"], whole["strings"]
    )
    assert pos_distribution(kb) == {p: pos[p] / whole["strings"] for p in PartOfSpeech}


class TestLabelParagraph:
    def test_worked_example_labels(self, kb42, res_dec):
        result = label_paragraph(kb42, res_dec, PARA_42)
        assert result.keyword == "decrement"
        assert len(result.labelled) == 11
        labels = [lg.label for lg in result.labelled]
        H = RelationType.HYPONYM
        assert labels == [H, None, None, None, H, None, None, H, H, None, None]

    def test_evidence_of_mixed_group(self, kb42, res_dec):
        result = label_paragraph(kb42, res_dec, PARA_42)
        ev = result.labelled[4].evidence
        assert [(e.string, e.synset_id, e.relation) for e in ev] == [
            ("insufficiency", "insufficiency.n.1", RelationType.COORDINATE),
            ("slippage", "slippage.n.1", RelationType.HYPONYM),
        ]

    def test_keyword_group_matches_via_cross_ref(self, kb42, res_dec):
        (first, *_) = label_paragraph(kb42, res_dec, PARA_42).labelled
        assert first.label is RelationType.HYPONYM
        assert [(e.string, e.synset_id) for e in first.evidence] == [
            ("diminution", "diminution.n.1"),
        ]

    def test_isolated_synset_never_matches(self, kb42, res_dec):
        # "leak, leakage, escape" duplicates an isolated synset's lemmas;
        # matching runs against the mini-net, not the whole resource
        result = label_paragraph(kb42, res_dec, PARA_42)
        assert result.labelled[6].label is None
        assert result.labelled[6].evidence == ()

    def test_without_cross_ref_matching(self, kb42, res_dec):
        result = label_paragraph(kb42, res_dec, PARA_42, match_cross_refs=False)
        labels = [lg.label for lg in result.labelled]
        S, H = RelationType.SYNONYM, RelationType.HYPONYM
        assert labels == [S, None, None, None, H, None, None, H, H, None, None]

    def test_keyword_group_synonym_fallback_evidence(self, kb42, res_dec):
        (first, *_) = label_paragraph(kb42, res_dec, PARA_42, match_cross_refs=False).labelled
        assert [(e.string, e.synset_id, e.relation) for e in first.evidence] == [
            ("decrement", "decrement.n.1", RelationType.SYNONYM),
            ("decrement", "decrement.n.2", RelationType.SYNONYM),
        ]

    def test_unknown_keyword_labels_nothing(self, kb2, res_dec):
        result = label_paragraph(kb2, res_dec, Address.parse("1.1.1:N:0"))
        assert all(lg.label is None for lg in result.labelled)
        assert all(lg.evidence == () for lg in result.labelled)

    def test_one_string_and_synset_through_two_relations(self):
        # x is both a hyponym and a meronym of the keyword's synset: one
        # piece of evidence per relation, in precedence order
        res = load_resource(
            "SYN k.n.1 N kay\nSYN x.n.1 N ex\n"
            "REL hyponym k.n.1 x.n.1\nREL meronym k.n.1 x.n.1\n"
        )
        kb = parse_source("#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 Kay\n#PARA N\nkay;\nex;\n").kb
        (_, group) = label_paragraph(kb, res, Address.parse("1.1.1:N:0")).labelled
        assert [(e.string, e.synset_id, e.relation) for e in group.evidence] == [
            ("ex", "x.n.1", RelationType.HYPONYM),
            ("ex", "x.n.1", RelationType.MERONYM),
        ]
        assert group.label is RelationType.HYPONYM

    def test_target_must_be_a_paragraph(self, kb42, res_dec):
        with pytest.raises(AddressError, match="paragraph"):
            label_paragraph(kb42, res_dec, Address.parse("1.3.42"))
        with pytest.raises(AddressError, match="paragraph"):
            label_paragraph(kb42, res_dec, Address.parse("1.3.42:N:0:0"))
        with pytest.raises(AddressError):
            label_paragraph(kb42, res_dec, Address.parse("1.3.42:VB:0"))


class TestOverlap:
    def test_paragraph_strings_include_cross_reference_keywords(self, kb42):
        para = kb42.resolve(PARA_42)
        assert len(paragraph_strings(para)) == 37

    def test_worked_example_overlap(self, kb42, res_dec):
        para = kb42.resolve(PARA_42)
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        strings = paragraph_strings(para)
        assert strings & net_strings(net) == frozenset({
            "decrement", "diminution", "insufficiency",
            "shrinkage", "slippage", "wastage",
        })
        assert len(strings & net_strings(net)) == 6
