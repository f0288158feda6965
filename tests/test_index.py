from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpusgen import generate
from oracles import reference_index, walk_entries
from rogetkb.index import build_index
from rogetkb.model import Address
from rogetkb.parser import parse_source
from rogetkb.text import normalize
from soups import line_soups


class TestLookup:
    def test_query_is_normalized(self, idx42):
        assert idx42.lookup("  DECREMENT ") == idx42.lookup("decrement") != ()

    def test_miss_is_empty_tuple(self, idx42):
        assert idx42.lookup("zeppelin") == ()
        assert idx42.lookup("") == ()

    def test_phrases_are_whole_strings(self):
        source = "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA N\nempty space, void;\n"
        idx = build_index(parse_source(source).kb)
        assert idx.lookup("Empty  Space") != ()
        # the phrase is indexed, not its words
        assert idx.lookup("empty") == ()
        assert idx.lookup("space") == ()

    def test_void_addresses_in_taxonomy_order(self, idx2):
        got = [str(a) for a in idx2.lookup("void")]
        assert got == ["1.1.2:N:0:1:1", "2.1.183:N:0:0:2", "2.1.183:N:0:1:1"]


def occurrences(idx) -> int:
    """Entry occurrences the index holds: the sum of its posting lengths."""
    return sum(map(len, idx.entries.values()))


class TestShape:
    def test_head42_sizes(self, kb42, idx42):
        assert occurrences(idx42) == 27
        # no duplicate strings in that head
        assert len(idx42.entries) == len(kb42.entry_strings()) == 27

    def test_two_class_sizes(self, kb2, idx2):
        assert occurrences(idx2) == 39
        # "void" occurs three times
        assert len(idx2.entries) == len(kb2.entry_strings()) == 37

    def test_unique_strings_matches_count(self, kb2, idx2):
        assert kb2.entry_strings() == frozenset(idx2.entries)


class TestAgainstKB:
    def test_complete(self, kb2, idx2):
        """Every entry occurrence is findable at its own address."""
        for addr, entry in walk_entries(kb2):
            assert addr in idx2.lookup(entry.text)

    def test_sound(self, kb2, idx2):
        """Every posting resolves to an entry bearing the indexed string."""
        for text, addresses in idx2.entries.items():
            for addr in addresses:
                assert kb2.resolve(addr).text == text

    def test_postings_sorted(self, idx2):
        for addresses in idx2.entries.values():
            keys = [a.sort_key() for a in addresses]
            assert keys == sorted(keys)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_occurrence_counts(seed):
    corpus = generate(seed, n_classes=2)
    kb = parse_source(corpus.text).kb
    idx = build_index(kb)
    assert occurrences(idx) == corpus.entries
    got = {text: len(addrs) for text, addrs in idx.entries.items()}
    assert got == dict(corpus.occurrences)


def test_large_corpus_completeness():
    corpus = generate(
        1234,
        n_classes=6,
        heads_per_section=(2, 5),
        groups_per_para=(2, 6),
        entries_per_group=(2, 8),
    )
    assert corpus.entries >= 1000
    kb = parse_source(corpus.text).kb
    idx = build_index(kb)
    assert occurrences(idx) == corpus.entries
    for addr, entry in walk_entries(kb):
        assert addr in idx.lookup(entry.text)
    for text, addrs in idx.entries.items():
        assert len(addrs) == corpus.occurrences[text]
        for addr in addrs:
            assert kb.resolve(addr).text == text


def assert_matches_reference(kb):
    """``build_index`` against the sorting oracle: equal postings in equal
    order, and every posting indistinguishable from a validated address."""
    idx, ref = build_index(kb), reference_index(kb)
    assert idx.entries == ref.entries
    assert occurrences(idx) == occurrences(ref)
    assert len(idx.entries) == len(ref.entries) == len(kb.entry_strings())
    for addresses in idx.entries.values():
        for addr in addresses:
            validated = Address(
                addr.class_num, addr.section_num, addr.head_num, addr.pos,
                addr.para_idx, addr.sg_idx, addr.entry_idx,
            )
            assert addr == validated
            assert hash(addr) == hash(validated)
            assert str(addr) == str(validated)


class TestAgainstReference:
    def test_fixtures(self, kb42, kb2):
        assert_matches_reference(kb42)
        assert_matches_reference(kb2)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_generated(self, seed):
        assert_matches_reference(parse_source(generate(seed).text).kb)

    def test_pos_groups_out_of_canonical_order(self):
        # paragraphs are stored in source order; postings follow POS order
        source = ("#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA VB\nx;\n#PARA N\ny, x;\n"
                  "#PARA VB\nx;\n")
        kb = parse_source(source).kb
        assert [str(a) for a in build_index(kb).lookup("x")] == [
            "1.1.1:N:0:0:1", "1.1.1:VB:0:0:0", "1.1.1:VB:1:0:0",
        ]
        assert_matches_reference(kb)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups())
def test_every_line_soup_kb_matches_reference(text):
    kb = parse_source(text).kb
    if kb is not None:
        assert_matches_reference(kb)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups())
def test_kb_strings_and_counts_agree_with_the_index(text):
    """The KB's own string set and entry count, with the index as oracle."""
    kb = parse_source(text).kb
    if kb is not None:
        idx = build_index(kb)
        assert kb.entry_strings() == frozenset(idx.entries)
        assert kb.count_nodes().entries == occurrences(idx)


def assert_scoped_matches(kb, words):
    """``build_index(kb, words)`` answers each asked word as the full index
    and the sorting oracle do, and holds exactly the asked words that occur."""
    full, ref, scoped = build_index(kb), reference_index(kb), build_index(kb, words)
    for word in words:
        assert scoped.lookup(word) == full.lookup(word) == ref.lookup(word)
    assert set(scoped.entries) == {normalize(word) for word in words} & set(full.entries)


def _spellings(text: str):
    """An entry text as a query may spell it: other case, other whitespace."""
    return st.sampled_from([text, text.upper(), f" \t{text}  ", text.replace(" ", "  \n ")])


# a blank word, misses, and words the soups' entries often hold
_OTHER_WORDS = st.sampled_from(["", "   ", "zeppelin", "word", "Two  Words", "decrement"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups(), data=st.data())
def test_scoped_index_matches_the_full_index(text, data):
    kb = parse_source(text).kb
    if kb is None:
        return
    texts = sorted(kb.entry_strings())
    hits = st.sampled_from(texts).flatmap(_spellings) if texts else st.nothing()
    words = data.draw(st.lists(st.one_of(hits, _OTHER_WORDS), min_size=1, max_size=3))
    # the same word twice, as ``sim a a`` asks it
    words += data.draw(st.sampled_from([[], words[:1]]))
    assert_scoped_matches(kb, words)


@pytest.mark.parametrize("seed", [1, 2])
def test_scoped_index_of_a_generated_corpus(perfbench_corpus, seed):
    corpus = perfbench_corpus.generate(seed, scale=0.02)
    kb = parse_source(corpus.canonical).kb
    hot, rare = corpus.words[0], corpus.words[-1]
    assert len(corpus.senses[hot]) > len(corpus.senses[rare])
    for words in ([hot], [rare], ["not a word"], [hot, rare], [hot, hot], [rare, "not a word"],
                  [hot.upper(), f"  {rare} "], [""]):
        assert_scoped_matches(kb, words)
