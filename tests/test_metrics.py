from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpusgen import WORDS, generate
from oracles import bfs_distance, materialize_graph
from rogetkb.index import build_index
from rogetkb.metrics import sg_distance, word_distance
from rogetkb.model import Address, AddressError
from rogetkb.parser import parse_source


class TestGroupDistance:
    def test_same_group_is_zero(self, kb2):
        a = Address.parse("1.1.1:N:0:0")
        r = sg_distance(kb2, a, a)
        assert r.distance == 0 and r.lca_level == 6

    def test_each_separation_level(self, kb2):
        cases = [
            ("1.1.1:N:0:0", "1.1.1:N:0:1", 5, 2),    # same paragraph
            ("2.1.184:N:0:0", "2.1.184:N:1:0", 4, 4),  # same POS, two paragraphs
            ("1.1.1:N:0:0", "1.1.1:VB:0:0", 3, 6),   # same head, other POS
            ("1.1.1:N:0:0", "1.1.2:N:0:0", 2, 8),    # same section
            ("1.1.1:N:0:0", "1.2.9:N:0:0", 1, 10),   # same class
            ("1.1.1:N:0:0", "2.1.183:N:0:0", 0, 12),  # across classes
        ]
        for text_a, text_b, lca, dist in cases:
            r = sg_distance(kb2, Address.parse(text_a), Address.parse(text_b))
            assert (r.lca_level, r.distance) == (lca, dist), (text_a, text_b)

    def test_entry_level_addresses_accepted(self, kb2):
        r = sg_distance(
            kb2, Address.parse("1.1.1:N:0:0:0"), Address.parse("1.1.1:N:0:1:1")
        )
        assert r.distance == 2

    def test_symmetric(self, kb2):
        a = Address.parse("1.1.2:N:0:0")
        b = Address.parse("2.1.183:ADJ:0:0")
        assert sg_distance(kb2, a, b).distance == sg_distance(kb2, b, a).distance

    def test_requires_group_depth(self, kb2):
        with pytest.raises(AddressError, match="semicolon group"):
            sg_distance(kb2, Address.parse("1.1.1:N:0"), Address.parse("1.1.1:N:0:0"))

    def test_requires_existing_groups(self, kb2):
        with pytest.raises(AddressError):
            sg_distance(
                kb2, Address.parse("1.1.1:N:0:99"), Address.parse("1.1.1:N:0:0")
            )

    def test_matches_bfs_on_every_pair(self, kb2):
        adjacency, sg_nodes = materialize_graph(kb2)
        for text_a, text_b in itertools.product(sg_nodes, repeat=2):
            expected = bfs_distance(adjacency, sg_nodes[text_a], sg_nodes[text_b])
            got = sg_distance(kb2, Address.parse(text_a), Address.parse(text_b))
            assert got.distance == expected, (text_a, text_b)

    def test_triangle_inequality_at_group_level(self, kb2):
        _, sg_nodes = materialize_graph(kb2)
        groups = [Address.parse(t) for t in sorted(sg_nodes)]
        for a, b, c in itertools.permutations(groups[:8], 3):
            ab = sg_distance(kb2, a, b).distance
            bc = sg_distance(kb2, b, c).distance
            ac = sg_distance(kb2, a, c).distance
            assert ac <= ab + bc


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_distances_match_bfs(seed):
    corpus = generate(seed, n_classes=2)
    kb = parse_source(corpus.text).kb
    adjacency, sg_nodes = materialize_graph(kb)
    texts = sorted(sg_nodes)
    rng = random.Random(seed)
    pool = [rng.sample(texts, 2) for _ in range(60)] if len(texts) > 1 else []
    for text_a, text_b in pool:
        expected = bfs_distance(adjacency, sg_nodes[text_a], sg_nodes[text_b])
        got = sg_distance(kb, Address.parse(text_a), Address.parse(text_b))
        assert got.distance == expected


class TestWordDistance:
    def test_same_group_pair(self, kb2, idx2):
        r = word_distance(kb2, idx2, "void", "emptiness")
        assert r.distance == 0
        assert r.lca_level == 6

    def test_known_pairs(self, kb2, idx2):
        assert word_distance(kb2, idx2, "nothingness", "void").distance == 2
        assert word_distance(kb2, idx2, "existence", "regionally").distance == 12

    def test_unindexed_gives_none(self, kb2, idx2):
        assert word_distance(kb2, idx2, "ghost", "void") is None
        assert word_distance(kb2, idx2, "void", "ghost") is None

    def test_queries_normalized(self, kb2, idx2):
        assert word_distance(kb2, idx2, " VOID ", "Emptiness").distance == 0

    def test_identity_is_zero(self, kb2, idx2):
        for word in ("void", "existence", "regionally"):
            assert word_distance(kb2, idx2, word, word).distance == 0

    def test_symmetry_of_distance(self, kb2, idx2):
        words = ["void", "existence", "nothingness", "space", "territory"]
        for a, b in itertools.combinations(words, 2):
            ab = word_distance(kb2, idx2, a, b)
            ba = word_distance(kb2, idx2, b, a)
            assert ab.distance == ba.distance

    def test_polysemy_bridges_break_triangle_inequality(self, kb2, idx2):
        """Min-over-senses is deliberately not a metric: a polysemous word
        sits near both shores without pulling them together."""
        assert word_distance(kb2, idx2, "space", "void").distance == 0
        assert word_distance(kb2, idx2, "void", "nothingness").distance == 2
        assert word_distance(kb2, idx2, "space", "nothingness").distance == 12

    def test_witnesses_are_first_lexicographic_minimum(self, kb2, idx2):
        # both "void" occurrences in head 183 sit at distance 8 from "region";
        # the earlier address must win
        r = word_distance(kb2, idx2, "region", "void")
        assert r.distance == 8
        assert str(r.witness_a) == "2.1.184:N:0:0:0"
        assert str(r.witness_b) == "2.1.183:N:0:0:2"

    def test_witness_addresses_really_hold_the_words(self, kb2, idx2):
        r = word_distance(kb2, idx2, "nothingness", "void")
        assert kb2.resolve(r.witness_a).text == "nothingness"
        assert kb2.resolve(r.witness_b).text == "void"

    def test_matches_bfs_minimum(self, kb2, idx2):
        adjacency, sg_nodes = materialize_graph(kb2)
        words = ["void", "existence", "nothingness", "emptiness", "territory"]
        for a, b in itertools.combinations(words, 2):
            expected = min(
                bfs_distance(
                    adjacency,
                    sg_nodes[str(addr_a.group_prefix())],
                    sg_nodes[str(addr_b.group_prefix())],
                )
                for addr_a in idx2.lookup(a)
                for addr_b in idx2.lookup(b)
            )
            assert word_distance(kb2, idx2, a, b).distance == expected


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_word_distances_match_bfs(seed):
    corpus = generate(seed, n_classes=2)
    kb = parse_source(corpus.text).kb
    idx = build_index(kb)
    adjacency, sg_nodes = materialize_graph(kb)
    rng = random.Random(seed ^ 0xC0FFEE)
    words = [w for w in WORDS if idx.lookup(w)]
    for _ in range(25):
        a, b = rng.choice(words), rng.choice(words)
        expected = min(
            bfs_distance(
                adjacency,
                sg_nodes[str(addr_a.group_prefix())],
                sg_nodes[str(addr_b.group_prefix())],
            )
            for addr_a in idx.lookup(a)
            for addr_b in idx.lookup(b)
        )
        assert word_distance(kb, idx, a, b).distance == expected


class TestSimilarity:
    def test_linear_in_distance(self, kb2, idx2):
        assert word_distance(kb2, idx2, "void", "emptiness").similarity == 1.0
        assert word_distance(kb2, idx2, "nothingness", "void").similarity == pytest.approx(5 / 6)
        assert word_distance(kb2, idx2, "existence", "regionally").similarity == 0.0

    def test_none_for_unindexed(self, kb2, idx2):
        assert word_distance(kb2, idx2, "ghost", "void") is None

    def test_bounds_hold_everywhere(self, kb2, idx2):
        words = ["void", "existence", "space", "relate", "nowhere"]
        for a, b in itertools.product(words, repeat=2):
            s = word_distance(kb2, idx2, a, b).similarity
            assert 0.0 <= s <= 1.0
