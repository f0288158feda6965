from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_load_resource
from rogetkb.fixtures import fixture_text
from rogetkb.lexnet import (
    DEFAULT_RELATIONS,
    LABEL_PRECEDENCE,
    LexiconError,
    RelationType,
    build_mini_net,
    lexicon_lemmas,
    load_resource,
)
from rogetkb.model import PartOfSpeech
from soups import lexicon_soups


class TestRelationType:
    def test_fifteen_types_in_precedence_order(self):
        assert len(LABEL_PRECEDENCE) == 15
        assert LABEL_PRECEDENCE[0] is RelationType.SYNONYM
        assert LABEL_PRECEDENCE[1] is RelationType.ANTONYM
        assert LABEL_PRECEDENCE[2] is RelationType.HYPERNYM
        assert LABEL_PRECEDENCE[3] is RelationType.HYPONYM
        assert LABEL_PRECEDENCE[-1] is RelationType.PARTICIPLE

    def test_parse(self):
        assert RelationType.parse("also-see") is RelationType.ALSO_SEE
        assert RelationType.parse("HYPERNYM") is RelationType.HYPERNYM
        with pytest.raises(ValueError):
            RelationType.parse("friend-of")

    def test_defaults_per_pos(self):
        assert DEFAULT_RELATIONS[PartOfSpeech.NOUN] == frozenset({
            RelationType.SYNONYM, RelationType.HYPERNYM, RelationType.HYPONYM,
            RelationType.COORDINATE, RelationType.MERONYM, RelationType.HOLONYM,
            RelationType.ANTONYM,
        })
        assert DEFAULT_RELATIONS[PartOfSpeech.VERB] == frozenset({
            RelationType.SYNONYM, RelationType.HYPERNYM, RelationType.HYPONYM,
            RelationType.ENTAILMENT, RelationType.CAUSE, RelationType.ANTONYM,
        })
        assert DEFAULT_RELATIONS[PartOfSpeech.ADJECTIVE] == frozenset({
            RelationType.SYNONYM, RelationType.SIMILAR, RelationType.ANTONYM,
            RelationType.ATTRIBUTE,
        })
        for pos in (PartOfSpeech.ADVERB, PartOfSpeech.INTERJECTION):
            assert DEFAULT_RELATIONS[pos] == frozenset({
                RelationType.SYNONYM, RelationType.ANTONYM,
            })


# Non-ASCII letters whose case mapping gives ASCII letters or changes length:
# the dotless and dotted i, the Kelvin sign, the long s and the sharp s.
_LOOKALIKES = {"i": "ıİ", "k": "K", "s": "ſß"}


@st.composite
def _case_variants(draw) -> str:
    """A tag or relation name with each letter in either case or swapped for
    a look-alike."""
    word = draw(st.sampled_from([member.value for member in (*PartOfSpeech, *RelationType)]))
    return "".join(
        draw(st.sampled_from([ch.lower(), ch.upper(), *_LOOKALIKES.get(ch.lower(), "")]))
        for ch in word
    )


_VOCABULARY_TOKENS = st.one_of(
    _case_variants(),
    st.builds("{}{}{}".format, st.sampled_from(["", " "]), _case_variants(), st.sampled_from(["", "\t"])),
    st.text(alphabet="ıİſKßnNtT \t\u3000", max_size=4),
)


@given(_VOCABULARY_TOKENS)
def test_parse_agrees_with_the_enum_constructor(token):
    """Each parser reads its table as the enum's own constructor reads the
    case-folded token: the same member, or the same error message."""
    for vocabulary, fold, unknown in (
        (PartOfSpeech, str.upper, "unknown part of speech"),
        (RelationType, str.lower, "unknown relation type"),
    ):
        try:
            member = vocabulary(fold(token))
        except ValueError:
            with pytest.raises(ValueError) as raised:
                vocabulary.parse(token)
            assert str(raised.value) == f"{unknown} {token!r}"
        else:
            assert vocabulary.parse(token) is member


class TestLoadResource:
    def test_fixture_loads(self, res_dec):
        assert len(res_dec.synsets) == 30
        assert len(res_dec.edges) == 27
        assert all(rel is RelationType.HYPERNYM for _, rel, _ in res_dec.edges)

    def test_gloss(self, res_dec):
        assert res_dec.synsets["decrement.n.1"].gloss == (
            "the amount by which something decreases"
        )
        assert res_dec.synsets["amount.n.1"].gloss is None

    def test_lemmas_normalized_and_deduped(self):
        res = load_resource("SYN x.n.1 N  Alpha ; beta;alpha \n")
        assert res.synsets["x.n.1"].lemmas == ("alpha", "beta")

    def test_hyponym_written_both_ways_is_one_edge_form(self):
        direct = load_resource(
            "SYN a.n.1 N a\nSYN b.n.1 N b\nREL hypernym b.n.1 a.n.1\n"
        )
        inverted = load_resource(
            "SYN a.n.1 N a\nSYN b.n.1 N b\nREL hyponym a.n.1 b.n.1\n"
        )
        assert direct.edges == inverted.edges == (
            ("b.n.1", RelationType.HYPERNYM, "a.n.1"),
        )

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("SYN x.n.1 N\n", "malformed SYN"),
            ("SYN x.n.1 N a\nSYN x.n.1 N b\n", "duplicate synset id x.n.1"),
            ("SYN x.n.1 N  ; ;\n", "has no lemmas"),
            ("SYN x.n.1 Q a\n", "unknown part of speech"),
            ("REL hypernym a.n.1\n", "malformed REL"),
            ("SYN a.n.1 N a\nSYN b.n.1 N b\nREL knows a.n.1 b.n.1\n", "unknown relation type"),
            ("BOGUS x\n", "unknown record kind"),
            ("SYN a.n.1 N a\nREL hypernym a.n.1 ghost.n.1\n", "unknown synset ghost.n.1"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(LexiconError) as exc_info:
            load_resource(text)
        assert fragment in exc_info.value.message

    def test_error_carries_line_and_renders_with_it(self):
        with pytest.raises(LexiconError) as exc_info:
            load_resource("// comment\nBOGUS x\n")
        assert exc_info.value.line == 2
        assert str(exc_info.value).startswith("2:error: ")


def _assert_reads_as_the_reference(text: str) -> None:
    """``load_resource`` builds the reference loader's graph and
    ``lexicon_lemmas`` its lemma set, or both raise its error: the same
    line and message."""
    try:
        want = reference_load_resource(text)
    except LexiconError as exc:
        for read in (load_resource, lexicon_lemmas):
            with pytest.raises(LexiconError) as exc_info:
                read(text)
            assert (exc_info.value.line, exc_info.value.message) == (exc.line, exc.message)
        return
    got = load_resource(text)
    assert [(i, s.id, s.pos, s.lemmas, s.gloss) for i, s in got.synsets.items()] == [
        (i, s.id, s.pos, s.lemmas, s.gloss) for i, s in want.synsets.items()
    ]
    assert got.edges == want.edges
    assert lexicon_lemmas(text) == got.all_lemmas() == want.all_lemmas()


class TestReaderAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(lexicon_soups())
    def test_lexicon_soups(self, text):
        _assert_reads_as_the_reference(text)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x85"])
    def test_line_ends_and_token_case(self, end):
        text = end.join([
            "// every record kind", "SYN b.n.1 \u0131nt Beta;  BETA ;b-b | a gloss ",
            "REL Hyponym b.n.1 a.n.1", "", "SYN a.n.1 n alpha|", "REL ALSO-SEE a.n.1 b.n.1",
        ])
        _assert_reads_as_the_reference(text)
        assert load_resource(text).synsets["b.n.1"].pos is PartOfSpeech.INTERJECTION
        for bad in ("SYN c.n.1 \u0130nt c", "REL s\u0131milar a.n.1 b.n.1",
                    "REL \u017fimilar a.n.1 b.n.1", "REL hypernym c.n.1 d.n.1"):
            _assert_reads_as_the_reference(text + end + bad)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_lexicons(self, perfbench_corpus, seed):
        text = perfbench_corpus.generate(seed, scale=0.02).lexicon
        _assert_reads_as_the_reference(text)
        lines = text.splitlines()
        rng = random.Random(seed)
        for _ in range(3):
            # one record cut short, and an edge to an undeclared id, somewhere
            damaged = list(lines)
            cut = rng.randrange(len(damaged))
            damaged[cut] = damaged[cut][:rng.randrange(len(damaged[cut]) + 1)]
            damaged.insert(rng.randrange(len(damaged) + 1), "REL hypernym ghost.n.1 ghost.n.2")
            _assert_reads_as_the_reference("\n".join(damaged))

    def test_lemmas_of_the_fixture(self, res_dec):
        assert lexicon_lemmas(fixture_text("decrement.lex")) == res_dec.all_lemmas()
        assert lexicon_lemmas("") == frozenset()


class TestQueries:
    def test_neighbours_hypernym(self, res_dec):
        (hyper,) = res_dec.neighbours("decrement.n.1", RelationType.HYPERNYM)
        assert hyper.id == "amount.n.1"

    def test_neighbours_hyponym_reads_inverse(self, res_dec):
        ids = [s.id for s in res_dec.neighbours("decrement.n.1", RelationType.HYPONYM)]
        assert ids == ["drop.n.1", "shrinkage.n.1"]

    def test_isolated_synset_has_no_neighbours(self, res_dec):
        for rel in RelationType:
            assert res_dec.neighbours("leak.n.1", rel) == ()

    def test_synsets_for(self, res_dec):
        ids = [s.id for s in res_dec.synsets_for("decrease", PartOfSpeech.NOUN)]
        assert ids == ["decrement.n.1", "decrement.n.2"]
        assert res_dec.synsets_for("decrease", PartOfSpeech.VERB) == ()
        assert res_dec.synsets_for(" DECREASE ", PartOfSpeech.NOUN) != ()

    def test_all_lemmas(self, res_dec):
        lemmas = res_dec.all_lemmas()
        assert {"decrement", "natural process", "leak", "growth"} <= lemmas
        assert res_dec.all_lemmas() is lemmas  # built once per resource

    def test_lemma_index_matches_a_recount(self, res_dec, perfbench_corpus):
        generated = load_resource(perfbench_corpus.generate(1, scale=0.02).lexicon)
        for res in (res_dec, generated):
            recount = {
                lemma: tuple(s.id for s in res.synsets.values() if lemma in s.lemmas)
                for lemma in res.all_lemmas()
            }
            assert res.lemma_index == recount


class TestMiniNet:
    def test_two_senses_in_file_order(self, res_dec):
        net = build_mini_net(res_dec, "Decrement", PartOfSpeech.NOUN)
        assert net.lemma == "decrement"
        assert [s.seed.id for s in net.senses] == ["decrement.n.1", "decrement.n.2"]

    def test_sense_one_neighbourhood(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        sense = net.senses[0]
        assert [rel for rel, _ in sense.reached] == [
            RelationType.HYPERNYM, RelationType.HYPONYM, RelationType.COORDINATE,
        ]
        assert [s.id for s in sense.via(RelationType.HYPERNYM)] == ["amount.n.1"]
        assert [s.id for s in sense.via(RelationType.HYPONYM)] == [
            "drop.n.1", "shrinkage.n.1",
        ]
        assert sense.via(RelationType.ANTONYM) == ()

    def test_coordinates_are_hypernym_plus_its_hyponyms(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        assert [s.id for s in net.senses[0].via(RelationType.COORDINATE)] == [
            "amount.n.1", "quantity.n.1", "increase.n.1", "decrement.n.1",
            "insufficiency.n.1", "number.n.1",
        ]
        coord2 = [s.id for s in net.senses[1].via(RelationType.COORDINATE)]
        assert coord2[0] == "process.n.1"
        assert "decrement.n.2" in coord2
        assert len(coord2) == 15

    def test_explicit_coordinate_edge_is_appended(self):
        res = load_resource(
            "SYN a.n.1 N a\nSYN b.n.1 N b\nSYN c.n.1 N c\nSYN d.n.1 N d\n"
            "REL hypernym a.n.1 b.n.1\nREL hypernym c.n.1 b.n.1\n"
            "REL coordinate a.n.1 d.n.1\n"
        )
        net = build_mini_net(res, "a", PartOfSpeech.NOUN)
        assert [s.id for s in net.senses[0].via(RelationType.COORDINATE)] == [
            "b.n.1", "a.n.1", "c.n.1", "d.n.1",
        ]

    def test_synset_reached_three_times_is_kept_at_its_first_position(self):
        # x is a hyponym of both of a's hypernyms and an explicit coordinate of a
        res = load_resource(
            "SYN a.n.1 N a\nSYN h1.n.1 N h1\nSYN h2.n.1 N h2\nSYN x.n.1 N x\nSYN y.n.1 N y\n"
            "REL hypernym a.n.1 h1.n.1\nREL hypernym a.n.1 h2.n.1\n"
            "REL hypernym x.n.1 h1.n.1\nREL hypernym y.n.1 h2.n.1\nREL hypernym x.n.1 h2.n.1\n"
            "REL coordinate a.n.1 x.n.1\n"
        )
        net = build_mini_net(res, "a", PartOfSpeech.NOUN)
        assert [s.id for s in net.senses[0].via(RelationType.COORDINATE)] == [
            "h1.n.1", "a.n.1", "x.n.1", "h2.n.1", "y.n.1",
        ]

    def test_sense_two_hyponyms(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        assert [s.id for s in net.senses[1].via(RelationType.HYPONYM)] == [
            "wastage.n.1", "decay.n.1", "slippage.n.1", "diminution.n.1",
            "desensitization.n.1", "narrowing.n.1",
        ]

    def test_strings_cover_all_member_lemmas(self, res_dec):
        strings = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN).strings()
        assert len(strings) == 41
        assert {"decrement", "fall", "natural process", "growth"} <= strings
        assert "leak" not in strings

    def test_unknown_lemma_gives_empty_net(self, res_dec):
        net = build_mini_net(res_dec, "unheard-of", PartOfSpeech.NOUN)
        assert net.senses == ()
        assert net.strings() == frozenset()

    def test_pos_filters_seeds(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.VERB)
        assert net.senses == ()
