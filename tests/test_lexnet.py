from __future__ import annotations

import contextlib
import gc
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soups
from corpusgen import fixture_text
from oracles import net_strings, paragraph_positions, reference_load_resource, via
from rogetkb import lexnet
from rogetkb.aligner import label_paragraph
from rogetkb.bundle import BundleError, KBBundle
from rogetkb.lexnet import (
    DEFAULT_RELATIONS,
    LABEL_PRECEDENCE,
    LexiconError,
    RelationType,
    SynsetResource,
    _lines,
    build_mini_net,
    lexicon_lemmas,
    load_neighbourhood,
    load_resource,
)
from rogetkb.model import Address, PartOfSpeech, ThesaurusKB
from rogetkb.parser import parse_source
from rogetkb.text import normalize
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
    line and message. Either way each read leaves the collector on."""
    try:
        want = reference_load_resource(text)
    except LexiconError as exc:
        for read in (load_resource, lexicon_lemmas):
            with pytest.raises(LexiconError) as exc_info:
                read(text)
            assert gc.isenabled()
            assert (exc_info.value.line, exc_info.value.message) == (exc.line, exc.message)
        return
    got = load_resource(text)
    assert gc.isenabled()
    assert [(i, s.id, s.pos, s.lemmas, s.gloss) for i, s in got.synsets.items()] == [
        (i, s.id, s.pos, s.lemmas, s.gloss) for i, s in want.synsets.items()
    ]
    assert got.edges == want.edges
    lemmas = lexicon_lemmas(text)
    assert gc.isenabled()
    assert lemmas == got.all_lemmas() == want.all_lemmas()


class TestReaderAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(lexicon_soups())
    def test_lexicon_soups(self, text):
        _assert_reads_as_the_reference(text)

    @settings(max_examples=100, deadline=None)
    @given(lexicon_soups(("a{b", "x}", "{0}", "{}"), ("N", "adj")))
    def test_lexicon_soups_of_braced_words(self, text):
        """Words that hold "{" or "}" go into the soup's records as they are."""
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


def _refused(chunk: str, line_no: int, ids: set[str]):
    """A proof that refuses every chunk, so that only the checked reader reads."""
    return None


def _checked_read(*args):
    raise AssertionError("the checked reader read a text the proof should accept")


def _neighbourhood(text: str, lemma: str, pos: PartOfSpeech):
    """``load_neighbourhood``'s synsets, in order, and edges; or its error's
    line and message."""
    try:
        part = load_neighbourhood(text, lemma, pos)
    except LexiconError as exc:
        return exc.line, exc.message
    return list(part.synsets.items()), part.edges


def _assert_neighbourhoods_as_the_checked_read(text: str, lemmas) -> None:
    """At every tag, ``load_neighbourhood`` of each of ``lemmas``, each of
    them padded in upper case, a blank, an unknown string, and strings that
    span a ";" or part of a lemma gives what the checked reader alone gives."""
    queries = ["", "zzz", "alpha;beta", "two", "a b", *lemmas,
               *(f" {lemma.upper()} " for lemma in lemmas)]
    got = [_neighbourhood(text, lemma, pos) for lemma in queries for pos in PartOfSpeech]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexnet, "_proof", _refused)
        want = [_neighbourhood(text, lemma, pos) for lemma in queries for pos in PartOfSpeech]
    assert got == want


def _proven(text: str) -> bool:
    """Whether every chunk of ``text`` is proven and the read finds no fault."""
    try:
        return all(proven for proven, *_ in lexnet._records(text))
    except LexiconError:
        return False


def _lemmas_of(text: str) -> list[str]:
    try:
        return sorted(reference_load_resource(text).all_lemmas())
    except LexiconError:
        return []


class TestStrictForm:
    """A lexicon in the strict form is proven and read without the checked
    reader; any other text is read by the checked reader from its first
    line. Either way every reader answers as the reference does."""

    @settings(max_examples=200, deadline=None)
    @given(soups.strict_lexicons())
    def test_strict_lexicons_are_proven_and_read_as_the_reference(self, text):
        assert _proven(text)
        _assert_reads_as_the_reference(text)
        _assert_neighbourhoods_as_the_checked_read(text, _lemmas_of(text))

    @settings(max_examples=300, deadline=None)
    @given(soups.strict_lexicons(edited=True))
    def test_one_edit_takes_the_checked_read(self, text):
        assert not _proven(text)
        _assert_reads_as_the_reference(text)
        _assert_neighbourhoods_as_the_checked_read(text, _lemmas_of(text))

    @settings(max_examples=100, deadline=None)
    @given(lexicon_soups())
    def test_lexicon_soups_read_as_the_checked_read(self, text):
        _assert_neighbourhoods_as_the_checked_read(text, _lemmas_of(text))

    def test_the_fixture_and_a_generated_lexicon_are_proven(self, monkeypatch, perfbench_corpus):
        texts = [fixture_text("decrement.lex"), perfbench_corpus.generate(1, scale=0.02).lexicon]
        wants = [reference_load_resource(text) for text in texts]
        monkeypatch.setattr(lexnet, "_checked", _checked_read)
        for text, want in zip(texts, wants):
            got = load_resource(text)
            assert list(got.synsets.items()) == list(want.synsets.items())
            assert got.edges == want.edges
            assert lexicon_lemmas(text) == want.all_lemmas()
            for lemma in sorted(want.all_lemmas())[:40]:
                for pos in PartOfSpeech:
                    part = load_neighbourhood(text, lemma, pos)
                    assert build_mini_net(part, lemma, pos) == build_mini_net(want, lemma, pos)

    @pytest.mark.parametrize("edit, proven", [
        ("none", True),
        ("a first record moved last", True),
        ("a doubled space on the last line", False),
        ("a last record that repeats the first id", False),
        ("a first edge to an undeclared id", False),
        ("a blank last line", False),
        ("a break inside a last gloss", False),
        ("a break inside a last comment", False),
    ])
    def test_edits_across_chunks(self, perfbench_corpus, edit, proven):
        """On a lexicon of three chunks, an edge may refer to an id that a
        later chunk declares, and a fault on the last line is found after
        every earlier chunk was proven."""
        lines = perfbench_corpus.generate(1, scale=0.02).lexicon.splitlines()
        first = lines[0]
        first_id, lemmas = first.split()[1], first.split(" ", 3)[3].split(" |")[0].split(";")
        if edit == "a first record moved last":
            lines = lines[1:] + [first]
        elif edit == "a doubled space on the last line":
            lines.append(first.replace(first_id, "new.n.1").replace(" ", "  ", 1))
        elif edit == "a last record that repeats the first id":
            lines.append(first)
        elif edit == "a first edge to an undeclared id":
            lines.insert(0, f"REL hypernym {first_id} ghost.n.1")
        elif edit == "a blank last line":
            lines.append("")
        elif edit == "a break inside a last gloss":
            lines.append("SYN new.n.1 N x | a\x85SYN b gloss")
        elif edit == "a break inside a last comment":
            lines.append("// a\u2028SYN new.n.1 N x")
        text = "".join(line + "\n" for line in lines)
        assert len(list(lexnet._chunks(text))) == 3
        assert _proven(text) is proven
        _assert_reads_as_the_reference(text)
        _assert_neighbourhoods_as_the_checked_read(text, lemmas)

    @pytest.mark.parametrize("fault", [
        None,
        "an id of the first chunk declared again in the middle chunk",
        "an id of the first chunk declared again in the last chunk",
        "an edge to an undeclared id in the first chunk and in the last",
        "a hyponym edge from an undeclared id in the last chunk",
    ])
    @pytest.mark.parametrize("edit", ["a doubled space", "an upper-case lemma"])
    def test_a_refused_middle_chunk_is_checked_from_its_first_line(
            self, monkeypatch, perfbench_corpus, edit, fault):
        """On a lexicon of three chunks with one line outside the strict form
        in its middle chunk, the first chunk is proven and the checked
        reader reads every line from the middle chunk's first on, once.
        Every reader answers as the reference and the checked read alone
        do, a fault across chunks included."""
        lines = perfbench_corpus.generate(1, scale=0.02).lexicon.splitlines()
        first, middle = (chunk.count("\n") for chunk in itertools.islice(
            lexnet._chunks("".join(line + "\n" for line in lines)), 2))
        at = next(i for i in range(first + middle // 4, len(lines)) if lines[i].startswith("SYN "))
        assert at < first + middle
        syn, syn_id, tag, field = lines[at].split(" ", 3)
        lines[at] = (f"{syn} {syn_id}  {tag} {field}" if edit == "a doubled space"
                     else f"{syn} {syn_id} {tag} {field[0].upper()}{field[1:]}")
        declared = lines[0].split()[1]
        if fault == "an id of the first chunk declared again in the middle chunk":
            lines.insert(first + middle // 4, f"SYN {declared} N again")
        elif fault == "an id of the first chunk declared again in the last chunk":
            lines.insert(first + middle + 10, f"SYN {declared} N again")
        elif fault == "an edge to an undeclared id in the first chunk and in the last":
            lines.insert(first + middle + 10, "REL hypernym ghost.n.2 ghost.n.3")
            lines.insert(first // 2, f"REL hypernym {declared} ghost.n.1")
        elif fault == "a hyponym edge from an undeclared id in the last chunk":
            lines.insert(first + middle + 10, f"REL hyponym ghost.n.1 {declared}")
        text = "".join(line + "\n" for line in lines)
        assert len(list(lexnet._chunks(text))) == 3
        starts, checked = [], lexnet._checked
        monkeypatch.setattr(lexnet, "_checked", lambda chunk, line_no, ids: (
            starts.append(line_no + 1) or checked(chunk, line_no, ids)))
        with pytest.raises(LexiconError) if fault else contextlib.nullcontext():
            load_resource(text)
        assert starts[0] == next(lexnet._chunks(text)).count("\n") + 1
        assert starts == sorted(set(starts))
        _assert_reads_as_the_reference(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexnet, "_proof", _refused)
            _assert_reads_as_the_reference(text)
        _assert_neighbourhoods_as_the_checked_read(text, field.split(" |")[0].split(";"))

    @pytest.mark.parametrize("lemma, pos, passes", [
        ("decrement", PartOfSpeech.NOUN, 2),
        ("zzz", PartOfSpeech.NOUN, 1),
    ])
    def test_a_refused_text_costs_the_proof_and_the_checked_read(self, monkeypatch, lemma,
                                                                 pos, passes):
        """A text the proof refuses, here with CRLF line ends, is checked
        from the refused chunk on and never read again from its first line:
        it takes as many passes as a proven read."""
        text = fixture_text("decrement.lex")
        proven = load_neighbourhood(text, lemma, pos)
        calls, chunks = [], lexnet._chunks
        monkeypatch.setattr(lexnet, "_chunks", lambda text: calls.append(1) or chunks(text))
        part = load_neighbourhood(text.replace("\n", "\r\n"), lemma, pos)
        assert len(calls) == passes
        assert (list(part.synsets.items()), part.edges) == (
            list(proven.synsets.items()), proven.edges)

    def test_the_classes_leave_out_every_whitespace_and_other_break(self):
        """The proof relies on ``\\s`` matching what ``str.split`` splits
        on, and on the gloss and comment classes leaving out every break of
        ``str.splitlines``."""
        every = [chr(code) for code in range(sys.maxunicode + 1)]
        assert re.findall(r"\s", "".join(every)) == [ch for ch in every if ch.isspace()]
        breaks = [ch for ch in every if ch.splitlines() == [""]]
        assert breaks == sorted("\n" + lexnet._OTHER_BREAKS)
        assert all(ch.isspace() for ch in breaks)


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
        assert [s.id for s in via(sense, RelationType.HYPERNYM)] == ["amount.n.1"]
        assert [s.id for s in via(sense, RelationType.HYPONYM)] == [
            "drop.n.1", "shrinkage.n.1",
        ]
        assert via(sense, RelationType.ANTONYM) == ()

    def test_coordinates_are_hypernym_plus_its_hyponyms(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        assert [s.id for s in via(net.senses[0], RelationType.COORDINATE)] == [
            "amount.n.1", "quantity.n.1", "increase.n.1", "decrement.n.1",
            "insufficiency.n.1", "number.n.1",
        ]
        coord2 = [s.id for s in via(net.senses[1], RelationType.COORDINATE)]
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
        assert [s.id for s in via(net.senses[0], RelationType.COORDINATE)] == [
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
        assert [s.id for s in via(net.senses[0], RelationType.COORDINATE)] == [
            "h1.n.1", "a.n.1", "x.n.1", "h2.n.1", "y.n.1",
        ]

    def test_sense_two_hyponyms(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
        assert [s.id for s in via(net.senses[1], RelationType.HYPONYM)] == [
            "wastage.n.1", "decay.n.1", "slippage.n.1", "diminution.n.1",
            "desensitization.n.1", "narrowing.n.1",
        ]

    def test_strings_cover_all_member_lemmas(self, res_dec):
        strings = net_strings(build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN))
        assert len(strings) == 41
        assert {"decrement", "fall", "natural process", "growth"} <= strings
        assert "leak" not in strings

    def test_unknown_lemma_gives_empty_net(self, res_dec):
        net = build_mini_net(res_dec, "unheard-of", PartOfSpeech.NOUN)
        assert net.senses == ()
        assert net_strings(net) == frozenset()

    def test_pos_filters_seeds(self, res_dec):
        net = build_mini_net(res_dec, "decrement", PartOfSpeech.VERB)
        assert net.senses == ()


class TestLines:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x85", "\u2028"])
    def test_chunked_lines_are_splitlines(self, end):
        # lines of every length around the 64 KiB chunk size, so that chunks
        # end at many offsets, some just past the "\n" of a "\r\n"
        text = "\n".join(end.join(["x" * width, "", "// y"]) for width in range(0, 3000, 7))
        assert len(text) > 3 * (1 << 16)
        for cut in (text, text + "\n", text + "\r", text[:-1]):
            assert list(_lines(cut)) == cut.splitlines()
        assert list(_lines("")) == []

    def test_error_line_numbers_past_the_first_chunk(self):
        records = [f"SYN s{i}.n.1 N lemma{i} | {'g' * 40}" for i in range(4000)]
        text = "\r\n".join(records + ["REL hypernym s1.n.1 ghost.n.1", *records[:1]])
        for read in (load_resource, lexicon_lemmas,
                     lambda t: load_neighbourhood(t, "lemma1", PartOfSpeech.NOUN)):
            with pytest.raises(LexiconError) as exc_info:
                read(text)
            assert (exc_info.value.line, exc_info.value.message) == (4002, "duplicate synset id s0.n.1")


# The lemmas of the graph lexicons below. Paragraphs also take as words every
# lemma of the lexicon soups' SYN records, a lemma of the decrement fixture and
# a string no record holds.
_GRAPH_LEMMAS = ["alpha", "beta", "gamma", "delta"]
_LEMMAS = sorted(
    {normalize(piece) for field in soups._GOOD_FIELDS for piece in field.split(";")} - {""}
) + ["decrement", "zzz"]


# Fixed choices are enumerated up front, as in soups.py: one draw from a list
# costs far less than the nested draws that would build the same strings.
_TAGS = ["N", "N", "VB", "ADJ", "ADV", "INT"]
_SYN_BODIES = st.sampled_from([
    f"{tag} {lemmas}" for tag in _TAGS
    for lemmas in [*_GRAPH_LEMMAS, *map(";".join, itertools.permutations(_GRAPH_LEMMAS, 2))]
])
_RELATION_NAMES = ["hypernym", "hyponym"] * 4 + [rel.value for rel in RelationType]
_RELS = [st.sampled_from([f"REL {rel} s{a} s{b}" for rel in _RELATION_NAMES
                          for a in range(n) for b in range(n)]) for n in range(9)]


@st.composite
def _graph_lexicons(draw) -> str:
    """A few synsets over a few lemmas and edges of every relation type
    between them, so that seeds share hypernyms and hyponyms; the records in
    any order, so edges refer forward."""
    n = draw(st.integers(1, 8))
    lines = [f"SYN s{i} {draw(_SYN_BODIES)}" for i in range(n)]
    lines += draw(st.lists(_RELS[n], max_size=20))
    return "\n".join(draw(st.permutations(lines)))


_WORDS = _GRAPH_LEMMAS * 4 + _LEMMAS
_GROUPS = st.lists(
    st.sampled_from([*_WORDS, *(f"{word} @1 {ref}" for word in _WORDS[::3] for ref in _WORDS[1::3])]),
    min_size=1, max_size=3,
).map(", ".join)
_PARAGRAPHS = st.builds(
    lambda tag, groups: f"#PARA {tag}\n" + "\n".join(group + ";" for group in groups),
    st.sampled_from(_TAGS), st.lists(_GROUPS, min_size=1, max_size=4),
)
_KBS = st.lists(_PARAGRAPHS, min_size=1, max_size=4).map(
    lambda paragraphs: parse_source("#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n" + "\n".join(paragraphs)).kb
)


def _paragraph_targets(kb: ThesaurusKB) -> list:
    return [
        Address(cls.number, sec.number, head.number, pos, idx)
        for cls in kb.classes for sec in cls.sections for head in sec.heads
        for pos, idx, _ in paragraph_positions(head)
    ]


def _assert_scoped_reads_as_the_whole(kb: ThesaurusKB, text: str, every_lemma: bool) -> None:
    """Through a bundle, the part ``resource_of`` reads gives the labels of
    every paragraph, and the mini-net of every keyword at its paragraph's
    part of speech, that the whole graph gives; with ``every_lemma``, also
    the mini-net of every lemma of the lexicon, a blank and an unknown
    string at every part of speech. On a malformed lexicon it raises the
    reference loader's error."""

    def bundle() -> KBBundle:  # a fresh bundle: ``resource`` is not built yet
        return KBBundle("", meta=None, lex_text=text, path="lexicon.kb")

    targets = _paragraph_targets(kb)
    queries = [(kb.resolve(target).keyword, target.pos) for target in targets]
    try:
        reference_load_resource(text)
    except LexiconError as exc:
        for lemma, pos in [("zzz", PartOfSpeech.NOUN), *queries[:3]]:
            with pytest.raises(BundleError) as raised:
                bundle().resource_of(lemma, pos)
            cause = raised.value.__cause__
            assert (cause.line, cause.message) == (exc.line, exc.message)
        return
    whole = bundle().resource
    if every_lemma:
        queries += [(lemma, pos) for lemma in ["", "zzz", *sorted(whole.all_lemmas())]
                    for pos in PartOfSpeech]
    for lemma, pos in queries:
        scoped = bundle().resource_of(lemma, pos)
        assert build_mini_net(scoped, lemma, pos) == build_mini_net(whole, lemma, pos)
    for target in targets:
        scoped = bundle().resource_of(kb.resolve(target).keyword, target.pos)
        for match in (True, False):
            assert label_paragraph(kb, scoped, target, match_cross_refs=match) == (
                label_paragraph(kb, whole, target, match_cross_refs=match)
            )


class TestScopedRead:
    """``load_neighbourhood`` keeps only what one mini-net reads, and reads
    as the whole graph does for it."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lexicon_soups(), _graph_lexicons()), _KBS)
    def test_against_the_whole_graph(self, text, kb):
        _assert_scoped_reads_as_the_whole(kb, text, every_lemma=True)

    @settings(max_examples=200, deadline=None)
    @given(_graph_lexicons())
    def test_a_proven_graph_reads_as_the_checked_read(self, text):
        """Ended by a line feed, a graph lexicon is strict: the proof's read
        of every lemma's neighbourhood is the checked reader's."""
        text += "\n"
        assert _proven(text)
        _assert_neighbourhoods_as_the_checked_read(text, _GRAPH_LEMMAS)

    @settings(max_examples=1, deadline=None)
    @given(st.integers(0, 2**16))
    def test_against_the_whole_graph_on_a_generated_corpus(self, perfbench_corpus, seed):
        corpus = perfbench_corpus.generate(seed, scale=0.02)
        kb = parse_source(corpus.canonical).kb
        _assert_scoped_reads_as_the_whole(kb, corpus.lexicon, every_lemma=False)
        damaged = corpus.lexicon + "REL hypernym ghost.n.1 x\n"
        _assert_scoped_reads_as_the_whole(kb, damaged, every_lemma=False)

    def test_keeps_only_the_neighbourhood(self, res_dec):
        text = fixture_text("decrement.lex")
        part = load_neighbourhood(text, " Decrement ", PartOfSpeech.NOUN)
        # the two seeds, their hypernyms and every hyponym of those
        want = {s.id for sense in build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN).senses
                for s in (sense.seed, *(t for _, group in sense.reached for t in group))}
        assert set(part.synsets) == want
        assert [s.id for s in part.synsets.values()] == [i for i in res_dec.synsets if i in want]
        assert part.edges == tuple(e for e in res_dec.edges if e in set(part.edges))
        assert "leak.n.1" not in part.synsets
        assert load_neighbourhood(text, "decrement", PartOfSpeech.VERB).synsets == {}
        # a blank lemma is no synset's, though a lemma field may hold a blank
        assert load_neighbourhood("SYN a.n.1 N x;;y\n", "", PartOfSpeech.NOUN).synsets == {}

    @pytest.mark.parametrize("lemma, pos, passes", [
        ("decrement", PartOfSpeech.NOUN, 2),
        ("decrement", PartOfSpeech.VERB, 1),  # no verb synset holds it
        ("zzz", PartOfSpeech.NOUN, 1),
        ("", PartOfSpeech.NOUN, 1),
    ])
    def test_a_read_that_reaches_nothing_is_its_checks_alone(self, monkeypatch, lemma, pos,
                                                            passes):
        """The second pass, which reads the synsets the kept edges reach, is
        made only when a synset of ``pos`` holds the lemma."""
        text, calls, chunks = fixture_text("decrement.lex"), [], lexnet._chunks
        monkeypatch.setattr(lexnet, "_chunks", lambda text: calls.append(1) or chunks(text))
        part = load_neighbourhood(text, lemma, pos)
        assert len(calls) == passes
        assert (part == SynsetResource(synsets={}, edges=())) == (passes == 1)
