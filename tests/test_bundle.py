from __future__ import annotations

import gc
import hashlib
import inspect
import io
import json
import os
import re
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rogetkb import bundle as bundle_module
from rogetkb.aligner import label_paragraph
from rogetkb.bundle import (
    BuildMeta, BundleError, KBBundle, _lemmas_alongside, load_bundle, structured_document,
    write_bundle,
)
from rogetkb.index import build_index
from rogetkb.lexnet import (
    LexiconError, SynsetResource, lexicon_lemmas, load_neighbourhood, load_resource,
)
from rogetkb.model import Address, AddressError, PartOfSpeech, RogetClass, ThesaurusKB
from rogetkb.parser import _canonical_kb, canonical_heads, parse_source, serialize_kb
from rogetkb.text import normalize
from corpusgen import fixture_text
from oracles import (
    reference_index, reference_parse_source, reference_structured_document, walk_paragraphs,
    warnings,
)
from soups import (
    GROUP_LIKE_SOURCE, canonical_sources, group_like_names, lexicon_soups, line_soups,
)
from test_cli import MALFORMED_BUNDLES


def test_write_renders_the_canonical_text_once(tmp_path, monkeypatch, kb2):
    kb = ThesaurusKB(kb2.classes)  # a fresh KB, equal to kb2
    calls = []
    render = ThesaurusKB.canonical_source
    monkeypatch.setattr(
        ThesaurusKB, "canonical_source", lambda self: calls.append(self) or render(self)
    )
    meta = write_bundle(tmp_path / "two.kb", kb)
    assert len(calls) == 1
    assert meta.source_checksum == hashlib.sha256(render(kb2).encode("utf-8")).hexdigest()
    assert load_bundle(tmp_path / "two.kb").kb == kb2


def test_empty_kb_stores_no_text_but_checksums_its_canonical_text(tmp_path):
    meta = write_bundle(tmp_path / "empty.kb", ThesaurusKB(()))
    doc = json.loads((tmp_path / "empty.kb").read_text(encoding="utf-8"))
    assert doc["source"] == ""
    assert meta.source_checksum == hashlib.sha256(b"\n").hexdigest()
    assert doc["meta"]["sourceChecksum"] == meta.source_checksum
    assert load_bundle(tmp_path / "empty.kb").kb == ThesaurusKB(())


def test_load_checks_the_stored_text_without_rendering_it(tmp_path, monkeypatch, kb2):
    written = write_bundle(tmp_path / "two.kb", kb2, lex_text=fixture_text("decrement.lex"))

    def render(self):
        raise AssertionError("load_bundle must not render the canonical text")

    monkeypatch.setattr(ThesaurusKB, "canonical_source", render)
    loaded = load_bundle(tmp_path / "two.kb")
    assert loaded.kb == kb2
    assert loaded.meta == written


def test_malformed_lexicon_raises_on_first_access(tmp_path, kb2):
    path = tmp_path / "bogus.kb"
    write_bundle(path, kb2, lex_text="BOGUS record\n")
    bundle = load_bundle(path)
    assert bundle.index.lookup("void")
    message = "^" + re.escape(f"bundle {path} carries a malformed lexicon: ")
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(BundleError, match=message):
            bundle.resource


@pytest.mark.parametrize("lex_text", [fixture_text("decrement.lex"), "", None],
                         ids=["fixture", "empty", "none"])
@pytest.mark.parametrize("first", ["resource", "lemmas"])
def test_resource_and_lemmas_in_either_order(tmp_path, kb2, lex_text, first):
    write_bundle(tmp_path / "two.kb", kb2, lex_text=lex_text)
    bundle = load_bundle(tmp_path / "two.kb")
    getattr(bundle, first)
    resource, lemmas = bundle.resource, bundle.lemmas
    if lex_text is None:
        assert (resource, lemmas) == (None, None)
        return
    want = load_resource(lex_text)
    assert (resource.synsets, resource.edges) == (want.synsets, want.edges)
    assert lemmas == want.all_lemmas() == lexicon_lemmas(lex_text)
    assert bundle.lemmas is lemmas and bundle.resource is resource  # both cached


@pytest.mark.parametrize("first", ["resource", "lemmas"])
def test_malformed_lexicon_raises_from_either_layer(tmp_path, kb2, first):
    path = tmp_path / "bogus.kb"
    write_bundle(path, kb2, lex_text="SYN a.n.1 N a\nBOGUS record\n")
    bundle = load_bundle(path)
    message = "^" + re.escape(f"bundle {path} carries a malformed lexicon: 2:error: ")
    for layer in (first, *({"resource", "lemmas"} - {first}), first):
        with pytest.raises(BundleError, match=message):
            getattr(bundle, layer)


@pytest.mark.parametrize("lex_text", [fixture_text("decrement.lex"), "", None],
                         ids=["fixture", "empty", "none"])
def test_load_with_lemmas_reads_the_lemma_set_at_load(tmp_path, monkeypatch, kb2, lex_text):
    """``load_bundle(path, lemmas=True)`` builds ``lemmas`` as the load, in a
    child process: the parent never reads the lexicon itself."""
    write_bundle(tmp_path / "two.kb", kb2, lex_text=lex_text)
    parent, reads = os.getpid(), []

    def read_in_parent(text):
        if os.getpid() == parent:
            reads.append(text)
        return lexicon_lemmas(text)

    monkeypatch.setattr("rogetkb.bundle.lexicon_lemmas", read_in_parent)
    bundle = load_bundle(tmp_path / "two.kb", lemmas=True)
    assert "lemmas" in vars(bundle)  # built, not pending
    assert bundle.lemmas == (None if lex_text is None else lexicon_lemmas(lex_text))
    assert reads == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_load_with_lemmas_raises_a_malformed_lexicon_after_the_checksums(tmp_path, kb2):
    path = tmp_path / "bogus.kb"
    write_bundle(path, kb2, lex_text="SYN a.n.1 N a\nBOGUS record\n")
    assert load_bundle(path).kb == kb2  # the lexicon is not read without need
    message = "^" + re.escape(f"bundle {path} carries a malformed lexicon: 2:error: ")
    with pytest.raises(BundleError, match=message):
        load_bundle(path, lemmas=True)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["source"] += "\n"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(BundleError, match="failed its source checksum$"):
        load_bundle(path, lemmas=True)


@pytest.mark.parametrize("builder", ["canonical_heads", "parse_source"],
                         ids=["canonical", "not-canonical"])
def test_an_interrupted_load_leaves_no_child(tmp_path, monkeypatch, kb2, builder):
    """The source is proven, and for a re-signed copy that is not canonical
    parsed, while the child reads; a canonical one is not built."""
    source = serialize_kb(kb2)
    if builder == "parse_source":
        source = source.replace(", ", ",  ", 1)
    _signed(tmp_path / "two.kb", source, fixture_text("decrement.lex"))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def interrupt(text):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"rogetkb.bundle.{builder}", interrupt)
    with pytest.raises(KeyboardInterrupt):
        load_bundle(tmp_path / "two.kb", lemmas=True)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _lemmas_or_error(read) -> object:
    """``read()``, or the line and message of the LexiconError it raises."""
    try:
        return read()
    except LexiconError as exc:
        return exc.line, exc.message


@settings(max_examples=100, deadline=None)
@given(text=lexicon_soups(), keep=st.booleans())
def test_the_worker_answers_as_lexicon_lemmas(text, keep):
    """Inside ``_lemmas_alongside``, one forked child reads ``text`` and the
    parent does not; the answer is the lemma set, or the error, that
    ``lexicon_lemmas`` gives (None in place of the set unless ``keep``), and
    no child is left."""
    parent, forks, reads, fork = os.getpid(), [], [], os.fork

    def read_in_parent(text):
        if os.getpid() == parent:
            reads.append(text)
        return lexicon_lemmas(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", lambda: forks.append(1) or fork())
        patch.setattr("rogetkb.bundle.lexicon_lemmas", read_in_parent)
        with _lemmas_alongside(text, keep) as read:
            got = _lemmas_or_error(read)
    want = _lemmas_or_error(lambda: lexicon_lemmas(text))
    if not keep and isinstance(want, frozenset):
        want = None
    assert (got, forks, reads) == (want, [1], [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_renders_the_document_as_json_dumps_does(tmp_path, kb42):
    lex_text = "SYN a.n.1 N caf\u00e9 | \u201cquoted\u201d \\ tab\t\n"
    meta = write_bundle(tmp_path / "42.kb", kb42, lex_text=lex_text)
    document = {
        "format": "rogetkb-bundle",
        "version": 1,
        "meta": {
            "sourceChecksum": meta.source_checksum,
            "lexChecksum": meta.lex_checksum,
            "diagnostics": {"errors": 0, "warnings": 0},
        },
        "source": kb42.canonical_source(),
        "lexicon": lex_text,
    }
    want = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    assert (tmp_path / "42.kb").read_bytes() == want.encode("utf-8")


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bundles") / "soup.kb"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups(), with_lex=st.booleans())
def test_every_bundle_build_writes_loads_to_an_equal_kb(bundle_path, text, with_lex):
    result = parse_source(text)
    assume(result.kb is not None)
    lex_text = fixture_text("decrement.lex") if with_lex else None
    write_bundle(bundle_path, result.kb, result.diagnostics, lex_text)
    loaded = load_bundle(bundle_path)
    assert loaded.kb == result.kb
    assert (loaded.resource is None) == (lex_text is None)
    assert (loaded.meta.errors, loaded.meta.warnings) == (0, len(warnings(result)))


@pytest.mark.parametrize("field", ["source", "lexicon"])
def test_lone_surrogate_fails_the_checksum(tmp_path, kb2, field):
    """A JSON escape such as "\\ud800" loads as a lone surrogate, which has
    no UTF-8 form and so no sha256 that a recorded checksum could match."""
    path = tmp_path / "two.kb"
    write_bundle(path, kb2, lex_text=fixture_text("decrement.lex"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[field] += "\ud800"
    path.write_text(json.dumps(doc), encoding="utf-8")  # as the escape \ud800
    message = f"^bundle {re.escape(str(path))} failed its {field} checksum$"
    with pytest.raises(BundleError, match=message):
        load_bundle(path)


def _bundle(kb: ThesaurusKB, lex_text=None) -> KBBundle:
    meta = BuildMeta(source_checksum="0" * 64, lex_checksum=None, errors=0, warnings=0)
    return KBBundle(serialize_kb(kb), meta, lex_text, "<memory>")


def _assert_streams_the_reference(bundle: KBBundle, strip_gloss: bool) -> None:
    out = io.StringIO()
    assert structured_document(bundle, out, strip_gloss=strip_gloss) is None
    doc = out.getvalue()
    assert doc == reference_structured_document(bundle, strip_gloss=strip_gloss)
    # the README's layout promise, checked without a reference builder
    assert json.dumps(json.loads(doc), indent=2, ensure_ascii=False) + "\n" == doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=line_soups(), with_lex=st.booleans(), strip_gloss=st.booleans())
def test_structured_document_streams_the_reference_bytes(text, with_lex, strip_gloss):
    kb = parse_source(text).kb
    assume(kb is not None)
    lex_text = fixture_text("decrement.lex") if with_lex else None
    _assert_streams_the_reference(_bundle(kb, lex_text), strip_gloss)


@pytest.mark.parametrize("with_lex", [False, True])
@pytest.mark.parametrize("strip_gloss", [False, True])
@pytest.mark.parametrize("kb", [
    ThesaurusKB(()),
    ThesaurusKB((RogetClass(1, "no sections", ()),)),
], ids=["empty", "childless-class"])
def test_structured_document_of_empty_levels(kb, with_lex, strip_gloss):
    lex_text = fixture_text("decrement.lex") if with_lex else None
    if kb.classes:  # no text parses to a class without sections
        with pytest.raises(BundleError, match="^bundle <memory> contains an unparseable source"):
            _bundle(kb, lex_text)
        return
    _assert_streams_the_reference(_bundle(kb, lex_text), strip_gloss)


@pytest.mark.parametrize("seed", [1, 2])
def test_structured_document_of_a_generated_corpus(perfbench_corpus, seed):
    corpus = perfbench_corpus.generate(seed, scale=0.02)
    kb = parse_source(corpus.canonical).kb
    for lex_text in (None, corpus.lexicon):
        for strip_gloss in (False, True):
            _assert_streams_the_reference(_bundle(kb, lex_text), strip_gloss)


# -- the proven load ------------------------------------------------------------


def _signed(path, source: str, lex_text=None) -> None:
    """A bundle storing ``source`` and ``lex_text`` as they are, under their
    own checksums."""
    checksum = hashlib.sha256((source or "\n").encode("utf-8")).hexdigest()
    lex_checksum = (None if lex_text is None
                    else hashlib.sha256(lex_text.encode("utf-8")).hexdigest())
    path.write_text(json.dumps({
        "format": "rogetkb-bundle", "version": 1,
        "meta": {"sourceChecksum": checksum, "lexChecksum": lex_checksum},
        "source": source, "lexicon": lex_text,
    }), encoding="utf-8")


def _never(*args):
    raise AssertionError("the general parser must not run")


def _resolved(kb: ThesaurusKB, address: Address):
    try:
        return kb.resolve(address)
    except AddressError as exc:
        return str(exc)


def _assert_scoped_answers_as_the_whole(path, words) -> None:
    """Each ``kb_of`` of a load of a canonical source answers the index
    lookup and both ``resolve`` calls of every word, and every paragraph
    address of every head, present or not, as the whole KB does; none of it
    builds the whole KB, and once ``kb`` is read ``kb_of`` builds the same."""
    whole = load_bundle(path).kb
    index = build_index(whole)
    bundle = load_bundle(path)
    for word in words:
        kb = bundle.kb_of(words=[word])
        found = build_index(kb, [word]).lookup(word)
        assert found == bundle.index_of([word]).lookup(word) == index.lookup(word), word
        for address in found:
            for depth in (3, 5):
                prefix = Address(*address[:depth])
                assert kb.resolve(prefix) == whole.resolve(prefix)
    numbers = [head.number for _, _, head in whole.walk_heads()]
    for number in [*numbers, max(numbers, default=0) + 1]:
        kb = bundle.kb_of(heads=[number])
        place = whole.head_address(number)
        assert kb.head_address(number) == place
        if place is None:
            continue
        head = whole.resolve(place)
        for pos in PartOfSpeech:
            for index_ in range(len(head.pos_paragraphs(pos)) + 1):
                target = Address(*place[:3], pos, index_)
                assert _resolved(kb, target) == _resolved(whole, target)
    assert "kb" not in vars(bundle)
    scoped = bundle.kb_of(words=words[:1]), bundle.kb_of(heads=numbers[:1])
    assert bundle.kb == whole
    assert (bundle.kb_of(words=words[:1]), bundle.kb_of(heads=numbers[:1])) == scoped


def _queries(kb: ThesaurusKB) -> list[str]:
    """Every entry string, spelled as stored, in upper case and padded with
    whitespace, a substring of each, and misses."""
    words = []
    for text in sorted(kb.entry_strings()):
        words += [text, text.upper(), f" \t{text.replace(' ', '  ')} ", text[1:], text[:-1]]
    return words + _MISSES


# no entry's text: blank, unknown, or holding what separates entries and references
_MISSES = ["", " ", "zeppelin", "a, b", "x @1 y", ";", "@"]


@pytest.fixture(scope="module")
def signed_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scoped") / "signed.kb"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(canonical_sources(edited=False), canonical_sources()))
def test_a_scoped_load_answers_as_the_whole_kb(signed_path, text):
    if canonical_heads(text) is None:
        return
    _signed(signed_path, text)
    _assert_scoped_answers_as_the_whole(signed_path, _queries(parse_source(text).kb))


@pytest.mark.parametrize("seed", [1, 2])
def test_a_scoped_load_of_a_generated_corpus_answers_as_the_whole_kb(
    perfbench_corpus, tmp_path, seed
):
    corpus = perfbench_corpus.generate(seed, scale=0.02)
    _signed(tmp_path / "corpus.kb", corpus.canonical)
    # the hottest words, some rare ones and their spellings: every word
    # would parse a thousand scoped KBs
    queries = _queries(parse_source(corpus.canonical).kb)
    _assert_scoped_answers_as_the_whole(tmp_path / "corpus.kb", queries[:40] + queries[-200:] + [
        spelling for word in corpus.words[:10] for spelling in (word, word.upper(), f" {word}")
    ])


def _assert_postings_read_as_the_whole_kb(path, text: str, words: list[str]) -> None:
    """The ``lookup`` rows and ``index_of`` of a load of the canonical
    ``text`` answer every word as ``reference_index`` of the reference
    parse does, with the head name and keyword that ``resolve`` gives, while
    neither builder nor the index walk may run."""
    whole = reference_parse_source(text).kb
    index = reference_index(whole)
    bundle = load_bundle(path)
    with mock.patch.object(bundle_module, "_canonical_kb", _never), \
            mock.patch.object(bundle_module, "build_index", _never):
        for word in words:
            found = index.lookup(word)
            assert bundle._rows(word) == [
                (address, whole.resolve(Address(*address[:3])).name,
                 whole.resolve(Address(*address[:5])).keyword)
                for address in found
            ], word
        assert bundle.index_of(words).entries == {
            key: index.entries[key] for key in map(normalize, words) if key in index.entries
        }
    assert "kb" not in vars(bundle)


# the words of the names group_like_names gives a class, section or head
_NAME_WORDS = ["a", "b", "q", "r", "w", "x", "y", "z", "7 x", "a; b", "y @7 x"]


def _group_spans(kb: ThesaurusKB) -> list[str]:
    """Text as it stands in a group line but no entry's text: two entries
    and the ", " between them, and an entry with its cross-references."""
    spans = []
    for _, _, head in kb.walk_heads():
        for para in head.paragraphs:
            for group in para.groups:
                spans += [entry.render() for entry in group.entries if entry.cross_refs]
                if len(group.entries) > 1:
                    spans.append(f"{group.entries[0].text}, {group.entries[1].text}")
    return spans


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(canonical_sources(), group_like_names()))
@example(text=GROUP_LIKE_SOURCE)
def test_a_proven_text_gives_the_postings_of_the_whole_kb(signed_path, text):
    if canonical_heads(text) is None:
        return
    _signed(signed_path, text)
    kb = parse_source(text).kb
    _assert_postings_read_as_the_whole_kb(
        signed_path, text, _queries(kb) + _group_spans(kb) + _NAME_WORDS
    )


def test_a_proven_generated_corpus_gives_the_postings_of_the_whole_kb(perfbench_corpus, tmp_path):
    """Every entry string as stored, and every spelling of one in 25: each
    query costs a search of the whole text."""
    text = perfbench_corpus.generate(3, scale=0.05).canonical
    _signed(tmp_path / "corpus.kb", text)
    kb = parse_source(text).kb
    strings = sorted(kb.entry_strings())
    words = strings + _MISSES + _group_spans(kb)[::25]
    for string in strings[::25]:
        words += [string.upper(), f" \t{string.replace(' ', '  ')} ", string[1:], string[:-1]]
    _assert_postings_read_as_the_whole_kb(tmp_path / "corpus.kb", text, words)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(line_soups(), canonical_sources(edited=True)))
@example(text="")
def test_every_load_holds_a_proven_canonical_text(signed_path, text):
    """A bundle storing any text that parses, under its own checksum, loads
    holding ``serialize_kb`` of the reference parser's KB, which
    ``canonical_heads`` proves; one storing a text that does not parse
    raises the load's parse error."""
    _signed(signed_path, text)
    kb = reference_parse_source(text).kb
    if kb is None:
        message = f"bundle {signed_path} contains an unparseable source document"
        with pytest.raises(BundleError, match="^" + re.escape(message) + "$"):
            load_bundle(signed_path)
        return
    bundle = load_bundle(signed_path)
    assert bundle.canonical_text == serialize_kb(kb)
    assert canonical_heads(bundle.canonical_text) is not None
    assert bundle.kb == kb


def test_a_scoped_load_parses_a_non_canonical_source_as_the_eager_load(tmp_path, kb2):
    """A source that is not canonical is parsed at load and kept as its
    canonical text, which answers as a load of that text does."""
    write_bundle(tmp_path / "canonical.kb", kb2)
    canonical = load_bundle(tmp_path / "canonical.kb")
    for source in (fixture_text("two_class.roget"), serialize_kb(kb2).replace(", ", ",  ", 1)):
        _signed(tmp_path / "two.kb", source)
        bundle = load_bundle(tmp_path / "two.kb")
        assert "kb" not in vars(bundle) and bundle.canonical_text == serialize_kb(kb2)
        assert bundle.kb_of(words=["void"]) == canonical.kb_of(words=["void"])
        assert bundle.kb_of(heads=[1]) == canonical.kb_of(heads=[1])
        assert bundle.kb == kb2


def test_a_load_of_a_canonical_source_builds_no_layer(tmp_path, kb2):
    write_bundle(tmp_path / "two.kb", kb2)
    bundle = load_bundle(tmp_path / "two.kb")
    assert type(bundle) is KBBundle
    assert not {"kb", "index", "resource", "lemmas"} & set(vars(bundle))
    assert bundle.canonical_text == serialize_kb(kb2)
    scoped = bundle.kb_of(words=["void"])
    assert scoped != kb2
    assert bundle.kb == kb2 and bundle.kb_of(words=["void"]) == scoped
    assert bundle.canonical_text == serialize_kb(kb2)  # kept once ``kb`` is built


def test_kb_of_answers_alike_before_and_after_kb_is_built(tmp_path, kb2):
    write_bundle(tmp_path / "two.kb", kb2)
    bundle = load_bundle(tmp_path / "two.kb")
    before = bundle.kb_of(words=["void"])
    assert bundle.kb == kb2
    assert bundle.kb_of(words=["void"]) == before != kb2


def test_one_query_makes_one_scoped_parse(tmp_path, monkeypatch, kb2):
    write_bundle(tmp_path / "two.kb", kb2)
    parsed = []
    build = _canonical_kb
    monkeypatch.setattr("rogetkb.bundle.parse_source", _never)
    monkeypatch.setattr(
        "rogetkb.bundle._canonical_kb", lambda text: parsed.append(text) or build(text)
    )
    bundle = load_bundle(tmp_path / "two.kb")
    assert parsed == []
    index = bundle.index_of(["void", "being"])
    assert parsed == []  # the postings are read from the proven text
    kb = bundle.kb_of(words=["void", "being"])
    assert [head.number for _, _, head in kb.walk_heads()] == [1, 2, 183]
    assert index.lookup("void") == build_index(kb2).lookup("void")
    assert len(parsed) == 1
    bundle.kb_of(heads=[9])
    assert len(parsed) == 2 and parsed[1].startswith("#CLASS 1 Abstract Relations\n#SECTION 2 ")


# -- the collector ---------------------------------------------------------------


# the bodies of the builders that allocate what the library keeps
_BUILDERS = {
    inspect.unwrap(build).__code__ for build in (
        parse_source, _canonical_kb, build_index, load_resource, load_neighbourhood,
        lexicon_lemmas, SynsetResource.lemma_index.func, SynsetResource._neighbour_ids.func,
        ThesaurusKB._nodes.func, ThesaurusKB._head_places.func,
    )
}


def _label_once(path):
    """``resource`` and one ``label_paragraph``, which fills both tables of
    the resource, ``lemma_index`` and ``_neighbour_ids``."""
    bundle = load_bundle(path)
    target = Address(1, 3, 42, PartOfSpeech.NOUN, 0)
    assert label_paragraph(bundle.kb, bundle.resource, target).keyword == "decrement"
    assert {"lemma_index", "_neighbour_ids"} <= bundle.resource.__dict__.keys()


_LIBRARY_CALLS = {
    "load_bundle": lambda path: load_bundle(path),
    "load_bundle-kb": lambda path: load_bundle(path).kb,
    "load_bundle-kb_of": lambda path: load_bundle(path).kb_of(words=["toll"]),
    "kb-resolve": lambda path: load_bundle(path).kb.resolve(Address.parse("1.3.42:N:0")),
    "kb-head_address": lambda path: load_bundle(path).kb.head_address(42),
    "load_bundle-lemmas": lambda path: load_bundle(path, lemmas=True),
    "index": lambda path: load_bundle(path).index,
    "resource-label": _label_once,
    "resource_of": lambda path: load_bundle(path).resource_of("decrement", PartOfSpeech.NOUN),
    "lemmas": lambda path: load_bundle(path).lemmas,
    "parse_source": lambda path: parse_source(fixture_text("head42.roget")),
    "build_index": lambda path: build_index(parse_source(fixture_text("two_class.roget")).kb),
    "load_resource": lambda path: load_resource(fixture_text("decrement.lex")),
}


class TestLibraryCollectorScope:
    """Every builder of a library layer runs with the cyclic collector
    paused and hands the caller's setting back, however it ends. The
    calls' own few allocations outside the builders are not paused."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory, kb42):
        path = tmp_path_factory.mktemp("collector") / "head42.kb"
        write_bundle(path, kb42, lex_text=fixture_text("decrement.lex"))
        return path

    @pytest.fixture
    def collections(self):
        """The builder in whose body each collection started, with a
        threshold that starts one at almost every allocation."""
        seen = []

        def count(phase, info):
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                if frame.f_code in _BUILDERS:
                    seen.append(frame.f_code.co_name)
                    break
                frame = frame.f_back

        enabled, threshold = gc.isenabled(), gc.get_threshold()
        gc.set_threshold(1)
        gc.callbacks.append(count)
        try:
            yield seen
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            (gc.enable if enabled else gc.disable)()

    def test_the_counter_sees_a_builder_run_with_the_collector_on(self, collections):
        inspect.unwrap(parse_source)(fixture_text("head42.roget"))
        assert "parse_source" in collections

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("call", _LIBRARY_CALLS.values(), ids=_LIBRARY_CALLS.keys())
    def test_no_collection_starts_in_a_builder(self, path, collections, call, enabled):
        (gc.enable if enabled else gc.disable)()
        call(path)
        assert gc.isenabled() is enabled
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_a_malformed_lexicon_hands_the_setting_back(self, path, collections, kb42, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(LexiconError):
            load_resource(fixture_text("decrement.lex") + "REL hypernym ghost.n.1 decrement.n.1\n")
        assert gc.isenabled() is enabled
        bogus = path.with_name("bogus.kb")
        write_bundle(bogus, kb42, lex_text="SYN a.n.1 N a\nBOGUS record\n")
        with pytest.raises(BundleError):
            load_bundle(bogus).resource
        assert gc.isenabled() is enabled
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("mutate", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES.keys())
    def test_a_malformed_bundle_hands_the_setting_back(self, path, collections, mutate, enabled):
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate(doc)
        bad = path.with_name("malformed.kb")
        bad.write_text(json.dumps(doc), encoding="utf-8")
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(BundleError):
            load_bundle(bad, lemmas=True)
        assert gc.isenabled() is enabled
        assert collections == []
