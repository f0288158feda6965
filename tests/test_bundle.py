from __future__ import annotations

import hashlib
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rogetkb.bundle import (
    BuildMeta, BundleError, KBBundle, load_bundle, structured_document, write_bundle,
)
from rogetkb.fixtures import fixture_text
from rogetkb.lexnet import lexicon_lemmas, load_resource
from rogetkb.model import RogetClass, ThesaurusKB
from rogetkb.parser import parse_source
from oracles import reference_structured_document
from soups import line_soups


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


def test_an_interrupted_load_leaves_no_child(tmp_path, monkeypatch, kb2):
    write_bundle(tmp_path / "two.kb", kb2, lex_text=fixture_text("decrement.lex"))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def interrupt(text):
        raise KeyboardInterrupt

    monkeypatch.setattr("rogetkb.bundle.parse_source", interrupt)
    with pytest.raises(KeyboardInterrupt):
        load_bundle(tmp_path / "two.kb", lemmas=True)
    assert forks == [1]
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
    assert (loaded.meta.errors, loaded.meta.warnings) == (0, len(result.warnings))


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
    return KBBundle(kb=kb, meta=meta, lex_text=lex_text, path="<memory>")


def _assert_streams_the_reference(bundle: KBBundle, strip_gloss: bool) -> None:
    out = io.StringIO()
    assert structured_document(bundle, out, strip_gloss=strip_gloss) is None
    assert out.getvalue() == reference_structured_document(bundle, strip_gloss=strip_gloss)


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
    _assert_streams_the_reference(_bundle(kb, lex_text), strip_gloss)


@pytest.mark.parametrize("seed", [1, 2])
def test_structured_document_of_a_generated_corpus(perfbench_corpus, seed):
    corpus = perfbench_corpus.generate(seed, scale=0.02)
    kb = parse_source(corpus.canonical).kb
    for lex_text in (None, corpus.lexicon):
        for strip_gloss in (False, True):
            _assert_streams_the_reference(_bundle(kb, lex_text), strip_gloss)
