"""The whole-KB commands read a proven canonical text and build no tree.

``parser._tallies`` gives each head of such a text the tally that
``ThesaurusKB.tally_heads`` gives the text's KB, and the oracles' own
recount (``stats_rows``) agrees with the tables built from it. ``stats`` and
``export structured`` of a bundle storing the text print, byte for byte,
what they print for a re-signed copy that is not canonical (which the
load parses and keeps as its canonical text), and what the reference
renderers print.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rogetkb import bundle as bundle_module
from rogetkb.aligner import _class_table, _head_table, _pos_shares
from rogetkb.bundle import load_bundle, structured_document
from rogetkb.cli import main
from rogetkb.lexnet import lexicon_lemmas
from rogetkb.model import ThesaurusKB
from rogetkb.parser import _classes, _tallies, canonical_heads, serialize_kb
from rogetkb.text import normalize, strip_gloss

from corpusgen import fixture_text
from oracles import (
    reference_parse_source, reference_stats, reference_structured_document, stats_rows,
)
from soups import GROUP_LIKE_SOURCE, canonical_sources, group_like_names

runner = CliRunner()

_DRAWN = st.one_of(canonical_sources(edited=True), group_like_names())
# which of a KB's candidate lemmas a drawn lexicon holds (None: no lexicon)
_MASKS = st.one_of(st.none(), st.integers(0, 2**40))


def _candidates(kb: ThesaurusKB) -> list[str]:
    """Strings a lexicon may hold to meet the KB: every entry text and head
    name, with and without its gloss, and one string the KB does not hold."""
    names = [head.name for _, _, head in kb.walk_heads()]
    found = kb.entry_strings() | {normalize(name) for name in names + list(map(strip_gloss, names))}
    return sorted(found - {""}) + ["not held anywhere"]


def _lexicon(kb: ThesaurusKB, mask: Optional[int]) -> Optional[str]:
    """A lexicon of one synset per candidate that ``mask`` picks, or None."""
    if mask is None:
        return None
    picked = [word for i, word in enumerate(_candidates(kb)) if mask >> (i % 41) & 1]
    return "".join(f"SYN s{i}.n.1 N {word}\n" for i, word in enumerate(picked))


def _tree_rows(kb: ThesaurusKB, strings: frozenset = frozenset()) -> list:
    return [(cls.number, head.number, head.name, tally)
            for cls, head, tally in kb.tally_heads(strings)]


def _assert_tallies_are_the_trees(text: str, lemmas: Optional[frozenset]) -> None:
    heads = canonical_heads(text)
    kb = reference_parse_source(text).kb
    strings = lemmas or frozenset()
    common = strings & kb.entry_strings()
    found: set[str] = set()
    seen: set[str] = set()
    rows = list(_tallies(text, heads, strings, found, seen))
    assert rows == _tree_rows(kb, common)
    assert found == common and seen == kb.entry_strings()
    assert list(_tallies(text, heads)) == _tree_rows(kb)
    classes = _classes(text, heads)
    assert classes == [(cls.number, len(cls.sections)) for cls in kb.classes]
    for strip in (False, True):
        want = stats_rows(kb, lemmas, strip_gloss=strip)
        report = _class_table(classes, iter(rows), common, strip)
        assert [asdict(row) for row in (*report.rows, report.total)] == [
            vars(row) for row in (*want.report.rows, want.report.total)
        ]
        assert [asdict(row) for row in _head_table(rows, strings, strip)] == [
            vars(row) for row in want.head_rows
        ]
        assert _pos_shares(rows) == want.shares


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_DRAWN, mask=_MASKS)
@example(text=GROUP_LIKE_SOURCE, mask=2**40 - 1)
@example(text=GROUP_LIKE_SOURCE, mask=None)
def test_the_text_tally_is_the_tree_tally(text, mask):
    if canonical_heads(text) is None:
        return
    lex_text = _lexicon(reference_parse_source(text).kb, mask)
    _assert_tallies_are_the_trees(text, None if lex_text is None else lexicon_lemmas(lex_text))


@pytest.mark.parametrize("with_lex", [False, True], ids=["bare", "lex"])
def test_the_text_tally_of_a_generated_corpus(perfbench_corpus, with_lex):
    corpus = perfbench_corpus.generate(5, scale=0.02)
    _assert_tallies_are_the_trees(
        corpus.canonical, lexicon_lemmas(corpus.lexicon) if with_lex else None
    )


# -- the commands ---------------------------------------------------------------

_CALLS = [
    ("stats", "pos"), ("stats", "class"), ("stats", "head"), ("stats", "class", "--strip-gloss"),
    ("stats", "head", "--strip-gloss", "--top", "2"),
    ("export", "structured"), ("export", "structured", "--strip-gloss"),
]


def _signed(path: Path, source: str, lex_text: Optional[str]) -> str:
    """A bundle storing ``source`` and ``lex_text`` as they are, under their
    own checksums; its source checksum."""
    checksum = hashlib.sha256(source.encode("utf-8")).hexdigest()
    path.write_text(json.dumps({
        "format": "rogetkb-bundle", "version": 1,
        "meta": {"sourceChecksum": checksum, "lexChecksum": None if lex_text is None
                 else hashlib.sha256(lex_text.encode("utf-8")).hexdigest()},
        "source": source, "lexicon": lex_text,
    }), encoding="utf-8")
    return checksum


def _never(*args, **kwargs):
    raise AssertionError("no tree may be built from a proven text")


def _outcome(args: tuple, kb: Path, out: Path) -> tuple:
    """stdout, stderr, exit code and the text written to ``out`` by one call."""
    out.unlink(missing_ok=True)
    extra = ["--out", str(out)] if args[0] == "export" else []
    result = runner.invoke(main, [*args, "--kb", str(kb), *extra])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    written = out.read_text(encoding="utf-8") if out.exists() else None
    return result.stdout, result.stderr, result.exit_code, written


def _assert_the_text_prints_as_the_tree(root: Path, text: str, lex_text: Optional[str]) -> None:
    """Every call of ``_CALLS`` on a bundle of the proven ``text`` builds no
    tree and prints what it prints for a re-signed copy that a comment
    line makes non-canonical, and what the reference renderers print."""
    proven, parsed, out = root / "proven.kb", root / "parsed.kb", root / "out.json"
    checksum = _signed(proven, text, lex_text)
    parsed_checksum = _signed(parsed, "// not canonical\n" + text, lex_text)
    lemmas = None if lex_text is None else lexicon_lemmas(lex_text)
    kb = reference_parse_source(text).kb
    for args in _CALLS:
        with mock.patch.object(bundle_module, "_canonical_kb", _never), \
                mock.patch.object(bundle_module, "parse_source", _never), \
                mock.patch.object(ThesaurusKB, "tally_heads", _never):
            got = _outcome(args, proven, out)
        want = _outcome(args, parsed, out)
        if want[3] is not None:
            want = (*want[:3], want[3].replace(parsed_checksum, checksum))
        assert got == want, args
        strip = "--strip-gloss" in args
        if args[0] == "stats":
            top = int(args[-1]) if "--top" in args else None
            rows = stats_rows(kb, lemmas, strip_gloss=strip)
            assert got[0] == reference_stats(rows, args[1], top=top)
        else:
            assert got[3] == reference_structured_document(load_bundle(proven), strip_gloss=strip)


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("text-tally")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_DRAWN, mask=_MASKS)
@example(text=GROUP_LIKE_SOURCE, mask=2**40 - 1)
@example(text=GROUP_LIKE_SOURCE, mask=None)
def test_a_proven_text_prints_as_its_tree(root, text, mask):
    if canonical_heads(text) is None:
        return
    _assert_the_text_prints_as_the_tree(root, text, _lexicon(reference_parse_source(text).kb, mask))


@pytest.mark.parametrize("with_lex", [False, True], ids=["bare", "lex"])
def test_a_proven_generated_corpus_prints_as_its_tree(root, perfbench_corpus, with_lex):
    corpus = perfbench_corpus.generate(5, scale=0.02)
    lex_text = corpus.lexicon if with_lex else None
    _assert_the_text_prints_as_the_tree(root, corpus.canonical, lex_text)


@pytest.mark.parametrize("name", ["head42.roget", "two_class.roget"])
def test_a_proven_fixture_prints_as_its_tree(root, name):
    text = serialize_kb(reference_parse_source(fixture_text(name)).kb)
    _assert_the_text_prints_as_the_tree(root, text, fixture_text("decrement.lex"))


def test_the_library_writer_streams_the_text_as_the_tree(perfbench_corpus, tmp_path):
    """``structured_document`` of a proven load, called in process, builds
    no tree, and writes the same once ``kb`` is built: the text stays."""
    corpus = perfbench_corpus.generate(5, scale=0.02)
    _signed(tmp_path / "corpus.kb", corpus.canonical, corpus.lexicon)
    bundle = load_bundle(tmp_path / "corpus.kb", lemmas=True)
    assert "kb" not in vars(bundle) and bundle.lemmas is not None
    streamed = io.StringIO()
    with mock.patch.object(bundle_module, "_canonical_kb", _never):
        structured_document(bundle, streamed)
    assert "kb" not in vars(bundle)
    bundle.kb
    assert bundle.canonical_text == corpus.canonical
    built = io.StringIO()
    structured_document(bundle, built)
    assert streamed.getvalue() == built.getvalue()
