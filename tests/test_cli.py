from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rogetkb import bundle as bundle_module
from rogetkb import cli as cli_module
from rogetkb.aligner import label_paragraph
from rogetkb.bundle import BundleError, load_bundle
from rogetkb.cli import main, render_labelled
from rogetkb.lexnet import load_neighbourhood, load_resource
from rogetkb.metrics import word_distance
from rogetkb.model import Address, PartOfSpeech
from rogetkb.parser import (
    ParseResult, _canonical_counts, _canonical_kb, _unknown_refs, canonical_heads, parse_source,
    serialize_kb,
)
from corpusgen import fixture_text
from oracles import (
    reference_index, reference_load_resource, reference_parse_source, reference_render_labelled,
    reference_stats, reference_structured_document, stats_rows, walk_paragraphs,
)
from soups import (
    GROUP_LIKE_SOURCE, canonical_sources, group_like_names, line_soups, signed_bundles,
    widest_paragraph,
)

runner = CliRunner()


def invoke(*args: str, expect: int = 0):
    result = runner.invoke(main, list(args))
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert result.exit_code == expect, result.stderr or result.stdout
    return result


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    (root / "head42.roget").write_text(fixture_text("head42.roget"), encoding="utf-8")
    (root / "two_class.roget").write_text(fixture_text("two_class.roget"), encoding="utf-8")
    (root / "decrement.lex").write_text(fixture_text("decrement.lex"), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def b42(workdir) -> str:
    out = workdir / "head42.kb"
    invoke(
        "build", str(workdir / "head42.roget"),
        "--lex", str(workdir / "decrement.lex"), "--out", str(out),
    )
    return str(out)


@pytest.fixture(scope="module")
def b42_bare(workdir) -> str:
    out = workdir / "head42_bare.kb"
    invoke("build", str(workdir / "head42.roget"), "--out", str(out))
    return str(out)


@pytest.fixture(scope="module")
def b2(workdir) -> str:
    out = workdir / "two_class.kb"
    invoke("build", str(workdir / "two_class.roget"), "--out", str(out))
    return str(out)


@pytest.fixture(scope="module")
def b2_lex(workdir) -> str:
    out = workdir / "two_class_lex.kb"
    invoke(
        "build", str(workdir / "two_class.roget"),
        "--lex", str(workdir / "decrement.lex"), "--out", str(out),
    )
    return str(out)


# a head number of 5,000 digits, past Python's default limit on int-string conversion
_LONG_HEAD_SOURCE = f"#CLASS 1 C\n#SECTION 1 S\n#HEAD {'7' * 5000} H\n#PARA N\nx;\n"


class TestBuild:
    def test_success_message_and_warnings(self, workdir):
        out = workdir / "again.kb"
        result = invoke(
            "build", str(workdir / "head42.roget"),
            "--lex", str(workdir / "decrement.lex"), "--out", str(out),
        )
        assert result.stdout == f"wrote {out}: 1 classes, 1 heads, 27 entries\n"
        warnings = result.stderr.splitlines()
        assert len(warnings) == 10
        assert all("warning: cross-reference to unknown head" in w for w in warnings)

    def test_missing_source_exits_2(self, workdir):
        result = invoke(
            "build", str(workdir / "absent.roget"),
            "--out", str(workdir / "x.kb"), expect=2,
        )
        assert "cannot read" in result.stderr

    def test_parse_errors_exit_1_and_write_nothing(self, workdir):
        bad = workdir / "bad.roget"
        bad.write_text("#CLASS 9 Out of range\n", encoding="utf-8")
        out = workdir / "bad.kb"
        result = invoke("build", str(bad), "--out", str(out), expect=1)
        assert "error:" in result.stderr
        assert not out.exists()

    def test_bad_lexicon_exits_1(self, workdir):
        badlex = workdir / "bad.lex"
        badlex.write_text("BOGUS record\n", encoding="utf-8")
        result = invoke(
            "build", str(workdir / "head42.roget"),
            "--lex", str(badlex), "--out", str(workdir / "y.kb"), expect=1,
        )
        assert "unknown record kind" in result.stderr

    def test_deterministic_bundles(self, workdir, b42):
        out = workdir / "repeat.kb"
        invoke(
            "build", str(workdir / "head42.roget"),
            "--lex", str(workdir / "decrement.lex"), "--out", str(out),
        )
        assert out.read_bytes() == Path(b42).read_bytes()

    @pytest.mark.parametrize(
        "marked", [{"head42.roget"}, {"decrement.lex"}, {"head42.roget", "decrement.lex"}]
    )
    def test_leading_byte_order_mark_is_skipped(self, workdir, b42, marked):
        paths = []
        for name in ("head42.roget", "decrement.lex"):
            path = workdir / name
            if name in marked:
                path = workdir / f"bom_{name}"
                path.write_bytes(b"\xef\xbb\xbf" + (workdir / name).read_bytes())
            paths.append(str(path))
        out = workdir / "bom.kb"
        invoke("build", paths[0], "--lex", paths[1], "--out", str(out))
        assert out.read_bytes() == Path(b42).read_bytes()

    def test_tampered_bundle_refuses_to_load(self, workdir, b42):
        doc = json.loads(Path(b42).read_text(encoding="utf-8"))
        doc["source"] = doc["source"].replace("toll", "tolls")
        tampered = workdir / "tampered.kb"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke("lookup", "toll", "--kb", str(tampered), expect=2)
        assert "checksum" in result.stderr


    def test_group_opening_with_directive_or_comment_exits_1(self, workdir):
        bad = workdir / "hash_group.roget"
        bad.write_text(
            "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H\n#PARA N\nx; #z;\n", encoding="utf-8"
        )
        out = workdir / "hash_group.kb"
        result = invoke("build", str(bad), "--out", str(out), expect=1)
        assert "5:error: semicolon group cannot start with '#z'" in result.stderr
        assert not out.exists()

    def test_non_decimal_digit_number_exits_1(self, workdir):
        bad = workdir / "superscript.roget"
        bad.write_text("#CLASS \u00b2 C\n", encoding="utf-8")
        out = workdir / "superscript.kb"
        result = invoke("build", str(bad), "--out", str(out), expect=1)
        assert "1:error: class number '\u00b2' is not a positive integer" in result.stderr
        assert not out.exists()

    def test_number_past_the_digit_limit_exits_1(self, workdir):
        bad = workdir / "long_number.roget"
        bad.write_text(_LONG_HEAD_SOURCE, encoding="utf-8")
        out = workdir / "long_number.kb"
        result = invoke("build", str(bad), "--out", str(out), expect=1)
        assert f"3:error: head number '{'7' * 5000}' is not a positive integer" in result.stderr
        assert not out.exists()

    def test_section_numbered_zero_exits_1(self, workdir):
        bad = workdir / "section0.roget"
        bad.write_text(
            "#CLASS 1 C\n#SECTION 0 S\n#HEAD 1 H\n#PARA N\nx;\n", encoding="utf-8"
        )
        out = workdir / "section0.kb"
        result = invoke("build", str(bad), "--out", str(out), expect=1)
        assert "2:error: section number '0' is not a positive integer" in result.stderr
        assert not out.exists()

    def test_non_utf8_source_exits_2(self, workdir):
        bad = workdir / "latin1.roget"
        bad.write_bytes("#CLASS 1 Caf\u00e9\n".encode("latin-1"))
        result = invoke("build", str(bad), "--out", str(workdir / "z.kb"), expect=2)
        assert "cannot read" in result.stderr

    @pytest.mark.parametrize("copy", ["crlf", "cr", "bom", "crlf-bom"])
    def test_a_lexicon_file_is_stored_as_the_text_read(self, workdir, copy):
        """``--lex`` is read with universal newlines and without a byte-order
        mark, and the bundle stores the text read, under its own checksum:
        a CRLF, CR-only or BOM copy builds the same bundle as the file."""
        data = (workdir / "decrement.lex").read_bytes()
        if "cr" in copy:
            data = data.replace(b"\n", b"\r\n" if "crlf" in copy else b"\r")
        if "bom" in copy:
            data = b"\xef\xbb\xbf" + data
        (workdir / f"decrement.{copy}.lex").write_bytes(data)
        source = workdir / "head42.roget"
        built = _builds(workdir, source, f"decrement.{copy}.lex", workdir / "copy.kb")
        assert built == _builds(workdir, source, "decrement.lex", workdir / "copy.kb")
        document = json.loads(built[3])
        assert "\r" not in document["lexicon"] and "\ufeff" not in document["lexicon"]
        assert document["meta"]["lexChecksum"] == hashlib.sha256(
            document["lexicon"].encode("utf-8")
        ).hexdigest()

    def test_out_in_missing_directory_exits_2(self, workdir):
        out = workdir / "absent-dir" / "out.kb"
        result = invoke("build", str(workdir / "two_class.roget"), "--out", str(out), expect=2)
        assert result.stderr.splitlines()[-1].startswith(f"error: cannot write {out}")
        assert result.stdout == ""
        assert not out.parent.exists()


def _builds(workdir: Path, source: Path, lex: Optional[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and bundle bytes (None when none is written)
    of ``build source --lex lex --out out``, from ``workdir``'s lexicon files."""
    out.unlink(missing_ok=True)
    lex_args = [] if lex is None else ["--lex", str(workdir / lex)]
    result = runner.invoke(main, ["build", str(source), *lex_args, "--out", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code, result.stdout, result.stderr, out.read_bytes() if out.exists() else None


def _proven_build_matches_the_parse(workdir: Path, source: Path, lex: Optional[str]) -> bool:
    """When the text ``build`` reads from ``source`` is proven canonical, the
    KB and diagnostics built from the proof are the reference parser's. Either
    way ``build`` gives what it gives with the proof refused: the same exit
    code, output and bundle bytes. The text's own count, which ``build``
    prints, is the reference KB's classes, heads and entries. Returns
    whether the text was proven."""
    text = source.read_text(encoding="utf-8-sig")
    heads = canonical_heads(text)
    if heads is not None:
        proven = ParseResult(_canonical_kb(text), _unknown_refs(text, heads))
        reference = reference_parse_source(text)
        assert proven == reference
        counts = reference.kb.count_nodes()
        assert _canonical_counts(text, heads) == (
            len(reference.kb.classes), counts.heads, counts.entries
        )
    out = workdir / "proven.kb"
    built = _builds(workdir, source, lex, out)
    with mock.patch("rogetkb.cli.canonical_heads", lambda text: None):
        assert _builds(workdir, source, lex, out) == built
    return heads is not None


# a group line holding the same reference to an undeclared head twice in
# one entry and once more in another, under a head whose name holds it too
_TWICE_DANGLING = (
    "#CLASS 1 C\n#SECTION 1 S\n#HEAD 1 H @7 x\n#PARA N\n"
    "x @7 y @7 y, z @7 y;\nw @1 h;\n"
)


class TestProvenBuild:
    """``build`` of a source in canonical form stores the text as read, and
    builds its KB and diagnostics without the general parser; any other
    source is parsed. Both give the same exit code, output and bundle."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.one_of(canonical_sources(edited=True), group_like_names()),
           lex=st.sampled_from([None, "decrement.lex"]))
    @example(text=GROUP_LIKE_SOURCE, lex=None)
    def test_any_canonical_text_or_edit_of_one(self, workdir, text, lex):
        source = workdir / "drawn.roget"
        source.write_bytes(text.encode("utf-8"))
        _proven_build_matches_the_parse(workdir, source, lex)

    @staticmethod
    def _canonical(name: str, perfbench_corpus) -> str:
        if name == "generated":
            return perfbench_corpus.generate(3, scale=0.05).canonical
        if name == "twice-dangling":
            return _TWICE_DANGLING
        return serialize_kb(reference_parse_source(fixture_text(name)).kb)

    @pytest.mark.parametrize("lex", [None, "decrement.lex", "absent.lex", "bad-kind.lex"])
    @pytest.mark.parametrize("copy", ["as-is", "crlf", "bom", "crlf-bom"])
    @pytest.mark.parametrize(
        "name", ["head42.roget", "two_class.roget", "generated", "twice-dangling"]
    )
    def test_canonical_sources(self, workdir, perfbench_corpus, name, copy, lex):
        """The fixtures' and a generated corpus's canonical exports, and a
        text whose group line references one undeclared head twice in an
        entry and again in the next, with CRLF line ends or a byte-order
        mark, which the read takes away, and with a good, a missing or a
        malformed lexicon."""
        (workdir / "bad-kind.lex").write_text("BOGUS record\n", encoding="utf-8")
        data = self._canonical(name, perfbench_corpus).encode("utf-8")
        if "crlf" in copy:
            data = data.replace(b"\n", b"\r\n")
        if "bom" in copy:
            data = b"\xef\xbb\xbf" + data
        source = workdir / f"{name}.{copy}.canon"
        source.write_bytes(data)
        assert _proven_build_matches_the_parse(workdir, source, lex)

    def test_a_write_error_after_the_proof(self, workdir):
        source = workdir / "head42.canon"
        source.write_text(self._canonical("head42.roget", None), encoding="utf-8")
        out = workdir / "absent-dir" / "out.kb"
        code, stdout, stderr, _ = _builds(workdir, source, "decrement.lex", out)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[-1].startswith(f"error: cannot write {out}")
        with mock.patch("rogetkb.cli.canonical_heads", lambda text: None):
            assert _builds(workdir, source, "decrement.lex", out) == (code, stdout, stderr, None)

    def test_a_canonical_source_is_neither_parsed_nor_serialized(self, workdir, b42,
                                                                 monkeypatch):
        source = workdir / "head42.canon"
        source.write_text(self._canonical("head42.roget", None), encoding="utf-8")
        expected = _builds(workdir, source, "decrement.lex", workdir / "pinned.kb")
        for name in ("cli.parse_source", "cli.serialize_kb", "cli.write_bundle",
                     "bundle.parse_source", "bundle.serialize_kb",
                     "model.ThesaurusKB.canonical_source"):
            monkeypatch.setattr(f"rogetkb.{name}", _raise)
        assert _builds(workdir, source, "decrement.lex", workdir / "pinned.kb") == expected
        assert expected[0] == 0 and expected[3] == Path(b42).read_bytes()

    @pytest.mark.parametrize("lex", [None, "decrement.lex"])
    @pytest.mark.parametrize(
        "name", ["head42.roget", "two_class.roget", "generated", "twice-dangling"]
    )
    def test_a_canonical_source_builds_no_tree(self, workdir, perfbench_corpus, monkeypatch,
                                               name, lex):
        """A proven text is counted from its lines: no knowledge base is
        built, by either builder, and none is counted."""
        source = workdir / f"{name}.tree-free.canon"
        source.write_text(self._canonical(name, perfbench_corpus), encoding="utf-8")
        expected = _builds(workdir, source, lex, workdir / "tree-free.kb")
        for name in ("parser._canonical_kb", "bundle._canonical_kb", "cli.parse_source",
                     "model.ThesaurusKB.count_nodes", "model.ThesaurusKB.__init__"):
            monkeypatch.setattr(f"rogetkb.{name}", _raise)
        assert _builds(workdir, source, lex, workdir / "tree-free.kb") == expected
        assert expected[0] == 0 and expected[3] is not None

    def test_any_other_source_is_parsed_and_serialized(self, workdir, b42, monkeypatch):
        """``build`` of ``head42.roget``, which is not canonical, parses it and
        writes the serialization of its KB through ``write_bundle``."""
        calls = []

        def counted(name: str):
            real = getattr(bundle_module if name == "serialize_kb" else cli_module, name)
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr("rogetkb.cli.parse_source", counted("parse_source"))
        monkeypatch.setattr("rogetkb.cli.write_bundle", counted("write_bundle"))
        monkeypatch.setattr("rogetkb.bundle.serialize_kb", counted("serialize_kb"))
        source = workdir / "head42.roget"
        assert canonical_heads(source.read_text(encoding="utf-8")) is None
        built = _builds(workdir, source, "decrement.lex", workdir / "parsed.kb")
        assert built[0] == 0 and built[3] == Path(b42).read_bytes()
        assert calls == ["parse_source", "write_bundle", "serialize_kb"]


def _rewritten(workdir: Path, bundle: str, mutate) -> str:
    """A copy of ``bundle`` whose document ``mutate`` has edited."""
    doc = json.loads(Path(bundle).read_text(encoding="utf-8"))
    mutate(doc)
    path = workdir / "rewritten.kb"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _set_source(doc: dict, text: str) -> None:
    doc["source"] = text
    doc["meta"]["sourceChecksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()


def _set_lexicon(doc: dict, text: str) -> None:
    doc["lexicon"] = text
    doc["meta"]["lexChecksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()


MALFORMED_BUNDLES = {
    "source-not-string": lambda doc: doc.update(source=42),
    "lexicon-not-string": lambda doc: doc.update(lexicon=["SYN a.n.1 N a"]),
    "meta-not-dict": lambda doc: doc.update(meta="sha"),
    "diagnostics-not-dict": lambda doc: doc["meta"].update(diagnostics=[0, 10]),
    "errors-not-integer": lambda doc: doc["meta"]["diagnostics"].update(errors="none"),
    "warnings-not-integer": lambda doc: doc["meta"]["diagnostics"].update(warnings=1.5),
    "errors-bool": lambda doc: doc["meta"]["diagnostics"].update(errors=True),
    "warnings-negative": lambda doc: doc["meta"]["diagnostics"].update(warnings=-5),
    "lexicon-malformed-checksum-matches": lambda doc: _set_lexicon(doc, "BOGUS record\n"),
    "wrong-format": lambda doc: doc.update(format="rogetkb-structured"),
    "unsupported-version": lambda doc: doc.update(version=99),
    # True == 1 and 1.0 == 1, but neither is the version 1
    "version-bool": lambda doc: doc.update(version=True),
    "version-float": lambda doc: doc.update(version=1.0),
    "unparseable-source": lambda doc: doc.update(source="#BOGUS\n"),
    "source-long-head-number-checksum-matches": lambda doc: _set_source(doc, _LONG_HEAD_SOURCE),
    "lexicon-checksum-mismatch": lambda doc: doc.update(lexicon=doc["lexicon"] + "\n"),
    # json.dumps writes a lone surrogate as the escape \ud800
    "source-lone-surrogate": lambda doc: doc.update(source=doc["source"] + "\ud800"),
    "lexicon-lone-surrogate": lambda doc: doc.update(lexicon=doc["lexicon"] + "\udfff"),
}


@pytest.mark.parametrize("mutate", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES.keys())
def test_malformed_bundle_exits_2(workdir, b42, mutate):
    bad = _rewritten(workdir, b42, mutate)
    result = invoke("stats", "class", "--kb", bad, expect=2)
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


def _load_error(path: str) -> Optional[str]:
    try:
        load_bundle(path)
    except BundleError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mutate", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES.keys())
def test_malformed_bundle_fails_the_scoped_load_alike(workdir, b42, mutate, monkeypatch):
    """A load raises the same error whether ``canonical_heads`` proves the
    source or the load parses it."""
    bad = _rewritten(workdir, b42, mutate)
    proven = _load_error(bad)
    monkeypatch.setattr("rogetkb.bundle.canonical_heads", lambda text: None)
    assert proven == _load_error(bad)


def test_non_utf8_bundle_exits_2(workdir):
    bad = workdir / "latin1.kb"
    bad.write_bytes('{"format": "rogetkb-bundle", "source": "caf\u00e9"}'.encode("latin-1"))
    result = invoke("stats", "class", "--kb", str(bad), expect=2)
    assert result.stderr.startswith("error: cannot read bundle")


def test_non_json_bundle_exits_2(workdir):
    bad = workdir / "not_json.kb"
    bad.write_text("#CLASS 1 C\n", encoding="utf-8")
    result = invoke("stats", "class", "--kb", str(bad), expect=2)
    assert result.stderr.startswith(f"error: bundle {bad} is not valid JSON")


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"format": "rogetkb-bundle", "version": ' + "1" * 5000 + "}",
], ids=["deeper-than-recursion-limit", "integer-past-digit-limit"])
def test_undecodable_json_bundle_exits_2(workdir, text):
    bad = workdir / "undecodable.kb"
    bad.write_text(text, encoding="utf-8")
    for args in (("lookup", "decrement"), ("stats", "pos")):
        result = invoke(*args, "--kb", str(bad), expect=2)
        assert result.stderr.startswith(f"error: bundle {bad} is not valid JSON")


def _raise(*args):
    raise AssertionError("this layer must not be built")


# (arguments after the subcommand, with {kb} and {out} filled in)
_LOOKUP = ("lookup", "decrement", "--kb", "{kb}")
_SIM = ("sim", "decrement", "shrinkage", "--kb", "{kb}")
_STATS_POS = ("stats", "pos", "--kb", "{kb}")
_STATS_CLASS = ("stats", "class", "--kb", "{kb}")
_STATS_HEAD = ("stats", "head", "--kb", "{kb}")
_LABEL = ("label", "42", "N", "--kb", "{kb}")
_EXPORT_CANONICAL = ("export", "canonical", "--kb", "{kb}", "--out", "{out}")
_EXPORT_STRUCTURED = ("export", "structured", "--kb", "{kb}", "--out", "{out}")


def _call(args: tuple, kb: str, out: Path, expect: int = 0):
    return invoke(*(a.format(kb=kb, out=out) for a in args), expect=expect)


class TestLazyLayers:
    """A command builds the index, the lexicon and the whole knowledge base
    only when it reads them, and runs the general parser only on a source
    that is not canonical."""

    @pytest.mark.parametrize("args", [_LOOKUP, _SIM, _STATS_POS, _EXPORT_CANONICAL],
                             ids=["lookup", "sim", "stats-pos", "export-canonical"])
    def test_commands_that_never_read_the_lexicon(self, workdir, b42, monkeypatch, args):
        monkeypatch.setattr("rogetkb.bundle.load_resource", _raise)
        _call(args, b42, workdir / "lazy.out")

    @pytest.mark.parametrize("args", [_LABEL, _STATS_POS, _STATS_CLASS, _STATS_HEAD,
                                      _EXPORT_CANONICAL, _EXPORT_STRUCTURED],
                             ids=["label", "stats-pos", "stats-class", "stats-head",
                                  "export-canonical", "export-structured"])
    def test_commands_that_never_read_the_index(self, workdir, b42, monkeypatch, args):
        monkeypatch.setattr("rogetkb.bundle.build_index", _raise)
        _call(args, b42, workdir / "lazy.out")

    @pytest.mark.parametrize("args, expect, stdout, stderr", [
        (_LOOKUP, 0, "1.3.42:N:0:0:0\tDecrement: thing deducted\tdecrement\n", ""),
        (("lookup", "zzzz", "--kb", "{kb}"), 0, "", ""),
        (("sim", "decrement", "allowance", "--kb", "{kb}"), 0,
         "distance=2 similarity=0.8333 lca=5 a=1.3.42:N:0:0:0 b=1.3.42:N:0:1:0\n", ""),
        (("sim", "decrement", "zzzz", "--kb", "{kb}"), 3, "", "error: word not indexed: zzzz\n"),
    ], ids=["lookup-hit", "lookup-miss", "sim", "sim-exit-3"])
    def test_single_queries_never_read_the_full_index(
        self, workdir, b42, monkeypatch, args, expect, stdout, stderr
    ):
        monkeypatch.setattr("rogetkb.bundle.KBBundle.index", property(_raise))
        result = _call(args, b42, workdir / "lazy.out", expect=expect)
        assert (result.stdout, result.stderr) == (stdout, stderr)

    @pytest.mark.parametrize("args", [
        _LOOKUP, ("lookup", "void", "--kb", "{kb}"), ("lookup", "zzzz", "--kb", "{kb}"),
        _SIM, ("sim", "void", "being", "--kb", "{kb}"), ("sim", "void", "zzzz", "--kb", "{kb}"),
    ], ids=["lookup", "lookup-repeated", "lookup-miss", "sim", "sim-across-classes", "sim-miss"])
    @pytest.mark.parametrize("bundle", ["b42", "b2_lex"])
    def test_single_queries_on_a_proven_text_build_nothing(
        self, workdir, request, monkeypatch, bundle, args
    ):
        """``lookup`` and ``sim`` read their postings from a proven text: no
        head is built, no index is walked and nothing is resolved. ``sim``
        hands ``word_distance`` the empty knowledge base."""
        argv = [a.format(kb=request.getfixturevalue(bundle)) for a in args]
        expected = runner.invoke(main, argv)
        for name in ("bundle._canonical_kb", "bundle.build_index", "bundle.parse_source",
                     "model.ThesaurusKB.resolve"):
            monkeypatch.setattr(f"rogetkb.{name}", _raise)
        result = runner.invoke(main, argv)
        assert expected.exit_code in (0, 3)
        assert (result.exit_code, result.stdout, result.stderr) == (
            expected.exit_code, expected.stdout, expected.stderr
        )

    # the heads of each knowledge base a query builds: lookup and sim read
    # their postings from the proven text, and sim hands word_distance the
    # empty knowledge base, which it never reads; a missing head builds none
    @pytest.mark.parametrize("args, expect, builds", [
        (("lookup", "void", "--kb", "{kb}"), 0, []),
        (("lookup", "zzzz", "--kb", "{kb}"), 0, []),
        (("sim", "void", "being", "--kb", "{kb}"), 0, []),
        (("sim", "void", "zzzz", "--kb", "{kb}"), 3, []),
        (("label", "9", "N", "--kb", "{kb}"), 0, [[9]]),
        (("label", "10", "N", "--kb", "{kb}"), 3, []),
    ], ids=["lookup", "lookup-miss", "sim", "sim-exit-3", "label", "label-exit-3"])
    def test_single_queries_parse_only_the_heads_they_read(
        self, workdir, b2_lex, monkeypatch, args, expect, builds
    ):
        built = []
        build = _canonical_kb
        monkeypatch.setattr(
            "rogetkb.bundle._canonical_kb", lambda text: built.append(build(text)) or built[-1]
        )
        monkeypatch.setattr("rogetkb.bundle.KBBundle.kb", property(_raise))
        _call(args, b2_lex, workdir / "lazy.out", expect=expect)
        assert [[h.number for _, _, h in kb.walk_heads()] for kb in built] == builds

    @pytest.mark.parametrize("args", [_LOOKUP, _SIM, _LABEL, _STATS_POS, _STATS_CLASS,
                                      _STATS_HEAD, _EXPORT_CANONICAL, _EXPORT_STRUCTURED],
                             ids=["lookup", "sim", "label", "stats-pos", "stats-class",
                                  "stats-head", "export-canonical", "export-structured"])
    def test_no_command_on_a_canonical_source_runs_the_general_parser(
        self, workdir, b42, monkeypatch, args
    ):
        monkeypatch.setattr("rogetkb.bundle.parse_source", _raise)
        _call(args, b42, workdir / "lazy.out")

    def test_export_canonical_of_a_canonical_source_writes_it_unbuilt(
        self, workdir, b42, monkeypatch
    ):
        monkeypatch.setattr("rogetkb.bundle.KBBundle.kb", property(_raise))
        monkeypatch.setattr("rogetkb.bundle._canonical_kb", _raise)
        monkeypatch.setattr("rogetkb.cli.serialize_kb", _raise)
        _call(_EXPORT_CANONICAL, b42, workdir / "lazy.out")
        stored = json.loads(Path(b42).read_text(encoding="utf-8"))["source"]
        assert (workdir / "lazy.out").read_text(encoding="utf-8") == stored

    @pytest.mark.parametrize("args", [_LOOKUP, _SIM, _STATS_POS, _STATS_CLASS, _STATS_HEAD,
                                      _LABEL, _EXPORT_STRUCTURED],
                             ids=["lookup", "sim", "stats-pos", "stats-class", "stats-head",
                                  "label", "export-structured"])
    def test_only_export_canonical_renders_the_canonical_text(
        self, workdir, b42, monkeypatch, args
    ):
        monkeypatch.setattr("rogetkb.model.ThesaurusKB.canonical_source", _raise)
        _call(args, b42, workdir / "lazy.out")


class TestLexiconLayers:
    """``build`` only checks the lexicon, the coverage commands only read its
    lemmas and ``label`` only its keyword's neighbourhood, so no command
    builds the synset graph."""

    @staticmethod
    def _run(args: tuple, out: Path, expect: int = 0) -> tuple:
        """stdout, stderr and the bytes written to ``out`` by one call."""
        out.unlink(missing_ok=True)
        result = invoke(*(a.format(out=out) for a in args), expect=expect)
        return result.stdout, result.stderr, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("command", [
        ("build", "{src}", "--lex", "{lex}", "--out", "{{out}}"),
        ("stats", "class", "--kb", "{kb}"),
        ("stats", "class", "--kb", "{kb}", "--strip-gloss"),
        ("stats", "head", "--kb", "{kb}"),
        ("stats", "head", "--kb", "{kb}", "--strip-gloss", "--top", "1"),
        ("export", "structured", "--kb", "{kb}", "--out", "{{out}}"),
        ("label", "42", "N", "--kb", "{kb}"),
        ("label", "42", "N", "--kb", "{kb}", "--evidence"),
        ("label", "42", "N", "0", "--kb", "{kb}", "--evidence", "--no-xref-match"),
    ], ids=["build", "stats-class", "stats-class-strip", "stats-head", "stats-head-strip",
            "export-structured", "label", "label-evidence", "label-no-xref-match"])
    def test_commands_that_never_build_the_synset_graph(self, workdir, b42, monkeypatch, command):
        args = tuple(a.format(src=workdir / "head42.roget", lex=workdir / "decrement.lex", kb=b42)
                     for a in command)
        out = workdir / "graph.out"
        unpatched = self._run(args, out)
        monkeypatch.setattr("rogetkb.bundle.load_resource", _raise)
        monkeypatch.setattr("rogetkb.cli.load_resource", _raise)
        assert self._run(args, out) == unpatched

    def test_build_rejects_a_malformed_lexicon_without_the_graph(self, workdir, monkeypatch):
        bad = workdir / "dangling.lex"
        bad.write_text("SYN a.n.1 N a\nREL hypernym a.n.1 ghost.n.1\nSYN b.n.1 N b\n",
                       encoding="utf-8")
        args = ("build", str(workdir / "head42.roget"), "--lex", str(bad), "--out", "{out}")
        out = workdir / "never-written.kb"
        unpatched = self._run(args, out, expect=1)
        monkeypatch.setattr("rogetkb.bundle.load_resource", _raise)
        monkeypatch.setattr("rogetkb.cli.load_resource", _raise)
        stdout, stderr, written = self._run(args, out, expect=1)
        assert (stdout, stderr, written) == unpatched
        assert (stdout, written) == ("", None)
        assert stderr.endswith("\n2:error: unknown synset ghost.n.1\n")  # after the parse warnings

    def test_label_reads_only_its_keywords_neighbourhood(self, workdir, b42, monkeypatch):
        unpatched = _call(_LABEL, b42, workdir / "label.out").stdout
        calls = []
        monkeypatch.setattr("rogetkb.bundle.load_neighbourhood",
                            lambda *args: calls.append(args) or load_neighbourhood(*args))
        assert _call(_LABEL, b42, workdir / "label.out").stdout == unpatched
        assert calls == [(fixture_text("decrement.lex"), "decrement", PartOfSpeech.NOUN)]


def _no_children() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _child_dies_before_writing(monkeypatch) -> None:
    parent, read = os.getpid(), bundle_module.lexicon_lemmas
    monkeypatch.setattr(bundle_module, "lexicon_lemmas",
                        lambda text: os._exit(1) if os.getpid() != parent else read(text))


def _fails(name: str, code: int):
    """The way in which ``os.<name>`` raises the OSError of ``code``."""
    def fail(*args):
        raise OSError(code, os.strerror(code))

    return lambda monkeypatch: monkeypatch.setattr(os, name, fail)


# ways the lexicon worker cannot deliver, each leaving the read to the parent
_NO_WORKER = {
    "no-fork": lambda monkeypatch: monkeypatch.delattr(os, "fork"),
    "child-dies-before-writing": _child_dies_before_writing,
    "pipe-fails": _fails("pipe", errno.EMFILE),
    "fork-fails": _fails("fork", errno.EAGAIN),
    "second-thread": lambda monkeypatch: monkeypatch.setattr(
        bundle_module.threading, "active_count", lambda: 2),
}


class TestLexiconWorker:
    """``build --lex``, ``stats class|head`` and ``export structured`` read
    the lexicon in a forked child while the taxonomy parses. The child only
    saves time: each call prints, writes and exits as the parent's own read
    makes it, and no call leaves a child behind, however it ends."""

    # {kb}, {src}, {lex} and {out} are filled in per case
    COMMANDS = {
        "stats-class": _STATS_CLASS,
        "stats-head": ("stats", "head", "--kb", "{kb}", "--strip-gloss"),
        "export-structured": _EXPORT_STRUCTURED,
    }
    BUILD = ("build", "{src}", "--lex", "{lex}", "--out", "{out}")

    @staticmethod
    def _outcome(args: tuple, out: Path, **fill) -> tuple:
        """stdout, stderr, exit code and the bytes written to ``out`` by one call."""
        out.unlink(missing_ok=True)
        result = runner.invoke(main, [a.format(out=out, **fill) for a in args])
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        written = out.read_bytes() if out.exists() else None
        return result.stdout, result.stderr, result.exit_code, written

    @pytest.fixture(scope="class")
    def lexicons(self, workdir) -> dict:
        """Lexicon paths by name: the fixture, malformed ones, and unreadable ones."""
        paths = {"good": workdir / "decrement.lex", "absent": workdir / "absent.lex"}
        for name, data in {
            "bogus": b"BOGUS record\n",
            "dangling": b"SYN a.n.1 N a\nREL hypernym a.n.1 ghost.n.1\n",
            "latin-1": "SYN a.n.1 N caf\u00e9\n".encode("latin-1"),
        }.items():
            paths[name] = workdir / f"worker-{name}.lex"
            paths[name].write_bytes(data)
        return {name: str(path) for name, path in paths.items()}

    @pytest.fixture(scope="class")
    def bad_source(self, workdir) -> str:
        path = workdir / "worker-bad.roget"
        path.write_text("#CLASS 9 Out of range\n", encoding="utf-8")
        return str(path)

    def _cases(self, request) -> list:
        """(name, args, fill) of every overlapped call on the fixtures and
        on each malformed bundle."""
        workdir, b42 = request.getfixturevalue("workdir"), request.getfixturevalue("b42")
        bundles = {"b42": b42, "b2": request.getfixturevalue("b2")}
        for name, mutate in MALFORMED_BUNDLES.items():
            bundles[name] = str(Path(_rewritten(workdir, b42, mutate)).replace(
                workdir / f"worker-{name}.kb"))
        cases = [(f"{command}-{bundle}", args, {"kb": path})
                 for command, args in self.COMMANDS.items() for bundle, path in bundles.items()]
        lexicons = request.getfixturevalue("lexicons")
        sources = {"head42": str(workdir / "head42.roget"),
                   "bad-source": request.getfixturevalue("bad_source")}
        cases += [(f"build-{source}-{lex}", self.BUILD, {"src": sources[source], "lex": path})
                  for source in sources for lex, path in lexicons.items()]
        return cases

    @pytest.mark.parametrize("way", _NO_WORKER.values(), ids=_NO_WORKER.keys())
    def test_the_worker_changes_nothing(self, workdir, request, monkeypatch, way):
        out = workdir / "worker.out"
        cases = self._cases(request)
        shipped = [self._outcome(args, out, **fill) for _, args, fill in cases]
        way(monkeypatch)
        for (name, args, fill), want in zip(cases, shipped):
            assert self._outcome(args, out, **fill) == want, name
        assert {code for _, _, code, _ in shipped} == {0, 1, 2}
        assert _no_children()

    def test_the_parent_never_reads_the_lexicon_itself(self, workdir, request, monkeypatch):
        parent, reads, read = os.getpid(), [], bundle_module.lexicon_lemmas

        def read_in_parent(text):
            if os.getpid() == parent:
                reads.append(text)
            return read(text)

        monkeypatch.setattr(bundle_module, "lexicon_lemmas", read_in_parent)
        for name, args, fill in self._cases(request):
            self._outcome(args, workdir / "worker.out", **fill)
            assert reads == [], name

    @pytest.mark.parametrize("case, expect", [
        ("stats-class-b42", 0),
        ("stats-head-b42", 0),
        ("export-structured-b42", 0),
        ("build-head42-good", 0),
        ("stats-class-unparseable-source", 2),
        ("stats-head-source-lone-surrogate", 2),
        ("export-structured-lexicon-checksum-mismatch", 2),
        ("export-structured-lexicon-malformed-checksum-matches", 2),
        ("build-head42-dangling", 1),
        ("build-bad-source-good", 1),
        ("build-head42-good-unwritable-out", 2),
    ])
    def test_no_child_is_left_behind(self, workdir, request, monkeypatch, case, expect):
        cases = {name: (args, fill) for name, args, fill in self._cases(request)}
        out = workdir / "worker.out"
        if case.endswith("-unwritable-out"):
            case, out = case.removesuffix("-unwritable-out"), workdir / "absent-dir" / "x.kb"
        args, fill = cases[case]
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert _no_children()
        assert self._outcome(args, out, **fill)[2] == expect
        assert forks == [1]
        assert _no_children()

    def test_build_keeps_its_error_order(self, workdir, lexicons, bad_source):
        """Parse errors exit 1 before an unreadable lexicon exits 2, and that
        before a malformed lexicon exits 1 after the parse diagnostics."""
        out = workdir / "never-written.kb"
        head42 = str(workdir / "head42.roget")
        warnings = invoke("build", head42, "--out", str(workdir / "bare.kb")).stderr
        errors = invoke("build", bad_source, "--out", str(out), expect=1).stderr
        absent = lexicons["absent"]
        for source, lex, expect, stderr in [
            (bad_source, "absent", 1, errors),
            (bad_source, "latin-1", 1, errors),
            (bad_source, "bogus", 1, errors),
            (head42, "absent", 2, warnings + f"error: cannot read {absent}: "
                                            f"[Errno 2] No such file or directory: '{absent}'\n"),
            (head42, "bogus", 1, warnings + "1:error: unknown record kind 'BOGUS'\n"),
            (head42, "dangling", 1, warnings + "2:error: unknown synset ghost.n.1\n"),
        ]:
            got = self._outcome(self.BUILD, out, src=source, lex=lexicons[lex])
            assert got == ("", stderr, expect, None), (source, lex)
        latin = self._outcome(self.BUILD, out, src=head42, lex=lexicons["latin-1"])
        assert latin[1].startswith(warnings + f"error: cannot read {lexicons['latin-1']}: ")
        assert latin[2] == 2


class TestEmptyLexicon:
    """A bundle built with an empty ``--lex`` file carries a lexicon with no
    lemmas, which is not the same as carrying none: the coverage columns and
    the ``coverage`` object stay, at zero."""

    @pytest.fixture(scope="class")
    def b42_empty_lex(self, workdir) -> str:
        lex = workdir / "empty.lex"
        lex.write_text("", encoding="utf-8")
        out = workdir / "head42_empty_lex.kb"
        invoke("build", str(workdir / "head42.roget"), "--lex", str(lex), "--out", str(out))
        return str(out)

    def test_stats_class_keeps_the_coverage_columns(self, b42_empty_lex):
        assert invoke("stats", "class", "--kb", b42_empty_lex).stdout.splitlines() == [
            "classNum\tsections\theads\tparagraphs\tsemicolonGroups\tstrings\t"
            "pctCommonHeads\tpctCommonKeywords\tpctCommonStrings",
            "1\t1\t1\t1\t11\t27\t0.00\t0.00\t0.00",
            "total\t1\t1\t1\t11\t27\t0.00\t0.00\t0.00",
        ]

    def test_stats_head_keeps_the_coverage_columns(self, b42_empty_lex):
        result = invoke("stats", "head", "--kb", b42_empty_lex, "--strip-gloss")
        assert result.stdout.splitlines() == [
            "headNum\theadName\theadNameInLex\tparagraphs\tsemicolonGroups\t"
            "strings\tpctCommonStrings\tpctCommonKeywords",
            "42\tDecrement: thing deducted\tno\t1\t11\t27\t0.00\t0.00",
        ]

    def test_export_structured_keeps_the_coverage_object(self, workdir, b42_empty_lex):
        out = workdir / "empty-lex.json"
        invoke("export", "structured", "--kb", b42_empty_lex, "--out", str(out))
        coverage = json.loads(out.read_text(encoding="utf-8"))["coverage"]
        row = {
            "sections": 1, "heads": 1, "paragraphs": 1, "semicolonGroups": 11, "strings": 27,
            "pctCommonHeads": 0.0, "pctCommonKeywords": 0.0, "pctCommonStrings": 0.0,
        }
        assert coverage == {
            "keywordDenominator": "paragraphs",
            "commonStrings": 0,
            "classes": [{"classNum": 1, **row}],
            "total": {"classNum": None, **row},
        }


class TestStoredTextChecksum:
    """The source checksum covers the stored text byte for byte, not the
    canonical text it parses to."""

    def test_formatting_only_edit_refuses_to_load(self, workdir, b42):
        def add_blank_line(doc):
            doc["source"] = doc["source"].replace("\n", "\n\n", 1)

        tampered = _rewritten(workdir, b42, add_blank_line)
        result = invoke("lookup", "toll", "--kb", tampered, expect=2)
        assert result.stderr == f"error: bundle {tampered} failed its source checksum\n"
        assert result.stdout == ""

    def test_non_canonical_source_with_its_own_checksum_loads(self, workdir, b42):
        canonical = json.loads(Path(b42).read_text(encoding="utf-8"))["source"]

        def reformat(doc):
            doc["source"] = "// hand edited\n" + canonical.replace(", ", " ,  ")
            doc["meta"]["sourceChecksum"] = hashlib.sha256(
                doc["source"].encode("utf-8")
            ).hexdigest()

        edited = _rewritten(workdir, b42, reformat)
        out = workdir / "edited.roget"
        invoke("export", "canonical", "--kb", edited, "--out", str(out))
        assert out.read_text(encoding="utf-8") == canonical
        invoke("export", "structured", "--kb", edited, "--out", str(out))
        recorded = json.loads(Path(edited).read_text(encoding="utf-8"))["meta"]["sourceChecksum"]
        assert json.loads(out.read_text(encoding="utf-8"))["sourceChecksum"] == recorded
        assert invoke("lookup", "toll", "--kb", edited).stdout == (
            invoke("lookup", "toll", "--kb", b42).stdout
        )

    @pytest.mark.parametrize("args", [_LOOKUP, _SIM, _STATS_POS, _EXPORT_CANONICAL],
                             ids=["lookup", "sim", "stats-pos", "export-canonical"])
    def test_malformed_lexicon_is_not_read_without_need(self, workdir, b42, args):
        bad = _rewritten(workdir, b42, lambda doc: _set_lexicon(doc, "BOGUS record\n"))
        assert _call(args, bad, workdir / "bogus.out").stdout == (
            _call(args, b42, workdir / "good.out").stdout
        )

    @pytest.mark.parametrize("args", [_LABEL, _STATS_CLASS, _STATS_HEAD, _EXPORT_STRUCTURED],
                             ids=["label", "stats-class", "stats-head", "export-structured"])
    def test_malformed_lexicon_exits_2_before_any_output(self, workdir, b42, args):
        bad = _rewritten(workdir, b42, lambda doc: _set_lexicon(doc, "BOGUS record\n"))
        out = workdir / "never-written.out"
        result = _call(args, bad, out, expect=2)
        assert result.stderr.startswith(f"error: bundle {bad} carries a malformed lexicon: ")
        assert result.stdout == ""
        assert not out.exists()


class TestLookup:
    def test_single_hit(self, b42):
        result = invoke("lookup", "decrement", "--kb", b42)
        assert result.stdout == "1.3.42:N:0:0:0\tDecrement: thing deducted\tdecrement\n"

    def test_hyphenated_phrase(self, b42):
        result = invoke("lookup", "rake-off", "--kb", b42)
        assert result.stdout == "1.3.42:N:0:9:1\tDecrement: thing deducted\tdecrement\n"

    def test_normalizes_query(self, b42):
        assert (
            invoke("lookup", "  DECREMENT ", "--kb", b42).stdout
            == invoke("lookup", "decrement", "--kb", b42).stdout
        )

    def test_repeated_string_lists_every_address(self, b2):
        result = invoke("lookup", "void", "--kb", b2)
        assert result.stdout.splitlines() == [
            "1.1.2:N:0:1:1\tNonexistence\tnonexistence",
            "2.1.183:N:0:0:2\tSpace: indefinite space\tspace",
            "2.1.183:N:0:1:1\tSpace: indefinite space\tspace",
        ]

    def test_miss_prints_nothing_exit_zero(self, b42):
        result = invoke("lookup", "zzzz", "--kb", b42)
        assert result.stdout == ""


class TestSim:
    def test_same_group(self, b42):
        result = invoke("sim", "decrement", "deduction", "--kb", b42)
        assert result.stdout == (
            "distance=0 similarity=1.0000 lca=6 "
            "a=1.3.42:N:0:0:0 b=1.3.42:N:0:0:1\n"
        )

    def test_adjacent_groups(self, b42):
        result = invoke("sim", "decrement", "allowance", "--kb", b42)
        assert result.stdout == (
            "distance=2 similarity=0.8333 lca=5 "
            "a=1.3.42:N:0:0:0 b=1.3.42:N:0:1:0\n"
        )

    def test_cross_class_maximum(self, b2):
        result = invoke("sim", "existence", "regionally", "--kb", b2)
        assert result.stdout.startswith("distance=12 similarity=0.0000 lca=0 ")

    def test_unindexed_word_exits_3(self, b42):
        result = invoke("sim", "decrement", "zzzz", "--kb", b42, expect=3)
        assert result.stderr == "error: word not indexed: zzzz\n"
        assert result.stdout == ""


class TestStats:
    def test_pos_single_pos_fixture(self, b42):
        result = invoke("stats", "pos", "--kb", b42)
        assert result.stdout == (
            "pos\tfraction\n"
            "N\t1.0000\nADJ\t0.0000\nVB\t0.0000\nADV\t0.0000\nINT\t0.0000\n"
        )

    def test_pos_mixed_fixture(self, b2):
        result = invoke("stats", "pos", "--kb", b2)
        assert result.stdout == (
            "pos\tfraction\n"
            "N\t0.7436\nADJ\t0.0769\nVB\t0.1026\nADV\t0.0769\nINT\t0.0000\n"
        )

    def test_class_counts_only_without_resource(self, b2):
        result = invoke("stats", "class", "--kb", b2)
        assert result.stdout.splitlines() == [
            "classNum\tsections\theads\tparagraphs\tsemicolonGroups\tstrings",
            "1\t2\t3\t7\t10\t23",
            "2\t1\t2\t5\t8\t16",
            "total\t3\t5\t12\t18\t39",
        ]

    def test_class_coverage_with_resource(self, b42):
        result = invoke("stats", "class", "--kb", b42)
        assert result.stdout.splitlines() == [
            "classNum\tsections\theads\tparagraphs\tsemicolonGroups\tstrings\t"
            "pctCommonHeads\tpctCommonKeywords\tpctCommonStrings",
            "1\t1\t1\t1\t11\t27\t0.00\t1.00\t0.26",
            "total\t1\t1\t1\t11\t27\t0.00\t1.00\t0.26",
        ]

    def test_class_strip_gloss_matches_head_name(self, b42):
        result = invoke("stats", "class", "--kb", b42, "--strip-gloss")
        assert "1\t1\t1\t1\t11\t27\t1.00\t1.00\t0.26" in result.stdout.splitlines()

    def test_head_coverage_row(self, b42):
        result = invoke("stats", "head", "--kb", b42)
        assert result.stdout.splitlines() == [
            "headNum\theadName\theadNameInLex\tparagraphs\tsemicolonGroups\t"
            "strings\tpctCommonStrings\tpctCommonKeywords",
            "42\tDecrement: thing deducted\tno\t1\t11\t27\t0.26\t1.00",
        ]

    def test_head_strip_gloss_flips_in_lex(self, b42):
        result = invoke("stats", "head", "--kb", b42, "--strip-gloss")
        assert "\tyes\t" in result.stdout.splitlines()[1]

    def test_head_top_truncates(self, b2):
        result = invoke("stats", "head", "--kb", b2, "--top", "2")
        lines = result.stdout.splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1].startswith("1\tExistence\t")
        assert lines[2].startswith("2\tNonexistence\t")

    @pytest.mark.parametrize("bundle, header", [
        ("b2", "headNum\theadName\tparagraphs\tsemicolonGroups\tstrings\n"),
        ("b42", "headNum\theadName\theadNameInLex\tparagraphs\tsemicolonGroups\t"
                "strings\tpctCommonStrings\tpctCommonKeywords\n"),
    ])
    def test_head_top_zero_prints_only_header(self, bundle, header, request):
        result = invoke("stats", "head", "--kb", request.getfixturevalue(bundle), "--top", "0")
        assert result.stdout == header

    def test_head_negative_top_is_a_usage_error(self, b2):
        result = invoke("stats", "head", "--kb", b2, "--top", "-1", expect=2)
        assert "Invalid value for '--top'" in result.stderr
        assert result.stdout == ""


class TestPrintedFormsOnACanonicalCorpus:
    """The coverage tables and the labelled paragraphs of canonical
    ``generate(3, scale=0.02)`` print what the reference renderers print."""

    @pytest.fixture(scope="class")
    def corpus(self, perfbench_corpus):
        return perfbench_corpus.generate(3, scale=0.02)

    @pytest.fixture(scope="class", params=[False, True], ids=["bare", "lex"])
    def built(self, request, workdir, corpus) -> tuple[str, Optional[frozenset]]:
        (workdir / "gen3.roget").write_text(corpus.canonical, encoding="utf-8")
        (workdir / "gen3.lex").write_text(corpus.lexicon, encoding="utf-8")
        out = workdir / f"gen3-{request.param_index}.kb"
        lex = ["--lex", str(workdir / "gen3.lex")] if request.param else []
        invoke("build", str(workdir / "gen3.roget"), *lex, "--out", str(out))
        lemmas = reference_load_resource(corpus.lexicon).all_lemmas() if request.param else None
        return str(out), lemmas

    @pytest.fixture(scope="class")
    def rows(self, built) -> dict:
        kb, lemmas = built
        tree = load_bundle(kb).kb
        return {strip: stats_rows(tree, lemmas, strip_gloss=strip) for strip in (False, True)}

    @pytest.mark.parametrize("mode", ["class", "head", "pos"])
    def test_stats_prints_the_reference_tables(self, built, rows, mode):
        for strip in (False, True):
            for top in (None, 0, 3):
                options = ["--strip-gloss"] * strip + ([] if top is None else ["--top", str(top)])
                result = invoke("stats", mode, "--kb", built[0], *options)
                assert result.stdout == reference_stats(rows[strip], mode, top=top), (strip, top)

    def test_render_labelled_prints_the_reference_lines(self, corpus):
        kb = parse_source(corpus.canonical).kb
        resource = load_resource(corpus.lexicon)
        targets = [address for address, _ in walk_paragraphs(kb)]
        assert len(targets) > 100
        for target in targets:
            result = label_paragraph(kb, resource, target)
            for evidence in (False, True):
                assert render_labelled(result, target.pos, evidence) == (
                    reference_render_labelled(result, target.pos, evidence)
                ), (target, evidence)


LABEL_HYPONYM_LINE = (
    "Hyponym: deduction, depreciation, cut @37 diminution; "
    "refund, shortage, slippage, defect @307 shortfall @636 insufficiency; "
    "shrinkage @204 shortening; "
    "spoilage, wastage, consumption @634 waste"
)
LABEL_NONE_LINE = (
    "No label: allowance; remission; "
    "tare, drawback, clawback, rebate @810 discount; "
    "loss, sacrifice, forfeit @963 penalty; "
    "leak, leakage, escape @298 outflow; "
    "subtrahend, rake-off @786 taking; "
    "toll @809 tax"
)


class TestLabel:
    def test_rearranged_paragraph(self, b42):
        result = invoke("label", "42", "N", "--kb", b42)
        assert result.stdout.splitlines() == [
            "N. decrement", LABEL_HYPONYM_LINE, LABEL_NONE_LINE,
        ]

    def test_evidence_lines(self, b42):
        result = invoke("label", "42", "N", "--kb", b42, "--evidence")
        assert result.stdout.splitlines()[3:] == [
            "evidence: sg=0 diminution->diminution.n.1(hyponym)",
            "evidence: sg=4 insufficiency->insufficiency.n.1(coordinate) "
            "slippage->slippage.n.1(hyponym)",
            "evidence: sg=7 shrinkage->shrinkage.n.1(hyponym)",
            "evidence: sg=8 wastage->wastage.n.1(hyponym)",
        ]

    def test_no_xref_match(self, b42):
        result = invoke("label", "42", "N", "--kb", b42, "--no-xref-match")
        assert result.stdout.splitlines() == [
            "N. decrement",
            "Synonym: deduction, depreciation, cut @37 diminution",
            "Hyponym: refund, shortage, slippage, defect @307 shortfall "
            "@636 insufficiency; shrinkage @204 shortening; "
            "spoilage, wastage, consumption @634 waste",
            "No label: allowance; remission; "
            "tare, drawback, clawback, rebate @810 discount; "
            "loss, sacrifice, forfeit @963 penalty; "
            "leak, leakage, escape @298 outflow; "
            "subtrahend, rake-off @786 taking; "
            "toll @809 tax",
        ]

    def test_explicit_paragraph_index(self, b42):
        with_idx = invoke("label", "42", "N", "0", "--kb", b42)
        without = invoke("label", "42", "N", "--kb", b42)
        assert with_idx.stdout == without.stdout

    def test_requires_resource(self, b42_bare):
        result = invoke("label", "42", "N", "--kb", b42_bare, expect=4)
        assert result.stderr == (
            "error: bundle has no synset resource (rebuild with --lex)\n"
        )

    def test_unknown_head_exits_3(self, b42):
        result = invoke("label", "99", "N", "--kb", b42, expect=3)
        assert result.stderr == "error: head 99 not found\n"

    def test_missing_paragraph_exits_3(self, b42):
        result = invoke("label", "42", "VB", "--kb", b42, expect=3)
        assert result.stderr.startswith("error: paragraph VB:0 not found")

    def test_negative_paragraph_index_exits_3(self, b42):
        result = invoke("label", "--kb", b42, "42", "N", "--", "-1", expect=3)
        assert result.stderr == "error: bad paragraph component -1\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("args, lexicon, expect, stderr", [
        (("99", "N"), "malformed", 2, "error: bundle {kb} carries a malformed lexicon: "
                                      "1:error: unknown record kind 'BOGUS'\n"),
        (("42", "VB"), "malformed", 2, "error: bundle {kb} carries a malformed lexicon: "
                                       "1:error: unknown record kind 'BOGUS'\n"),
        (("42", "N", "--", "-1"), "malformed", 2,
         "error: bundle {kb} carries a malformed lexicon: 1:error: unknown record kind 'BOGUS'\n"),
        # the keyword's synsets are declared before the fault, which is still found
        (("42", "N"), "dangling", 2, "error: bundle {kb} carries a malformed lexicon: "
                                     "2:error: unknown synset ghost.n.1\n"),
        (("99", "N"), "absent", 4, "error: bundle has no synset resource (rebuild with --lex)\n"),
        (("42", "VB"), "absent", 4, "error: bundle has no synset resource (rebuild with --lex)\n"),
        (("99", "N"), "good", 3, "error: head 99 not found\n"),
        (("42", "VB"), "good", 3, "error: paragraph VB:0 not found in head 42\n"),
    ], ids=["no-head-malformed", "no-paragraph-malformed", "negative-index-malformed",
            "keyword-found-malformed", "no-head-absent", "no-paragraph-absent",
            "no-head-good", "no-paragraph-good"])
    def test_exit_code_precedence(self, workdir, b42, args, lexicon, expect, stderr):
        """A malformed lexicon exits 2 before an absent one exits 4, and both
        before a missing target exits 3, whatever the target is."""
        texts = {"malformed": "BOGUS record\n",
                 "dangling": "SYN d.n.1 N decrement\nREL hypernym d.n.1 ghost.n.1\n"}
        if lexicon == "good":
            kb = b42
        elif lexicon == "absent":
            kb = _rewritten(workdir, b42, lambda doc: doc.update(lexicon=None))
        else:
            kb = _rewritten(workdir, b42, lambda doc: _set_lexicon(doc, texts[lexicon]))
        result = invoke("label", "--kb", kb, *args, expect=expect)
        assert (result.stdout, result.stderr) == ("", stderr.format(kb=kb))

    def test_unknown_tag_is_a_usage_error_before_the_bundle_loads(self, workdir, monkeypatch):
        monkeypatch.setattr("rogetkb.cli.load_bundle", _raise)
        result = invoke("label", "42", "q", "--kb", str(workdir / "absent.kb"), expect=2)
        assert result.stdout == ""
        assert result.stderr.startswith("Usage: ")
        assert result.stderr.endswith(
            "Error: Invalid value for '{N|ADJ|VB|ADV|INT}': unknown part of speech 'q'\n"
        )

    def test_pos_argument_case_insensitive(self, b42):
        assert (
            invoke("label", "42", "n", "--kb", b42).stdout
            == invoke("label", "42", "N", "--kb", b42).stdout
        )


class TestExport:
    @pytest.mark.parametrize("lex", [True, False], ids=["lex", "no-lex"])
    def test_canonical_round_trips(self, workdir, b42, b42_bare, lex):
        from rogetkb.parser import parse_source, serialize_kb

        bundle = b42 if lex else b42_bare
        out = workdir / "canon.roget"
        invoke("export", "canonical", "--kb", bundle, "--out", str(out))
        text = out.read_text(encoding="utf-8")
        kb = parse_source(text).kb
        assert serialize_kb(kb) == text
        assert kb.count_nodes().entries == 27
        # build from the export, with the same lexicon, writes the same bundle
        rebuilt = workdir / "rebuilt.kb"
        lex_args = ["--lex", str(workdir / "decrement.lex")] if lex else []
        invoke("build", str(out), *lex_args, "--out", str(rebuilt))
        assert rebuilt.read_bytes() == Path(bundle).read_bytes()

    @staticmethod
    def _export_of_stored(workdir: Path, b42: str, text: str) -> str:
        """What ``export canonical`` writes for a copy of ``b42`` re-signed
        to store ``text``."""
        kb = _rewritten(workdir, b42, lambda doc: _set_source(doc, text))
        out = workdir / "stored.roget"
        invoke("export", "canonical", "--kb", kb, "--out", str(out))
        return out.read_bytes().decode("utf-8")

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.one_of(canonical_sources(edited=True), line_soups()))
    def test_canonical_writes_a_proven_source_as_stored(self, workdir, b42, text):
        """Any stored source that parses is exported as the serialization of
        the reference parser's KB, and one that ``canonical_heads`` accepts
        is that text, byte for byte."""
        kb = reference_parse_source(text).kb
        if kb is None or not text:  # exits 2; "" checksums as a line break
            return
        exported = self._export_of_stored(workdir, b42, text)
        assert exported == serialize_kb(kb)
        if canonical_heads(text) is not None:
            assert exported == text

    @pytest.mark.parametrize("name", ["head42.roget", "two_class.roget", "generated"])
    def test_canonical_of_a_proven_and_a_re_signed_source(self, workdir, b42, perfbench_corpus,
                                                          name):
        """A canonical text is written as stored; a copy re-signed with one
        doubled space is not canonical, and is written as its parse."""
        if name == "generated":
            text = perfbench_corpus.generate(3, scale=0.05).canonical
        else:
            text = serialize_kb(reference_parse_source(fixture_text(name)).kb)
        doubled = text.replace(", ", ",  ", 1)
        assert canonical_heads(text) is not None and canonical_heads(doubled) is None
        assert self._export_of_stored(workdir, b42, text) == text
        assert self._export_of_stored(workdir, b42, doubled) == text

    def test_canonical_of_an_assigned_kb(self, workdir, b42, kb2, monkeypatch):
        """A KB assigned to a proven bundle is what ``export canonical`` writes."""
        def assigned(path, **options):
            bundle = load_bundle(path, **options)
            bundle.kb = kb2
            return bundle

        monkeypatch.setattr("rogetkb.cli.load_bundle", assigned)
        out = workdir / "assigned.roget"
        invoke("export", "canonical", "--kb", b42, "--out", str(out))
        assert out.read_text(encoding="utf-8") == serialize_kb(kb2)

    def test_canonical_is_deterministic(self, workdir, b42):
        out_a = workdir / "canon_a.roget"
        out_b = workdir / "canon_b.roget"
        invoke("export", "canonical", "--kb", b42, "--out", str(out_a))
        invoke("export", "canonical", "--kb", b42, "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_structured_document(self, workdir, b42):
        out = workdir / "structured.json"
        invoke("export", "structured", "--kb", b42, "--out", str(out))
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["format"] == "rogetkb-structured"
        assert doc["counts"] == {
            "classes": 1, "sections": 1, "heads": 1,
            "paragraphs": 1, "semicolonGroups": 11, "entries": 27,
        }
        assert doc["index"] == {"uniqueStrings": 27, "totalOccurrences": 27}
        assert doc["coverage"]["keywordDenominator"] == "paragraphs"
        assert len(doc["coverage"]["classes"]) == 1

    def test_structured_counts_match_stats(self, workdir, b2):
        out = workdir / "structured2.json"
        invoke("export", "structured", "--kb", b2, "--out", str(out))
        doc = json.loads(out.read_text(encoding="utf-8"))
        stats = invoke("stats", "class", "--kb", b2).stdout.splitlines()[-1].split("\t")
        assert doc["counts"]["sections"] == int(stats[1])
        assert doc["counts"]["heads"] == int(stats[2])
        assert doc["counts"]["paragraphs"] == int(stats[3])
        assert doc["counts"]["semicolonGroups"] == int(stats[4])
        assert doc["counts"]["entries"] == int(stats[5])
        assert doc["coverage"] is None  # built without a resource

    def test_stats_class_header_is_the_coverage_row_keys(self, workdir, b42, b42_bare):
        def exported(bundle: str) -> dict:
            out = workdir / "structured-columns.json"
            invoke("export", "structured", "--kb", bundle, "--out", str(out))
            return json.loads(out.read_text(encoding="utf-8"))

        def header(bundle: str) -> list:
            return invoke("stats", "class", "--kb", bundle).stdout.splitlines()[0].split("\t")

        columns = list(exported(b42)["coverage"]["total"])
        assert header(b42) == columns
        assert exported(b42_bare)["coverage"] is None
        assert header(b42_bare) == columns[:6]

    @pytest.mark.parametrize("bundle", ["b42", "b42_bare"])
    def test_structured_tallies_the_kb_once(self, workdir, monkeypatch, request, bundle):
        calls = []
        coverage = bundle_module.class_coverage
        monkeypatch.setattr("rogetkb.bundle.class_coverage",
                            lambda *args, **kwargs: calls.append(args) or coverage(*args, **kwargs))
        monkeypatch.setattr("rogetkb.model.ThesaurusKB.count_nodes", _raise)
        _call(_EXPORT_STRUCTURED, request.getfixturevalue(bundle), workdir / "tallied.json")
        assert len(calls) == 1

    def test_structured_taxonomy_entry_count(self, workdir, b42):
        out = workdir / "structured3.json"
        invoke("export", "structured", "--kb", b42, "--out", str(out))
        doc = json.loads(out.read_text(encoding="utf-8"))
        entries = [
            entry
            for cls in doc["taxonomy"]
            for sec in cls["sections"]
            for head in sec["heads"]
            for para in head["paragraphs"]
            for group in para["semicolonGroups"]
            for entry in group["entries"]
        ]
        assert len(entries) == 27
        assert entries[3] == {
            "text": "cut",
            "crossRefs": [{"head": 37, "keyword": "diminution"}],
        }

    def test_unwritable_path_exits_2(self, b42):
        result = invoke(
            "export", "canonical", "--kb", b42,
            "--out", "/nonexistent-dir/out.roget", expect=2,
        )
        assert "cannot write" in result.stderr

    def test_structured_out_in_missing_directory_exits_2_before_rendering(
        self, workdir, b42, monkeypatch
    ):
        monkeypatch.setattr("rogetkb.cli.structured_document", _raise)
        out = workdir / "absent-dir" / "out.json"
        result = invoke("export", "structured", "--kb", b42, "--out", str(out), expect=2)
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["canonical", "structured"])
    def test_full_device_exits_2(self, b42, fmt):
        result = invoke("export", fmt, "--kb", b42, "--out", "/dev/full", expect=2)
        assert result.stderr == (
            "error: cannot write /dev/full: [Errno 28] No space left on device\n"
        )
        assert result.stdout == ""


class TestCollectorScope:
    """A command runs with the cyclic collector off and hands the caller's
    setting back, however it ends."""

    @pytest.fixture(params=["success", "exit_3", "usage_error"])
    def command(self, request, b2):
        return {
            "success": (["lookup", "void", "--kb", b2], 0),
            "exit_3": (["sim", "void", "zeppelin", "--kb", b2], 3),
            "usage_error": (["stats", "bogus", "--kb", b2], 2),
        }[request.param]

    def test_enabled_collector_is_enabled_again(self, command):
        argv, code = command
        assert gc.isenabled()
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == code, result.output
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, command):
        argv, code = command
        gc.disable()
        try:
            result = CliRunner().invoke(main, argv)
            assert result.exit_code == code, result.output
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_off_while_a_command_runs(self, b2, monkeypatch):
        seen = []

        def spy(path, **kwargs):
            seen.append(gc.isenabled())
            return load_bundle(path, **kwargs)

        monkeypatch.setattr("rogetkb.cli.load_bundle", spy)
        invoke("lookup", "void", "--kb", b2)
        assert seen == [False]
        assert gc.isenabled()


_WORDS = st.one_of(
    st.sampled_from(["toll", "void", "Decrement", "rake-off", "cut", "zeppelin", "", "-x"]),
    st.text(max_size=6),
)
_NUMBERS = st.one_of(
    st.sampled_from(["42", "1", "0", "-1"]), st.integers(-3, 1000).map(str), st.text(max_size=3)
)
_POS_TAGS = st.one_of(st.sampled_from(["N", "adj", "VB", "ADV", "int", "XYZ"]), st.text(max_size=3))
_INDEXES = st.lists(st.one_of(st.integers(-3, 3).map(str), st.text(max_size=2)), max_size=1)


def _flags(*names: str):
    return st.lists(st.sampled_from(names), unique=True)


def _mutated(draw, blob: bytes) -> bytes:
    """``blob`` as it is, cut at a random byte, with one byte flipped, or with
    a lone-surrogate JSON escape inserted at a random byte."""
    how = draw(st.sampled_from(["keep", "cut", "flip", "surrogate"]))
    if how == "keep" or not blob:
        return blob
    at = draw(st.integers(0, len(blob) - 1))
    if how == "cut":
        return blob[:at]
    if how == "surrogate":
        return blob[:at] + draw(st.sampled_from([b"\\ud800", b"\\udfff"])) + blob[at:]
    return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_call_exits_with_a_table_code(workdir, b42, b42_bare, b2, data):
    """Every subcommand, with drawn arguments, on fixture bundles and on
    bundles and sources cut or flipped at a random byte, ends with an exit
    code from the table (0-4) and never with an uncaught exception."""
    draw = data.draw
    kb = workdir / "fuzz.kb"
    out = workdir / "fuzz.out"
    command = draw(st.sampled_from(["build", "lookup", "sim", "stats", "label", "export"]))
    if command == "build":
        source = draw(st.one_of(
            st.sampled_from([fixture_text("head42.roget"), fixture_text("two_class.roget")]),
            line_soups(),
        ))
        (workdir / "fuzz.roget").write_bytes(_mutated(draw, source.encode("utf-8")))
        options = ["--out", str(out)]
        if draw(st.booleans()):
            lex = _mutated(draw, fixture_text("decrement.lex").encode("utf-8"))
            (workdir / "fuzz.lex").write_bytes(lex)
            options += ["--lex", str(workdir / "fuzz.lex")]
        args = [str(workdir / "fuzz.roget")]
    else:
        bundle = Path(draw(st.sampled_from([b42, b42_bare, b2]))).read_bytes()
        kb.write_bytes(_mutated(draw, bundle))
        options = ["--kb", str(kb)]
        if command == "lookup":
            args = [draw(_WORDS)]
        elif command == "sim":
            args = [draw(_WORDS), draw(_WORDS)]
        elif command == "stats":
            args = [draw(st.sampled_from(["class", "head", "pos", "bogus"]))]
            options += draw(_flags("--strip-gloss"))
            if draw(st.booleans()):
                options += ["--top", draw(_NUMBERS)]
        elif command == "label":
            args = [draw(_NUMBERS), draw(_POS_TAGS), *draw(_INDEXES)]
            options += draw(_flags("--evidence", "--no-xref-match"))
        else:
            args = [draw(st.sampled_from(["canonical", "structured", "bogus"]))]
            options += ["--out", str(out), *draw(_flags("--strip-gloss"))]
    result = runner.invoke(main, [command, *options, "--", *args])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exc_info
    )
    assert result.exit_code in {0, 1, 2, 3, 4}, result.output


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    bundle=signed_bundles(),
    word=st.sampled_from(["word", "decrement", "Two  Words", "caf\u00e9", "zzz"]),
    head=st.integers(1, 6),
    tag=st.sampled_from(["N", "adj", "VB", "ADV", "INT"]),
    evidence=_flags("--evidence"),
)
def test_a_signed_bundle_keeps_the_load_paths_promises(workdir, bundle, word, head, tag, evidence):
    """Past the checksum gate, whatever the stored texts hold, every command
    ends with an exit code from the table (0-4) and never with an uncaught
    exception or a traceback; a ``lookup`` or ``sim`` answer (the sorting
    index's), a ``stats`` table, a labelled paragraph or a structured export
    that succeeds is the oracles' answer; and when
    ``export canonical`` succeeds, ``build`` of its text writes a bundle
    that loads to an equal KB."""
    kb = workdir / "signed.kb"
    kb.write_bytes(bundle.encode("utf-8"))
    text, out = workdir / "signed.roget", str(workdir / "signed.out")
    lexicon = json.loads(bundle)["lexicon"]
    try:
        loaded = load_bundle(kb)
    except BundleError:
        loaded = None
    # the drawn paragraph, which seldom exists, and the widest one, if any,
    # whose words the lexicon may hold, with and without cross-references
    labels = [["label", str(head), tag, "0", *evidence]]
    if loaded is not None and loaded.kb.classes:
        at = widest_paragraph(loaded.kb)[0]
        widest = ["label", str(at.head_num), at.pos.value, str(at.para_idx), *evidence]
        labels += [widest, [*widest, "--no-xref-match"]]
    for argv in (
        ["lookup", word], ["sim", word, "decrement"],
        ["stats", "class"], ["stats", "head"], ["stats", "pos"], *labels,
        ["export", "structured", "--out", out], ["export", "canonical", "--out", str(text)],
    ):
        result = runner.invoke(main, [*argv, "--kb", str(kb)])
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            argv, result.exc_info
        )
        assert result.exit_code in {0, 1, 2, 3, 4}, (argv, result.output)
        assert "Traceback" not in result.output, argv
        if result.exit_code != 0 or argv[1] == "canonical":
            continue
        if argv[0] == "lookup":
            want = "".join(
                f"{addr}\t{loaded.kb.resolve(Address(*addr[:3])).name}\t"
                f"{loaded.kb.resolve(Address(*addr[:5])).keyword}\n"
                for addr in reference_index(loaded.kb).lookup(word)
            )
        elif argv[0] == "sim":
            found = word_distance(loaded.kb, reference_index(loaded.kb), word, "decrement")
            want = (f"distance={found.distance} similarity={found.similarity:.4f} "
                    f"lca={found.lca_level} a={found.witness_a} b={found.witness_b}\n")
        elif argv[:2] == ["stats", "pos"]:  # the one table that never reads the lexicon
            want = reference_stats(stats_rows(loaded.kb, None), "pos")
        elif argv[0] == "stats":
            lemmas = None if lexicon is None else reference_load_resource(lexicon).all_lemmas()
            want = reference_stats(stats_rows(loaded.kb, lemmas), argv[1])
        elif argv[0] == "label":
            num, pos = int(argv[1]), PartOfSpeech.parse(argv[2])
            place = loaded.kb.head_address(num)
            target = Address(place.class_num, place.section_num, num, pos, int(argv[3]))
            labelled = label_paragraph(
                loaded.kb, reference_load_resource(lexicon), target,
                match_cross_refs="--no-xref-match" not in argv,
            )
            want = "".join(line + "\n" for line in reference_render_labelled(
                labelled, pos, bool(evidence)
            ))
        else:
            assert Path(out).read_text(encoding="utf-8") == reference_structured_document(loaded)
            continue
        assert result.stdout == want, argv
    if result.exit_code == 0:  # export canonical, the last call, wrote the text
        rebuilt = workdir / "rebuilt.kb"
        invoke("build", str(text), "--out", str(rebuilt))
        assert load_bundle(rebuilt).kb == load_bundle(kb).kb


def test_module_entry_point_runs(tmp_path):
    """``python -m rogetkb.cli`` reaches ``main`` through the module's
    ``__main__`` guard, which the in-process runner never executes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rogetkb.cli", "--help"], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Roget-structured thesaurus knowledge base." in done.stdout
