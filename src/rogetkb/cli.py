"""Command-line front end.

Exit codes: 0 success, 1 parse or validation errors, 2 I/O problems,
3 query target missing, 4 capability missing (bundle built without a
synset resource). Every command's output is deterministic for identical
inputs. All I/O is UTF-8.
"""

from __future__ import annotations

import errno
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Optional, TextIO, TypeVar

import click

from .aligner import (
    COVERAGE_COLUMNS,
    HEAD_COLUMNS,
    LEXICON_COLUMNS,
    LabelledParagraph,
    _class_table,
    _head_table,
    _pos_shares,
    label_paragraph,
)
# unused; perfbench/tracer.py binds them here
from .aligner import class_coverage, common_strings, head_coverage, pos_distribution
from .bundle import (
    BundleError, KBBundle, _lemmas_alongside, _write_source, load_bundle, structured_document,
    write_bundle,
)
from .lexnet import LABEL_PRECEDENCE, LexiconError, RelationType
from .lexnet import load_resource  # unused; perfbench/tracer.py binds it here
from .metrics import word_distance
from .model import POS_BY_TAG, Address, AddressError, PartOfSpeech, _collector_paused
from .parser import (
    _canonical_counts, _classes, _tallies, _unknown_refs, canonical_heads, parse_source,
)
from .parser import serialize_kb  # unused; perfbench/tracer.py binds it here

EXIT_PARSE = 1
EXIT_IO = 2
EXIT_MISSING = 3
EXIT_CAPABILITY = 4

_T = TypeVar("_T")

_KB_OPTION = click.option(
    "--kb", "kb_path", required=True, type=click.Path(), help="knowledge-base bundle file"
)


def _try_read_text(path: str) -> tuple[Optional[str], str]:
    """The text of ``path`` and "", or None and the message saying why it
    cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8-sig"), ""
    except (OSError, UnicodeDecodeError) as exc:
        return None, f"error: cannot read {path}: {exc}"


def _read(read: Callable[[], _T]) -> _T:
    """``read()``, exiting 2 on a BundleError: an unreadable bundle, or a
    malformed lexicon when ``read`` builds a layer of it. A command builds
    that layer before it prints or writes anything."""
    try:
        return read()
    except BundleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)


def _load(kb_path: str, lemmas: bool = False) -> KBBundle:
    """Load the bundle; with ``lemmas``, also the lemma set of its lexicon,
    read while the source is proven or parsed."""
    return _read(lambda: load_bundle(kb_path, lemmas=lemmas))


def _part_of_speech(ctx: click.Context, param: click.Parameter, tag: str) -> PartOfSpeech:
    try:
        return PartOfSpeech.parse(tag)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


class _StdoutFailed(Exception):
    """A write to standard output failed; ``_Stream.error`` holds why."""


class _Stream:
    """A standard stream whose first failed write is caught and kept in
    ``error``. From then on every write to standard output ends the command
    (``_StdoutFailed``), and every write to standard error is dropped, so
    that the command goes on to the exit it meant to give. The stream's
    descriptor is pointed at the null device, so that what the stream still
    holds, and the interpreter's last flush, cannot fail again. Everything
    else is the wrapped stream's."""

    def __init__(self, stream: TextIO, ends: bool) -> None:
        self._stream, self._ends = stream, ends
        self.error: Optional[OSError] = None

    def __getattr__(self, name: str) -> object:
        return getattr(self._stream, name)

    def _guarded(self, call: Callable[[], _T]) -> Optional[_T]:
        if self.error is None:
            try:
                return call()
            except OSError as exc:
                self.error = exc
            try:
                null = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(null, self._stream.fileno())
                finally:
                    os.close(null)
                self._stream.flush()
            except (OSError, ValueError):  # no descriptor: an in-process caller's stream
                pass
        if self._ends:
            raise _StdoutFailed() from self.error
        return None

    def write(self, text: str) -> Optional[int]:
        return self._guarded(lambda: self._stream.write(text))

    def flush(self) -> None:
        self._guarded(self._stream.flush)

    @property
    def buffer(self) -> _Buffer:
        """The binary buffer beneath, guarded by this stream: click writes
        there when it finds the stream encoded as ASCII."""
        return _Buffer(self)


class _Buffer(_Stream):
    """The binary buffer of a ``_Stream``, whose failed write is the stream's own."""

    def __init__(self, stream: _Stream) -> None:
        self._stream, self._owner = stream._stream.buffer, stream

    def _guarded(self, call: Callable[[], _T]) -> Optional[_T]:
        return self._owner._guarded(call)


class _Group(click.Group):
    """The command group, whose every call, ``--help`` and usage errors
    included, maps a failed write to standard output or standard error
    onto the exit table."""

    def main(self, *args: Any, **kwargs: Any) -> Any:
        """Run the command. A failed write to standard output exits 2 with
        one ``error: cannot write standard output`` line on standard error,
        or none when the output is a closed pipe (its reader has gone). A
        failed write to standard error exits 2 if the command would have
        exited 0, and otherwise with the command's own code."""
        streams = sys.stdout, sys.stderr
        out, err = _Stream(sys.stdout, ends=True), _Stream(sys.stderr, ends=False)
        sys.stdout, sys.stderr = out, err
        try:
            try:
                return super().main(*args, **kwargs)
            except _StdoutFailed:
                pass
            except SystemExit as done:
                # a failed write that click's own probe of the stream caught
                # (it then writes to the stream's buffer) ends the command too
                if out.error is None and (err.error is None or done.code not in (0, None)):
                    raise
            if out.error is not None and out.error.errno != errno.EPIPE:
                click.echo(f"error: cannot write standard output: {out.error}", err=True)
            sys.exit(EXIT_IO)
        finally:
            sys.stdout, sys.stderr = streams


@click.group(cls=_Group)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Roget-structured thesaurus knowledge base."""
    # The builders pause the collector themselves, but after a paused build
    # the first collection would scan everything built, once per command.
    # So it stays off for the whole command, and an in-process caller gets
    # its own setting back when the context closes, on success or exit.
    ctx.with_resource(_collector_paused())


@main.command()
@click.argument("source", type=click.Path())
@click.option("--lex", "lex_path", type=click.Path(), default=None,
              help="synset resource to embed in the bundle")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="bundle file to write")
def build(source: str, lex_path: Optional[str], out_path: str) -> None:
    """Read SOURCE and write a bundle that stores its canonical text.

    A source already in canonical form is stored as it was read; any other
    is parsed. Diagnostics go to standard error; the bundle is written only
    when no error-severity diagnostic was produced.
    """
    text, error = _try_read_text(source)
    if text is None:
        click.echo(error, err=True)
        sys.exit(EXIT_IO)
    # The lexicon is read and checked while the source parses, but its
    # faults are reported after the parse's, in the order a sequential
    # build gives: parse errors, then an unreadable lexicon, then a
    # malformed one. A proven text is neither parsed nor built: its only
    # diagnostics are its references to undeclared heads, and it is counted
    # line by line while the lexicon is read.
    lex_text, lex_error = _try_read_text(lex_path) if lex_path is not None else (None, "")
    with _lemmas_alongside(lex_text, keep=False) as checked:
        heads = canonical_heads(text)
        if heads is None:
            result = parse_source(text)
            kb, diagnostics = result.kb, result.diagnostics
        else:
            kb, diagnostics = None, _unknown_refs(text, heads)
            counts = _canonical_counts(text, heads)
        for diag in diagnostics:
            click.echo(str(diag), err=True)
        if heads is None and kb is None:
            sys.exit(EXIT_PARSE)
        if lex_error:
            click.echo(lex_error, err=True)
            sys.exit(EXIT_IO)
        try:
            checked()  # the full check, without building the synset graph
        except LexiconError as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_PARSE)
    try:
        if heads is None:
            write_bundle(out_path, kb, diagnostics, lex_text)
        else:  # the proven text is serialize_kb of its KB, byte for byte
            _write_source(out_path, text, diagnostics, lex_text)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    if heads is None:
        tally = kb.count_nodes()
        counts = len(kb.classes), tally.heads, tally.entries
    click.echo("wrote {}: {} classes, {} heads, {} entries".format(out_path, *counts))


@main.command()
@click.argument("word")
@_KB_OPTION
def lookup(word: str, kb_path: str) -> None:
    """Print every address of WORD: address, head name, paragraph keyword.

    A miss prints nothing and still exits 0.
    """
    # the text gives each posting with its head name and keyword, and builds no head
    for addr, head_name, keyword in _load(kb_path)._rows(word):
        click.echo(f"{addr}\t{head_name}\t{keyword}")


@main.command()
@click.argument("word_a")
@click.argument("word_b")
@_KB_OPTION
def sim(word_a: str, word_b: str, kb_path: str) -> None:
    """Edge-counting distance and similarity between two words."""
    bundle = _load(kb_path)
    index = bundle.index_of([word_a, word_b])
    missing = [w for w in (word_a, word_b) if not index.lookup(w)]
    if missing:
        for word in missing:
            click.echo(f"error: word not indexed: {word}", err=True)
        sys.exit(EXIT_MISSING)
    # word_distance reads only the index, so the text builds no head
    result = word_distance(bundle.kb_of(), index, word_a, word_b)
    click.echo(
        f"distance={result.distance} similarity={result.similarity:.4f} "
        f"lca={result.lca_level} a={result.witness_a} b={result.witness_b}"
    )


@main.command()
@click.argument("mode", type=click.Choice(["class", "head", "pos"]))
@_KB_OPTION
@click.option("--top", type=click.IntRange(min=0), help="truncate head mode to the first K rows")
@click.option("--strip-gloss", "strip", is_flag=True,
              help="match head names with the ':' gloss removed")
def stats(mode: str, kb_path: str, top: Optional[int], strip: bool) -> None:
    """Tab-separated corpus tables: per-class, per-head, or POS shares.

    Coverage percentage columns appear when the bundle carries a synset
    resource; otherwise the tables are counts-only.
    """
    bundle = _load(kb_path, lemmas=mode != "pos")
    # the text is tallied once, in its own lines, and builds no tree
    proven = bundle.canonical_text, bundle._heads
    if mode == "pos":
        click.echo("pos\tfraction")
        shares = _pos_shares(_tallies(*proven))
        for pos in PartOfSpeech:
            click.echo(f"{pos.value}\t{shares[pos]:.4f}")
        return
    lemmas = bundle.lemmas
    strings = lemmas or frozenset()
    # one pass: an entry hits when a lemma is its text, and the hits are the common strings
    found: set[str] = set()
    tallies = _tallies(*proven, strings, found if mode == "class" else None)
    if mode == "class":
        report = _class_table(_classes(*proven), tallies, found, strip)
        columns, rows = COVERAGE_COLUMNS, report.rows + (report.total,)
    else:
        columns, rows = HEAD_COLUMNS, _head_table(tallies, strings, strip)[:top]
    shown = [i for i, name in enumerate(columns)
             if lemmas is not None or name not in LEXICON_COLUMNS]
    click.echo("\t".join(columns[i] for i in shown))
    for row in rows:
        values = [getattr(row, field.name) for field in fields(row)]
        click.echo("\t".join(_cell(values[i]) for i in shown))


def _cell(value: object) -> str:
    """A ``stats`` table cell: the totals row's missing class number, a
    yes/no flag, a share to two places, or a count or name as it is."""
    if value is None:
        return "total"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def render_labelled(result: LabelledParagraph, pos: PartOfSpeech, show_evidence: bool) -> list[str]:
    """Keyword header, then one line per label in precedence order listing
    that label's groups in source order. The keyword entry itself is shown
    only in the header; a group left empty by that removal is covered by
    the header alone."""
    texts: dict[Optional[RelationType], list[str]] = {}
    evidence = []
    for sg_idx, item in enumerate(result.labelled):
        entries = item.group.entries[1:] if sg_idx == 0 else item.group.entries
        text = ", ".join(entry.render() for entry in entries)
        if text:
            texts.setdefault(item.label, []).append(text)
        if show_evidence and item.evidence:
            evidence.append(f"evidence: sg={sg_idx} " + " ".join(
                f"{ev.string}->{ev.synset_id}({ev.relation.value})" for ev in item.evidence
            ))
    return [f"{pos.display} {result.keyword}"] + [
        f"{'No label' if label is None else label.value.capitalize()}: " + "; ".join(texts[label])
        for label in (*LABEL_PRECEDENCE, None) if label in texts
    ] + evidence


@main.command()
@click.argument("head_num", type=int)
@click.argument("pos", metavar="{" + "|".join(POS_BY_TAG) + "}", callback=_part_of_speech)
@click.argument("para_idx", type=int, default=0, required=False)
@_KB_OPTION
@click.option("--evidence", "show_evidence", is_flag=True,
              help="print the matched string/synset pairs per labelled group")
@click.option("--no-xref-match", "no_xref", is_flag=True,
              help="do not let cross-reference keywords participate in matching")
def label(head_num: int, pos: PartOfSpeech, para_idx: int, kb_path: str,
          show_evidence: bool, no_xref: bool) -> None:
    """Label the semicolon groups of one paragraph against the keyword's
    mini-net and print the paragraph regrouped by relation."""
    bundle = _load(kb_path)
    kb = bundle.kb_of(heads=[head_num])
    # Only the keyword's neighbourhood of the lexicon is read, so the target
    # paragraph is found first. A missing target exits 3 only after the
    # lexicon is read: a malformed lexicon exits 2 and an absent one 4 first.
    missing, keyword = None, ""  # "" is no synset's lemma: the lexicon is only checked
    try:
        head_addr = kb.head_address(head_num)
        if head_addr is None:
            raise AddressError(f"head {head_num} not found")
        target = Address(head_addr.class_num, head_addr.section_num, head_num, pos, para_idx)
        keyword = kb.resolve(target).keyword
    except AddressError as exc:
        missing = exc
    resource = _read(lambda: bundle.resource_of(keyword, pos))
    if resource is None:
        click.echo("error: bundle has no synset resource (rebuild with --lex)", err=True)
        sys.exit(EXIT_CAPABILITY)
    if missing is not None:
        click.echo(f"error: {missing}", err=True)
        sys.exit(EXIT_MISSING)
    result = label_paragraph(kb, resource, target, match_cross_refs=not no_xref)
    for line in render_labelled(result, pos, show_evidence):
        click.echo(line)


@main.command()
@click.argument("fmt", metavar="FORMAT", type=click.Choice(["canonical", "structured"]))
@_KB_OPTION
@click.option("--out", "out_path", type=click.Path(), required=True, help="file to write")
@click.option("--strip-gloss", "strip", is_flag=True,
              help="match head names with the ':' gloss removed in coverage rows")
def export(fmt: str, kb_path: str, out_path: str, strip: bool) -> None:
    """Write the bundle back out: FORMAT is ``canonical`` (the source
    grammar, re-parseable) or ``structured`` (JSON with taxonomy, index
    statistics, and coverage)."""
    bundle = _load(kb_path, lemmas=fmt == "structured")
    try:
        with open(out_path, "w", encoding="utf-8") as out:
            if fmt == "canonical":
                out.write(bundle.canonical_text)
            else:
                structured_document(bundle, out, strip_gloss=strip)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_IO)


if __name__ == "__main__":
    main()
