"""Command-line front end.

Exit codes: 0 success, 1 parse or validation errors, 2 I/O problems,
3 query target missing, 4 capability missing (bundle built without a
synset resource). Every command's output is deterministic for identical
inputs. All I/O is UTF-8.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from typing import Callable, Optional, TypeVar

import click

from .aligner import (
    LabelledParagraph,
    class_coverage,
    common_strings,
    head_coverage,
    label_paragraph,
    pos_distribution,
)
from .bundle import (
    BundleError, KBBundle, _lemmas_alongside, load_bundle, structured_document, write_bundle,
)
from .lexnet import LABEL_PRECEDENCE, LexiconError, RelationType
from .lexnet import load_resource  # unused; perfbench/tracer.py binds it here
from .metrics import word_distance
from .model import POS_BY_TAG, Address, AddressError, PartOfSpeech
from .parser import parse_source, serialize_kb

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


def _read_text(path: str) -> str:
    text, error = _try_read_text(path)
    if text is None:
        click.echo(error, err=True)
        sys.exit(EXIT_IO)
    return text


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
    read while the taxonomy parses."""
    if lemmas:
        return _read(lambda: load_bundle(kb_path, lemmas=True))
    return _read(lambda: load_bundle(kb_path))


def _part_of_speech(ctx: click.Context, param: click.Parameter, tag: str) -> PartOfSpeech:
    try:
        return PartOfSpeech.parse(tag)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


@click.group()
@click.pass_context
def main(ctx: click.Context) -> None:
    """Roget-structured thesaurus knowledge base."""
    # A command loads millions of acyclic, immutable objects and frees none
    # of them, so the cyclic collector's full passes over them find nothing.
    # It is switched off for the command only: an in-process caller gets
    # its own setting back when the context closes, on success or exit.
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)


@main.command()
@click.argument("source", type=click.Path())
@click.option("--lex", "lex_path", type=click.Path(), default=None,
              help="synset resource to embed in the bundle")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="bundle file to write")
def build(source: str, lex_path: Optional[str], out_path: str) -> None:
    """Parse SOURCE, index it, and write a bundle.

    Diagnostics go to standard error; the bundle is written only when no
    error-severity diagnostic was produced.
    """
    text = _read_text(source)
    # The lexicon is read and checked while the source parses, but its
    # faults are reported after the parse's, in the order a sequential
    # build gives: parse errors, then an unreadable lexicon, then a
    # malformed one.
    lex_text, lex_error = _try_read_text(lex_path) if lex_path is not None else (None, "")
    with _lemmas_alongside(lex_text) as checked:
        result = parse_source(text)
        for diag in result.diagnostics:
            click.echo(str(diag), err=True)
        if result.kb is None:
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
        write_bundle(out_path, result.kb, result.diagnostics, lex_text)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_IO)
    counts = result.kb.count_nodes().total
    click.echo(
        f"wrote {out_path}: {len(result.kb.classes)} classes, "
        f"{counts.heads} heads, {counts.entries} entries"
    )


@main.command()
@click.argument("word")
@_KB_OPTION
def lookup(word: str, kb_path: str) -> None:
    """Print every address of WORD: address, head name, paragraph keyword.

    A miss prints nothing and still exits 0.
    """
    bundle = _load(kb_path)
    for addr in bundle.index_of([word]).lookup(word):
        head = bundle.kb.resolve(Address(*addr[:3]))
        para = bundle.kb.resolve(Address(*addr[:5]))
        click.echo(f"{addr}\t{head.name}\t{para.keyword}")


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
    result = word_distance(bundle.kb, index, word_a, word_b)
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
    if mode == "pos":
        click.echo("pos\tfraction")
        shares = pos_distribution(bundle.kb)
        for pos in PartOfSpeech:
            click.echo(f"{pos.value}\t{shares[pos]:.4f}")
        return
    lemmas = bundle.lemmas
    common = common_strings(bundle.kb, lemmas) if lemmas is not None else frozenset()
    if mode == "class":
        report = class_coverage(bundle.kb, common, strip_gloss=strip)
        click.echo("classNum\tsections\theads\tparagraphs\tsemicolonGroups\tstrings" + (
            "\tpctCommonHeads\tpctCommonKeywords\tpctCommonStrings" if lemmas is not None else ""))
        for row in report.rows + (report.total,):
            label_cell = "total" if row.class_num is None else str(row.class_num)
            line = (f"{label_cell}\t{row.sections}\t{row.heads}\t{row.paragraphs}\t"
                    f"{row.groups}\t{row.strings}")
            if lemmas is not None:
                line += (f"\t{row.pct_common_heads:.2f}\t{row.pct_common_keywords:.2f}"
                         f"\t{row.pct_common_strings:.2f}")
            click.echo(line)
        return
    click.echo("headNum\theadName" + ("\theadNameInLex" if lemmas is not None else "")
               + "\tparagraphs\tsemicolonGroups\tstrings"
               + ("\tpctCommonStrings\tpctCommonKeywords" if lemmas is not None else ""))
    for row in head_coverage(bundle.kb, lemmas or frozenset(), common, strip_gloss=strip)[:top]:
        line = f"{row.head_num}\t{row.head_name}"
        if lemmas is not None:
            line += "\tyes" if row.head_name_in_lex else "\tno"
        line += f"\t{row.paragraphs}\t{row.groups}\t{row.strings}"
        if lemmas is not None:
            line += f"\t{row.pct_common_strings:.2f}\t{row.pct_common_keywords:.2f}"
        click.echo(line)


def _label_name(label: Optional[RelationType]) -> str:
    return "No label" if label is None else label.value.capitalize()


def render_labelled(result: LabelledParagraph, pos: PartOfSpeech, show_evidence: bool) -> list[str]:
    """Keyword header, then one line per label in precedence order listing
    that label's groups in source order. The keyword entry itself is shown
    only in the header; a group left empty by that removal is covered by
    the header alone."""
    lines = [f"{pos.display} {result.keyword}"]
    for label in list(LABEL_PRECEDENCE) + [None]:
        rendered = []
        for sg_idx, item in enumerate(result.labelled):
            if item.label is not label:
                continue
            entries = item.group.entries[1:] if sg_idx == 0 else item.group.entries
            text = ", ".join(entry.render() for entry in entries)
            if text:
                rendered.append(text)
        if rendered:
            lines.append(f"{_label_name(label)}: " + "; ".join(rendered))
    if show_evidence:
        for sg_idx, item in enumerate(result.labelled):
            if item.evidence:
                triples = " ".join(
                    f"{ev.string}->{ev.synset_id}({ev.relation.value})" for ev in item.evidence
                )
                lines.append(f"evidence: sg={sg_idx} {triples}")
    return lines


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
    # Only the keyword's neighbourhood of the lexicon is read, so the target
    # paragraph is found first. A missing target exits 3 only after the
    # lexicon is read: a malformed lexicon exits 2 and an absent one 4 first.
    missing, keyword = None, ""  # "" is no lemma: the lexicon is only checked
    try:
        head_addr = bundle.kb.head_address(head_num)
        if head_addr is None:
            raise AddressError(f"head {head_num} not found")
        target = Address(head_addr.class_num, head_addr.section_num, head_num, pos, para_idx)
        keyword = bundle.kb.resolve(target).keyword
    except AddressError as exc:
        missing = exc
    resource = _read(lambda: bundle.resource_of(keyword, pos))
    if resource is None:
        click.echo("error: bundle has no synset resource (rebuild with --lex)", err=True)
        sys.exit(EXIT_CAPABILITY)
    if missing is not None:
        click.echo(f"error: {missing}", err=True)
        sys.exit(EXIT_MISSING)
    result = label_paragraph(bundle.kb, resource, target, match_cross_refs=not no_xref)
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
                out.write(serialize_kb(bundle.kb))
            else:
                structured_document(bundle, out, strip_gloss=strip)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_IO)


if __name__ == "__main__":
    main()
