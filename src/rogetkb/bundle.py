"""Bundle persistence: one JSON file carrying the canonical source text,
the optional lexicon text, and integrity checksums.

Nothing opaque is stored. A load checks both recorded checksums against
sha256 of the stored texts, byte for byte, and holds the source as a
canonical text that ``canonical_heads`` proves. A source in the canonical
form ``build`` writes is proven as it is stored; any other (a hand-edited,
re-signed bundle) is parsed at load and rendered in that form, which pays
the parse, ``serialize_kb`` and the proof (see ``load_bundle``). Every
command answers from that text: a single query's postings are read from it
without building any head, and the knowledge base, the index and the
lexicon are built from the texts on first use. Output is
byte-deterministic (no timestamps).

``structured_document`` writes the structured export with one streaming
writer: each of its objects is a layout template that its values fill
from the lines of the canonical text.

The lexicon check is the one read that needs nothing from the taxonomy,
so a caller that needs both (``build --lex`` and the coverage commands)
can run it in a forked child while it proves or parses: see
``_lemmas_alongside``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import groupby
from pathlib import Path
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO, Union

from .aligner import COVERAGE_COLUMNS, _class_table, _pos_shares
# unused; perfbench/tracer.py binds them here
from .aligner import class_coverage, common_strings, pos_distribution
from .index import LexicalIndex, build_index
from .lexnet import LexiconError, SynsetResource, lexicon_lemmas, load_neighbourhood, load_resource
from .model import POS_BY_TAG, Address, PartOfSpeech, ThesaurusKB
from .parser import (
    HeadSlice, ParseDiagnostic, _canonical_kb, _classes, _entry_sites, _fields, _postings,
    _tallies, canonical_heads, parse_source, serialize_kb,
)
from .text import normalize

__all__ = ["BuildMeta", "KBBundle", "BundleError", "write_bundle", "load_bundle", "structured_document"]

_FORMAT = "rogetkb-bundle"
_VERSION = 1


class BundleError(ValueError):
    """Unreadable, malformed, or corrupted bundle file."""


@dataclass(frozen=True)
class BuildMeta:
    source_checksum: str
    lex_checksum: Optional[str]
    errors: int
    warnings: int


def _kb_of_heads(text: str, heads: list[HeadSlice], words: tuple[str, ...],
                 numbers: tuple[int, ...]) -> ThesaurusKB:
    """The knowledge base of the pieces of the proven ``text`` (``heads`` is
    its proof) that belong to the heads numbered in ``numbers`` or holding
    one of ``words``, in file order, built as ``KBBundle.kb`` is."""
    kept = {i for i, head in enumerate(heads) if head.number in numbers}
    kept.update(i for word in words for i, _ in _entry_sites(text, heads, word))
    if not kept:  # nothing to build
        return ThesaurusKB(())
    # heads of one section share its lines, which are built once
    pieces = dict.fromkeys(piece for i in sorted(kept) for piece in heads[i].pieces)
    return _canonical_kb("".join(text[start:end] for start, end in pieces))


class KBBundle:
    """A loaded bundle: its knowledge base and checked metadata. The stored
    source is held as a canonical text that ``canonical_heads`` proves:
    ``serialize_kb`` of the knowledge base, byte for byte. Every layer is
    built from it on first access, so a command pays only for the layers it
    reads: ``kb`` is built without the general parser, ``kb_of`` builds only
    the heads a query reads, and ``index_of`` reads its words' postings from
    the text itself. A single query reads a scoped layer: it indexes only
    its words, or keeps only its keyword's neighbourhood of the lexicon. A
    command that counts lemmas keeps only the lemma set."""

    def __init__(self, source: str, meta: Optional[BuildMeta], lex_text: Optional[str],
                 path: str) -> None:
        """The bundle of the stored ``source``; BundleError when it does not
        parse. A source that ``canonical_heads`` does not prove is parsed
        and kept as ``serialize_kb`` of its KB, which it proves: such a
        (re-signed) bundle pays the parse, the render and the proof here."""
        self.meta, self._lex_text, self._path = meta, lex_text, path
        heads = canonical_heads(source)
        if heads is None:
            kb = parse_source(source).kb
            if kb is None:
                raise BundleError(f"bundle {path} contains an unparseable source document")
            source = serialize_kb(kb)
            heads = canonical_heads(source)
        self.canonical_text, self._heads = source, heads

    @cached_property
    def kb(self) -> ThesaurusKB:
        """The whole knowledge base, built by the builder that trusts the proof."""
        return _canonical_kb(self.canonical_text)

    @cached_property
    def index(self) -> LexicalIndex:
        """The full index, built once: the path for many queries."""
        return build_index(self.kb)

    def kb_of(self, words: Iterable[str] = (), heads: Iterable[int] = ()) -> ThesaurusKB:
        """A knowledge base holding at least every head with an entry that
        normalizes to one of ``words`` and every head numbered in ``heads``,
        so that it answers their index lookups, ``resolve`` and
        ``head_address`` calls as ``kb`` does. It is built anew on each call
        from those heads' pieces of the text, and not kept."""
        return _kb_of_heads(self.canonical_text, self._heads, tuple(words), tuple(heads))

    def _rows(self, word: str) -> list[tuple[Address, str, str]]:
        """``parser._postings`` of ``word``: its postings, each with its
        head's name and paragraph's keyword, read from the text."""
        return _postings(self.canonical_text, self._heads, word)

    def index_of(self, words: Iterable[str]) -> LexicalIndex:
        """An index of ``words`` alone, not cached: the path for a single
        query. Their postings are read from the text, building no head."""
        found = {normalize(word): self._rows(word) for word in words}
        return LexicalIndex({key: tuple(r[0] for r in rows) for key, rows in found.items() if rows})

    def _read_lexicon(self, read: Callable[[str], Any]) -> Any:
        """``read`` of the embedded lexicon text; BundleError when it is malformed."""
        try:
            return read(self._lex_text)
        except LexiconError as exc:
            raise BundleError(f"bundle {self._path} carries a malformed lexicon: {exc}") from exc

    @cached_property
    def resource(self) -> Optional[SynsetResource]:
        """The embedded lexicon's synset graph, or None; raises BundleError
        when it is malformed."""
        if self._lex_text is None:
            return None
        resource = self._read_lexicon(load_resource)
        self._lex_text = None  # cached from here on; the text need not live through the command
        return resource

    def resource_of(self, lemma: str, pos: PartOfSpeech) -> Optional[SynsetResource]:
        """The part of the embedded lexicon that ``build_mini_net`` reads for
        ``lemma`` at ``pos``, or None; raises BundleError when it is
        malformed. Read by one pass that proves or checks every chunk and
        keeps only that part, and not cached: the path for a single query.
        A lemma that no synset of ``pos`` holds, "" included, is read as
        that pass alone. Once ``resource`` is built, that is the answer."""
        if self._lex_text is None:  # no lexicon, or ``resource`` holds it now
            return self.resource
        return self._read_lexicon(lambda text: load_neighbourhood(text, lemma, pos))

    @cached_property
    def lemmas(self) -> Optional[frozenset[str]]:
        """Every lemma of the embedded lexicon, or None; raises BundleError
        when it is malformed. Checked without building the synset graph,
        unless ``resource`` has already built it."""
        if self._lex_text is None:  # no lexicon, or ``resource`` holds it now
            return None if self.resource is None else self.resource.all_lemmas()
        return self._read_lexicon(lexicon_lemmas)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_checksum(source: str) -> str:
    """Checksum of a stored source text. The empty KB is stored as "" but,
    like any KB, checksums its canonical text: a single line break."""
    return _sha256(source or "\n")


def write_bundle(
    path: Union[str, Path],
    kb: ThesaurusKB,
    diagnostics: tuple[ParseDiagnostic, ...] = (),
    lex_text: Optional[str] = None,
) -> BuildMeta:
    return _write_source(path, serialize_kb(kb), diagnostics, lex_text)


def _write_source(
    path: Union[str, Path],
    source: str,
    diagnostics: tuple[ParseDiagnostic, ...],
    lex_text: Optional[str],
) -> BuildMeta:
    """``write_bundle`` of the knowledge base whose ``serialize_kb`` is
    ``source``: a text that ``canonical_heads`` proves is stored as it is."""
    meta = BuildMeta(
        source_checksum=_source_checksum(source),
        lex_checksum=_sha256(lex_text) if lex_text is not None else None,
        errors=sum(1 for d in diagnostics if d.severity == "error"),
        warnings=sum(1 for d in diagnostics if d.severity == "warning"),
    )
    document = {
        "format": _FORMAT,
        "version": _VERSION,
        "meta": {
            "sourceChecksum": meta.source_checksum,
            "lexChecksum": meta.lex_checksum,
            "diagnostics": {"errors": meta.errors, "warnings": meta.warnings},
        },
        "source": source,
        "lexicon": lex_text,
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2, ensure_ascii=False)
        out.write("\n")
    return meta


def _field(document: dict, key: str, kind: Union[type, tuple], default: Any, path: object) -> Any:
    """``document[key]`` (``default`` when absent), which must be a ``kind``."""
    value = document.get(key, default)
    if not isinstance(value, kind):
        raise BundleError(f"bundle {path} has a malformed {key!r} field")
    return value


def _count(diag: dict, key: str, path: object) -> int:
    """The count ``diag[key]`` (0 when absent): a non-negative int, not a bool."""
    value = diag.get(key, 0)
    if type(value) is not int or value < 0:
        raise BundleError(f"bundle {path} has a malformed {key!r} field")
    return value


def _verified(recorded: object, checksum: Callable[[str], str], text: str, what: str, path) -> str:
    """``recorded``, which must equal ``checksum(text)``. A lone surrogate (a JSON
    escape such as ``\\ud800``) has no UTF-8 form, so no checksum can match it."""
    try:
        if recorded == checksum(text):
            return recorded
    except UnicodeEncodeError:
        pass
    raise BundleError(f"bundle {path} failed its {what} checksum")


@contextmanager
def _lemmas_alongside(
    text: Optional[str], keep: bool = True
) -> Iterator[Callable[[], Optional[frozenset[str]]]]:
    """Start ``lexicon_lemmas(text)`` in a forked child, so that it runs
    while the caller parses, and yield the function that returns its
    result: the lemma set, or the same LexiconError (None when ``text`` is,
    and, unless ``keep``, once the check passes). The child replies down a
    pipe with "L" and, if ``keep``, the lemmas one a line (a normalized
    lemma holds no line break), or "E", the line of the LexiconError, a
    line break and its message, and leaves only through ``os._exit``. The
    child only saves time: that function reads ``text`` itself when no
    child was started (no ``os.fork``, another live thread, or an OSError
    from ``os.pipe`` or ``os.fork``) or the child exited non-zero, before
    its whole reply was written. Fork before the parse, while the process
    is small: the child starts as big as its parent. However the block
    ends, a child still running is killed and reaped."""
    pid, pipe = 0, None
    if text is not None and hasattr(os, "fork") and threading.active_count() == 1:
        fds: tuple[int, ...] = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
        else:
            if pid == 0:  # the child, which never returns to the caller
                try:
                    os.close(read_fd)
                    try:
                        read = lexicon_lemmas(text)
                        reply = "L" + ("\n".join(read) if keep else "")
                    except LexiconError as exc:
                        reply = f"E{exc.line}\n{exc.message}"
                    with open(write_fd, "wb") as out:
                        out.write(reply.encode("utf-8", "surrogatepass"))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            pipe = open(read_fd, "rb")

    def lemmas() -> Optional[frozenset[str]]:
        nonlocal pid
        if text is None:
            return None
        if pid:
            reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pid = 0
            if status == 0:  # the child exits 0 only once its whole reply is written
                body = reply[1:].decode("utf-8", "surrogatepass")
                if reply[:1] == b"L" and not keep:
                    return None
                if reply[:1] == b"L":
                    return frozenset(body.split("\n")) if body else frozenset()
                line, _, message = body.partition("\n")
                raise LexiconError(int(line), message)
        read = lexicon_lemmas(text)
        return read if keep else None

    try:
        yield lemmas
    finally:
        if pipe is not None:
            pipe.close()
        if pid:
            # imported here, on the early exits alone: the module costs each
            # call a third of a megabyte at its peak
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def load_bundle(path: Union[str, Path], *, lemmas: bool = False) -> KBBundle:
    """Read and check the bundle at ``path``. A source text in the canonical
    form that ``build`` writes is proven so by ``canonical_heads`` and kept
    as it is; any other source is parsed and rendered in that form, so that
    an unparseable one raises BundleError before the checksums are checked.
    No layer is built: ``kb`` is built from the text on first access, and
    the coverage commands read the text as it is. With ``lemmas``, the
    embedded lexicon's lemma set is read too, in a child process when one
    can be started, while the source is proven or parsed and the checksums
    are checked, so that a malformed lexicon raises BundleError here, after
    every other check."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past Python's digit limit, or too deep
        raise BundleError(f"bundle {path} is not valid JSON: {exc}") from exc
    del raw  # the document holds the texts: the file's need not live through the parse
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise BundleError(f"{path} is not a knowledge-base bundle")
    version = document.get("version")
    if type(version) is not int or version != _VERSION:  # neither True nor 1.0
        raise BundleError(f"unsupported bundle version {version!r}")
    meta_doc = _field(document, "meta", dict, {}, path)
    diag = _field(meta_doc, "diagnostics", dict, {}, path)
    lex_text = _field(document, "lexicon", (str, type(None)), None, path)

    source = _field(document, "source", str, "", path)
    with _lemmas_alongside(lex_text if lemmas else None) as read_lemmas:
        # a source that is not proven is parsed here, so its error comes first
        bundle = KBBundle(source, None, lex_text, str(path))
        bundle.meta = BuildMeta(
            source_checksum=_verified(
                meta_doc.get("sourceChecksum"), _source_checksum, source, "source", path
            ),
            lex_checksum=None if lex_text is None else _verified(
                meta_doc.get("lexChecksum"), _sha256, lex_text, "lexicon", path
            ),
            errors=_count(diag, "errors", path),
            warnings=_count(diag, "warnings", path),
        )
        if lemmas:
            bundle.lemmas = bundle._read_lexicon(lambda text: read_lemmas())
    return bundle


def _object(depth: int, *keys: str) -> str:
    """A JSON object in ``json.dumps(indent=2)`` layout whose members sit
    ``depth`` levels deep: a %-template with one ``%s`` per value."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}"{key}": %s' for key in keys) + "\n" + "  " * (depth - 1) + "}"


def _array(items: list[str], depth: int) -> str:
    """Rendered ``items`` as a JSON array in that layout, ``depth`` levels deep."""
    pad = "\n" + "  " * depth
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * (depth - 1) + "]" if items else "[]"


# a class is streamed section by section: its template is cut at the sections
_CLASS_OPEN, _CLASS_CLOSE = _object(3, "number", "name", "sections").rsplit("%s", 1)
_SECTION = _object(5, "number", "name", "heads")
_HEAD = _object(7, "number", "name", "paragraphs")
_PARAGRAPH = _object(9, "pos", "keyword", "semicolonGroups")
_GROUP = _object(11, "entries")
_ENTRY = _object(13, "text", "crossRefs")
_REF = _object(15, "head", "keyword")
_str = encode_basestring  # the string encoder json.dumps uses


def _directive(text: str, at: int) -> tuple[str, str]:
    """The number and the encoded name of the directive line at offset
    ``at`` of a proven text: a number as written has no leading zero, so it
    is its own ``int.__repr__``."""
    _, number, name = _fields(text, at)
    return number, _str(name)


def _text_entry(token: str) -> str:
    """A canonical entry token rendered: its text, then each ``" @"`` reference."""
    word, at, refs = token.partition(" @")
    return _ENTRY % (_str(word), _array([
        _REF % (number, _str(keyword))
        for number, keyword in (ref.split(" ", 1) for ref in refs.split(" @"))
    ] if at else [], 14))


def _text_paragraph(text: str) -> str:
    """A paragraph of a proven text rendered: its tag line, then one group a line."""
    tag, *lines = text.split("\n")
    groups = [line[:-1].split(", ") for line in lines]
    keyword = groups[0][0].partition(" @")[0]
    return _PARAGRAPH % (_str(POS_BY_TAG[tag].value), _str(keyword), _array([
        _GROUP % _array(list(map(_text_entry, group)), 12) for group in groups
    ], 10))


def _text_head(text: str, start: int, end: int) -> str:
    """The head of a proven text whose lines run from offset ``start`` to
    ``end``, rendered as its ``Head``."""
    first, *paragraphs = text[start:end - 1].split("\n#PARA ")
    _, number, name = first.split(" ", 2)
    return _HEAD % (number, _str(name), _array(list(map(_text_paragraph, paragraphs)), 8))


def _text_taxonomy(text: str, heads: list[HeadSlice]) -> Iterator[str]:
    """The taxonomy array of a text that ``canonical_heads`` proves (``heads``
    is its proof), rendered from its lines, split as ``parser._canonical_kb``
    splits them, in chunks of at most one section's text. A section's text is
    built inside the expression that yields it, so that no name holds a
    second copy while the chunk is written."""
    for i, (cls, in_class) in enumerate(groupby(heads, key=lambda head: head.pieces[0])):
        yield ("," if i else "[") + "\n    " + _CLASS_OPEN % _directive(text, cls[0])
        for j, (sec, in_section) in enumerate(groupby(in_class, key=lambda head: head.pieces[1])):
            yield ("," if j else "[") + "\n        " + _SECTION % (
                *_directive(text, sec[0]),
                _array([_text_head(text, *head.pieces[-1]) for head in in_section], 6),
            )
        yield "\n      ]" + _CLASS_CLOSE
    yield "\n  ]" if heads else "[]"


def _json(*values: Any) -> tuple[str, ...]:
    """Each scalar encoded by ``json.dumps``: the header's and the coverage's."""
    return tuple(map(json.dumps, values))


# the document is streamed around its taxonomy: its template is cut there
_DOCUMENT_OPEN, _DOCUMENT_COVERAGE, _DOCUMENT_CLOSE = _object(
    1, "format", "version", "sourceChecksum", "counts", "index", "posDistribution",
    "taxonomy", "coverage",
).rsplit("%s", 2)
_COUNTS = _object(2, "classes", "sections", "heads", "paragraphs", "semicolonGroups", "entries")
_INDEX = _object(2, "uniqueStrings", "totalOccurrences")
_POS_SHARES = _object(2, *(pos.value for pos in PartOfSpeech))
_COVERAGE = _object(2, "keywordDenominator", "commonStrings", "classes", "total")
_CLASS_ROW, _TOTAL_ROW = _object(4, *COVERAGE_COLUMNS), _object(3, *COVERAGE_COLUMNS)


def structured_document(bundle: KBBundle, out: TextIO, *, strip_gloss: bool = False) -> None:
    """Write the machine-readable export to the text stream ``out``: whole-KB
    counts (the coverage table's totals row), index statistics, POS shares,
    the taxonomy and, with a lexicon, the coverage rows, laid out as
    ``json.dumps(indent=2)`` lays them out. The canonical text is tallied
    once, in its own lines, and its taxonomy rendered from them a section at
    a time: no tree is built."""
    proven = bundle.canonical_text, bundle._heads
    lemmas = bundle.lemmas
    # an entry hits when a lemma is its text; every text is kept for uniqueStrings
    seen: set[str] = set()
    tallies = list(_tallies(*proven, lemmas or frozenset(), seen=seen))
    common = frozenset() if lemmas is None else lemmas.intersection(seen)
    sections = _classes(*proven)
    report = _class_table(sections, tallies, common, strip_gloss)
    unique, shares, total = len(seen), _pos_shares(tallies), report.total
    del seen
    out.write(_DOCUMENT_OPEN % (
        *_json("rogetkb-structured", _VERSION, bundle.meta.source_checksum),
        _COUNTS % _json(len(sections), *astuple(total)[1:6]),  # sections to strings
        _INDEX % _json(unique, total.strings),
        _POS_SHARES % _json(*shares.values()),
    ))
    out.writelines(_text_taxonomy(*proven))
    coverage = json.dumps(None) if lemmas is None else _COVERAGE % (
        *_json("paragraphs", len(common)),
        _array([_CLASS_ROW % _json(*astuple(row)) for row in report.rows], 3),
        _TOTAL_ROW % _json(*astuple(total)),
    )
    out.write(_DOCUMENT_COVERAGE + coverage + _DOCUMENT_CLOSE + "\n")
