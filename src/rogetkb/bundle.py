"""Bundle persistence: one JSON file carrying the canonical source text,
the optional lexicon text, and integrity checksums.

Nothing opaque is stored. A load parses the embedded source text and checks
both recorded checksums against sha256 of the stored texts, byte for byte;
the index and the lexicon are built from them on first use. Output is
byte-deterministic (no timestamps).

The lexicon check is the one read that needs nothing from the parse, so a
caller that needs both (``build --lex`` and the coverage commands) can run
it in a forked child while it parses: see ``_lemmas_alongside``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from json.encoder import encode_basestring
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, TextIO, Union

from .aligner import class_coverage, common_strings, pos_distribution
from .index import LexicalIndex, build_index
from .lexnet import LexiconError, SynsetResource, lexicon_lemmas, load_neighbourhood, load_resource
from .model import PartOfSpeech, RogetClass, Section, ThesaurusKB
from .parser import ParseDiagnostic, parse_source, serialize_kb

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


class KBBundle:
    """A loaded bundle: the parsed knowledge base and its checked metadata.
    The index and the lexicon are built on first access, so a command pays
    only for the layers it reads. A single query reads a scoped layer: it
    indexes only its words, or keeps only its keyword's neighbourhood of
    the lexicon. A command that counts lemmas keeps only the lemma set."""

    def __init__(
        self, kb: ThesaurusKB, meta: BuildMeta, lex_text: Optional[str], path: str
    ) -> None:
        self.kb = kb
        self.meta = meta
        self._lex_text = lex_text
        self._path = path

    @cached_property
    def index(self) -> LexicalIndex:
        """The full index, built once: the path for many queries."""
        return build_index(self.kb)

    def index_of(self, words: Iterable[str]) -> LexicalIndex:
        """An index of ``words`` alone, built by one walk that keeps only
        their postings and not cached: the path for a single query."""
        return build_index(self.kb, words)

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
        malformed. Read by one checked pass that keeps only that part, and
        not cached: the path for a single query. Once ``resource`` is
        built, that is the answer."""
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
    source = serialize_kb(kb)
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


def _fork_lemmas(text: str) -> tuple[int, Optional[BinaryIO]]:
    """The pid of a forked child that writes the outcome of
    ``lexicon_lemmas(text)`` down a pipe, and the read end of that pipe.
    The reply is "L" and the lemmas one a line (a normalized lemma holds
    no line break), or "E", the line of the LexiconError, a line break and
    its message. ``(0, None)`` when no child can be started: no
    ``os.fork``, another live thread, or an OSError."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0, None
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return 0, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return 0, None
    if pid == 0:  # the child leaves only through os._exit, never back to the caller
        code = 1
        try:
            os.close(read_fd)
            try:
                reply = "L" + "\n".join(lexicon_lemmas(text))
            except LexiconError as exc:
                reply = f"E{exc.line}\n{exc.message}"
            with open(write_fd, "wb") as pipe:
                pipe.write(reply.encode("utf-8", "surrogatepass"))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


@contextmanager
def _lemmas_alongside(text: Optional[str]) -> Iterator[Callable[[], Optional[frozenset[str]]]]:
    """Start ``lexicon_lemmas(text)`` in a forked child, so that it runs
    while the caller parses, and yield the function that returns its
    result: the lemma set, or the same LexiconError (None when ``text`` is).
    The child only saves time: when none could be started, or it died
    before its whole reply was written, that function reads ``text``
    itself. Fork before the parse, while the process is small: the child
    starts as big as its parent. However the block ends, a child still
    running is killed and reaped."""
    pid, pipe = _fork_lemmas(text) if text is not None else (0, None)

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
                if reply[:1] == b"L":
                    return frozenset(body.split("\n")) if body else frozenset()
                line, _, message = body.partition("\n")
                raise LexiconError(int(line), message)
        return lexicon_lemmas(text)

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
    """Read, parse and check the bundle at ``path``. With ``lemmas``, the
    embedded lexicon's lemma set is read too, in a child process while the
    taxonomy parses when one can be started, so that ``lemmas`` is already
    built and a malformed lexicon raises BundleError here, after every
    other check."""
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
        result = parse_source(source)
        if result.kb is None:
            raise BundleError(f"bundle {path} contains an unparseable source document")

        meta = BuildMeta(
            source_checksum=_verified(
                meta_doc.get("sourceChecksum"), _source_checksum, source, "source", path
            ),
            lex_checksum=None if lex_text is None else _verified(
                meta_doc.get("lexChecksum"), _sha256, lex_text, "lexicon", path
            ),
            errors=_count(diag, "errors", path),
            warnings=_count(diag, "warnings", path),
        )
        bundle = KBBundle(kb=result.kb, meta=meta, lex_text=lex_text, path=str(path))
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
_str, _int = encode_basestring, int.__repr__  # the encoders json.dumps uses


def _section_chunk(sec: Section) -> str:
    """One section of the taxonomy, rendered at its place in the document."""
    return _SECTION % (_int(sec.number), _str(sec.name), _array([
        _HEAD % (_int(head.number), _str(head.name), _array([
            _PARAGRAPH % (_str(para.pos.value), _str(para.keyword), _array([
                _GROUP % _array([
                    _ENTRY % (_str(entry.text), _array([
                        _REF % (_int(ref.head_num), _str(ref.keyword)) for ref in entry.cross_refs
                    ], 14))
                    for entry in group.entries
                ], 12)
                for group in para.groups
            ], 10))
            for para in head.paragraphs
        ], 8))
        for head in sec.heads
    ], 6))


def _taxonomy(classes: tuple[RogetClass, ...]) -> Iterator[str]:
    """The taxonomy array in chunks of at most one section's text."""
    for i, cls in enumerate(classes):
        yield ("," if i else "[") + "\n    " + _CLASS_OPEN % (_int(cls.number), _str(cls.name))
        for j, sec in enumerate(cls.sections):
            yield ("," if j else "[") + "\n        " + _section_chunk(sec)
        yield ("\n      ]" if cls.sections else "[]") + _CLASS_CLOSE
    yield "\n  ]" if classes else "[]"


def structured_document(bundle: KBBundle, out: TextIO, *, strip_gloss: bool = False) -> None:
    """Write the machine-readable export to the text stream ``out``: full
    taxonomy, index statistics, and (when the bundle carries a lexicon) coverage rows,
    laid out as ``json.dumps(indent=2)`` lays them out, in fixed key order. The
    taxonomy is streamed a section at a time, never the whole document at once."""
    kb = bundle.kb
    counts = kb.count_nodes().total

    coverage = None
    if bundle.lemmas is not None:
        common = common_strings(kb, bundle.lemmas)
        report = class_coverage(kb, common, strip_gloss=strip_gloss)

        def row(r) -> dict:
            return {
                "classNum": r.class_num,
                "sections": r.sections,
                "heads": r.heads,
                "paragraphs": r.paragraphs,
                "semicolonGroups": r.groups,
                "strings": r.strings,
                "pctCommonHeads": r.pct_common_heads,
                "pctCommonKeywords": r.pct_common_keywords,
                "pctCommonStrings": r.pct_common_strings,
            }

        coverage = {
            "keywordDenominator": "paragraphs",
            "commonStrings": len(common),
            "classes": [row(r) for r in report.rows],
            "total": row(report.total),
        }

    header = {
        "format": "rogetkb-structured",
        "version": _VERSION,
        "sourceChecksum": bundle.meta.source_checksum,
        "counts": {
            "classes": len(kb.classes),
            "sections": counts.sections,
            "heads": counts.heads,
            "paragraphs": counts.paragraphs,
            "semicolonGroups": counts.groups,
            "entries": counts.entries,
        },
        "index": {
            "uniqueStrings": len(kb.entry_strings()),
            "totalOccurrences": counts.entries,
        },
        "posDistribution": {
            pos.value: share for pos, share in pos_distribution(kb).items()
        },
    }
    # the header without its closing "\n}", so the taxonomy joins it
    out.write(json.dumps(header, indent=2, ensure_ascii=False)[:-2] + ',\n  "taxonomy": ')
    out.writelines(_taxonomy(kb.classes))
    nested = json.dumps(coverage, indent=2, ensure_ascii=False).replace("\n", "\n  ")
    out.write(f',\n  "coverage": {nested}\n}}\n')
