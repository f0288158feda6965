"""Bundle persistence: one JSON file carrying the canonical source text,
the optional lexicon text, and integrity checksums.

Nothing opaque is stored. A load parses the embedded source text and checks
both recorded checksums against sha256 of the stored texts, byte for byte;
the index and the lexicon are built from them on first use. Output is
byte-deterministic (no timestamps).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Optional, Union

from .aligner import class_coverage, common_strings, pos_distribution
from .index import LexicalIndex, build_index
from .lexnet import LexiconError, SynsetResource, load_resource
from .model import ThesaurusKB
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
    only for the layers it reads."""

    def __init__(
        self, kb: ThesaurusKB, meta: BuildMeta, lex_text: Optional[str], path: str
    ) -> None:
        self.kb = kb
        self.meta = meta
        self._lex_text = lex_text
        self._path = path

    @cached_property
    def index(self) -> LexicalIndex:
        return build_index(self.kb)

    @cached_property
    def resource(self) -> Optional[SynsetResource]:
        """The embedded lexicon, or None; raises BundleError when it is malformed."""
        if self._lex_text is None:
            return None
        try:
            resource = load_resource(self._lex_text)
        except LexiconError as exc:
            raise BundleError(f"bundle {self._path} carries a malformed lexicon: {exc}") from exc
        self._lex_text = None  # cached from here on; the text need not live through the command
        return resource


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
    Path(path).write_text(
        json.dumps(document, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return meta


def _field(document: dict, key: str, kind: Union[type, tuple], default: Any, path: object) -> Any:
    """``document[key]`` (``default`` when absent), which must be a ``kind``."""
    value = document.get(key, default)
    if not isinstance(value, kind):
        raise BundleError(f"bundle {path} has a malformed {key!r} field")
    return value


def load_bundle(path: Union[str, Path]) -> KBBundle:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise BundleError(f"{path} is not a knowledge-base bundle")
    if document.get("version") != _VERSION:
        raise BundleError(f"unsupported bundle version {document.get('version')!r}")
    meta_doc = _field(document, "meta", dict, {}, path)
    diag = _field(meta_doc, "diagnostics", dict, {}, path)
    lex_text = _field(document, "lexicon", (str, type(None)), None, path)

    source = _field(document, "source", str, "", path)
    result = parse_source(source)
    if result.kb is None:
        raise BundleError(f"bundle {path} contains an unparseable source document")

    source_checksum = _source_checksum(source)
    if meta_doc.get("sourceChecksum") != source_checksum:
        raise BundleError(f"bundle {path} failed its source checksum")

    lex_checksum = None
    if lex_text is not None:
        lex_checksum = _sha256(lex_text)
        if meta_doc.get("lexChecksum") != lex_checksum:
            raise BundleError(f"bundle {path} failed its lexicon checksum")

    meta = BuildMeta(
        source_checksum=source_checksum,
        lex_checksum=lex_checksum,
        errors=_field(diag, "errors", int, 0, path),
        warnings=_field(diag, "warnings", int, 0, path),
    )
    return KBBundle(kb=result.kb, meta=meta, lex_text=lex_text, path=str(path))


def structured_document(bundle: KBBundle, *, strip_gloss: bool = False) -> str:
    """Machine-readable export: full taxonomy, index statistics, and (when a
    resource is present) coverage rows. Key order is fixed."""
    kb = bundle.kb
    counts = kb.count_nodes().total

    taxonomy = [
        {
            "number": cls.number,
            "name": cls.name,
            "sections": [
                {
                    "number": sec.number,
                    "name": sec.name,
                    "heads": [
                        {
                            "number": head.number,
                            "name": head.name,
                            "paragraphs": [
                                {
                                    "pos": para.pos.value,
                                    "keyword": para.keyword,
                                    "semicolonGroups": [
                                        {
                                            "entries": [
                                                {
                                                    "text": entry.text,
                                                    "crossRefs": [
                                                        {"head": ref.head_num, "keyword": ref.keyword}
                                                        for ref in entry.cross_refs
                                                    ],
                                                }
                                                for entry in group.entries
                                            ]
                                        }
                                        for group in para.groups
                                    ],
                                }
                                for para in head.paragraphs
                            ],
                        }
                        for head in sec.heads
                    ],
                }
                for sec in cls.sections
            ],
        }
        for cls in kb.classes
    ]

    coverage = None
    if bundle.resource is not None:
        common = common_strings(kb, bundle.resource)
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

    document = {
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
        "taxonomy": taxonomy,
        "coverage": coverage,
    }
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
