from __future__ import annotations

import hashlib
import json

from rogetkb.bundle import load_bundle, write_bundle
from rogetkb.model import ThesaurusKB


def test_write_renders_the_canonical_text_once(tmp_path, monkeypatch, kb2):
    kb = ThesaurusKB(kb2.classes)  # a fresh KB with no cached checksum
    calls = []
    render = ThesaurusKB.canonical_source
    monkeypatch.setattr(
        ThesaurusKB, "canonical_source", lambda self: calls.append(self) or render(self)
    )
    meta = write_bundle(tmp_path / "two.kb", kb)
    assert len(calls) == 1
    assert meta.source_checksum == kb2.source_checksum
    assert load_bundle(tmp_path / "two.kb").kb == kb2


def test_empty_kb_stores_no_text_but_checksums_its_canonical_text(tmp_path):
    meta = write_bundle(tmp_path / "empty.kb", ThesaurusKB(()))
    doc = json.loads((tmp_path / "empty.kb").read_text(encoding="utf-8"))
    assert doc["source"] == ""
    assert meta.source_checksum == hashlib.sha256(b"\n").hexdigest()
    assert doc["meta"]["sourceChecksum"] == meta.source_checksum
    assert load_bundle(tmp_path / "empty.kb").kb == ThesaurusKB(())
