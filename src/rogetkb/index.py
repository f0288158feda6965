"""Complete lexical index: every normalized word or phrase to all of its
entry-level addresses. Phrases are indexed whole, never tokenized."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import Address, PartOfSpeech, ThesaurusKB, _collector_paused
from .text import normalize

__all__ = ["LexicalIndex", "build_index"]


@dataclass(frozen=True)
class LexicalIndex:
    """Address lists are sorted in taxonomy order: (class, section, head,
    POS in canonical order, paragraph, group, entry). An index built for
    some words only reports a miss for every other word."""

    entries: dict[str, tuple[Address, ...]]

    def lookup(self, query: str) -> tuple[Address, ...]:
        """All addresses whose entry text normalizes to the query; a miss is
        an empty tuple, never an error."""
        return self.entries.get(normalize(query), ())


@_collector_paused()
def build_index(kb: ThesaurusKB, words: Optional[Iterable[str]] = None) -> LexicalIndex:
    """One walk in taxonomy order: per head, parts of speech in canonical
    order, then each one's paragraphs, groups and entries. Numbers ascend
    at every level of a :class:`ThesaurusKB`, so each posting list comes out
    in ``Address.sort_key`` order and needs no sort.

    Given ``words``, the walk keeps only the entries whose text is one of
    them, normalized: the index then answers those words exactly as the
    full index does and reports a miss for every other word."""
    wanted = None if words is None else {normalize(word) for word in words}
    table: dict[str, list[Address]] = {}
    for cls, sec, head in kb.walk_heads():
        for pos in PartOfSpeech:
            for para_idx, para in enumerate(head.pos_paragraphs(pos)):
                for sg_idx, group in enumerate(para.groups):
                    for entry_idx, entry in enumerate(group.entries):
                        if wanted is None or entry.text in wanted:
                            table.setdefault(entry.text, []).append(Address(
                                cls.number, sec.number, head.number, pos, para_idx, sg_idx, entry_idx,
                            ))
    return LexicalIndex({text: tuple(addresses) for text, addresses in table.items()})
