"""Complete lexical index: every normalized word or phrase to all of its
entry-level addresses. Phrases are indexed whole, never tokenized."""

from __future__ import annotations

from dataclasses import dataclass

from .model import POS_ORDER, Address, ThesaurusKB
from .text import normalize

__all__ = ["LexicalIndex", "build_index"]


@dataclass(frozen=True)
class LexicalIndex:
    """Address lists are sorted in taxonomy order: (class, section, head,
    POS in canonical order, paragraph, group, entry)."""

    entries: dict[str, tuple[Address, ...]]
    total_occurrences: int

    @property
    def unique_count(self) -> int:
        return len(self.entries)

    def lookup(self, query: str) -> tuple[Address, ...]:
        """All addresses whose entry text normalizes to the query; a miss is
        an empty tuple, never an error."""
        return self.entries.get(normalize(query), ())

    def unique_strings(self) -> frozenset[str]:
        return frozenset(self.entries)


def build_index(kb: ThesaurusKB) -> LexicalIndex:
    """One walk in taxonomy order: per head, parts of speech in canonical
    order, then each one's paragraphs, groups and entries. Numbers ascend
    at every level of a :class:`ThesaurusKB`, so each posting list comes out
    in ``Address.sort_key`` order and needs no sort."""
    table: dict[str, list[Address]] = {}
    total = 0
    for cls, sec, head in kb.walk_heads():
        for pos in POS_ORDER:
            for para_idx, para in enumerate(head.pos_paragraphs(pos)):
                for sg_idx, group in enumerate(para.groups):
                    total += len(group.entries)
                    for entry_idx, entry in enumerate(group.entries):
                        table.setdefault(entry.text, []).append(Address(
                            cls.number, sec.number, head.number, pos, para_idx, sg_idx, entry_idx,
                        ))
    entries = {text: tuple(addresses) for text, addresses in table.items()}
    return LexicalIndex(entries=entries, total_occurrences=total)
