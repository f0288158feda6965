"""Edge-counting distance over the fixed-depth tree.

Distance is defined between semicolon groups: the number of tree edges up
to the lowest common ancestor and back down, so distance = 2 × (6 − LCA
level) and never exceeds 12. Entries inside one group are distance 0
apart; word distance is the minimum over all sense-address pairs.
Cross-references never create shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .index import LexicalIndex
from .model import MAX_GROUP_DISTANCE, SG_LEVEL, Address, AddressError, ThesaurusKB

__all__ = ["PathResult", "sg_distance", "word_distance"]


@dataclass(frozen=True)
class PathResult:
    """distance in edges; lca_level 0=root .. 6=semicolon group; witnesses
    are the addresses the distance was measured between."""

    distance: int
    lca_level: int
    witness_a: Address
    witness_b: Address

    @property
    def similarity(self) -> float:
        return 1.0 - self.distance / MAX_GROUP_DISTANCE


def _lca_level(a: Address, b: Address) -> int:
    if a.class_num != b.class_num:
        return 0
    if a.section_num != b.section_num:
        return 1
    if a.head_num != b.head_num:
        return 2
    if a.pos is not b.pos:
        return 3
    if a.para_idx != b.para_idx:
        return 4
    if a.sg_idx != b.sg_idx:
        return 5
    return SG_LEVEL


def sg_distance(kb: ThesaurusKB, a: Address, b: Address) -> PathResult:
    """Edge count between two semicolon groups. Entry-level addresses are
    accepted; the measurement uses their group prefixes either way."""
    for addr in (a, b):
        if addr.sg_idx is None:
            raise AddressError(f"{addr} does not name a semicolon group")
        kb.resolve(addr)
    lca = _lca_level(a, b)
    return PathResult(
        distance=2 * (SG_LEVEL - lca), lca_level=lca, witness_a=a, witness_b=b
    )


def word_distance(
    kb: ThesaurusKB, idx: LexicalIndex, word_a: str, word_b: str
) -> Optional[PathResult]:
    """Minimum group distance over every sense pair; None when either word
    is not indexed. Among equal-distance pairs the lexicographically first
    (address_a, address_b) wins, which the sorted index yields for free."""
    addrs_a = idx.lookup(word_a)
    addrs_b = idx.lookup(word_b)
    if not addrs_a or not addrs_b:
        return None
    best: Optional[PathResult] = None
    for a in addrs_a:
        for b in addrs_b:
            lca = _lca_level(a, b)
            if best is None or 2 * (SG_LEVEL - lca) < best.distance:
                best = PathResult(2 * (SG_LEVEL - lca), lca, a, b)
                if best.distance == 0:
                    return best
    return best

