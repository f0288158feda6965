"""Randomized source-document generator with ground truth by construction.

The generator emits source text while counting what it emits, so the
expected node counts, string occurrences, and keywords come from the
emission itself, not from the parser under test. Messy-but-legal surface
forms (uppercase, doubled spaces, groups split across lines, refs after a
comma) are injected to exercise normalization and grammar corners.

``fixture_text`` reads the sample files shipped in ``rogetkb/data`` through
the installed package, so the tests also show that the data ships with it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from rogetkb.model import PartOfSpeech
from rogetkb.text import normalize

WORDS = [
    "decrement", "deduction", "allowance", "remission", "tare", "drawback",
    "clawback", "rebate", "refund", "shortage", "slippage", "defect", "loss",
    "sacrifice", "forfeit", "leak", "leakage", "escape", "shrinkage",
    "spoilage", "wastage", "consumption", "subtrahend", "rake-off", "toll",
    "existence", "being", "entity", "presence", "space", "expanse", "void",
    "emptiness", "region", "area", "zone", "territory", "terrain", "relation",
    "bearing", "reference", "connection", "link", "increase", "increment",
    "growth", "quantity", "amount", "number", "figure", "drop", "fall",
    "o'clock", "natural process", "human process", "economic process",
    "point of view", "state of affairs", "matter of fact", "glide",
]

_POS_CHOICES = list(PartOfSpeech)


def fixture_text(name: str) -> str:
    """The text of ``rogetkb/data/<name>``."""
    return resources.files("rogetkb").joinpath("data", name).read_text(encoding="utf-8")


@dataclass
class GeneratedCorpus:
    text: str
    classes: int = 0
    sections: int = 0
    heads: int = 0
    paragraphs: int = 0
    groups: int = 0
    entries: int = 0
    cross_refs: int = 0
    pos_entries: Counter = field(default_factory=Counter)
    occurrences: Counter = field(default_factory=Counter)
    keywords: list = field(default_factory=list)
    head_numbers: list = field(default_factory=list)


def generate(
    seed: int,
    *,
    n_classes: int = 3,
    sections_per_class: tuple[int, int] = (1, 3),
    heads_per_section: tuple[int, int] = (1, 4),
    paras_per_head: tuple[int, int] = (1, 3),
    groups_per_para: tuple[int, int] = (1, 5),
    entries_per_group: tuple[int, int] = (1, 6),
    xref_prob: float = 0.15,
    messy: bool = True,
) -> GeneratedCorpus:
    assert 1 <= n_classes <= 8
    rng = random.Random(seed)
    out = GeneratedCorpus(text="")
    lines: list[str] = []
    head_num = 0

    def mangle(word: str) -> str:
        """Surface noise that normalization must cancel."""
        if not messy:
            return word
        roll = rng.random()
        if roll < 0.08:
            return word.upper()
        if roll < 0.16:
            return word.replace(" ", "  ") if " " in word else f" {word} "
        return word

    for class_num in range(1, n_classes + 1):
        lines.append(f"#CLASS {class_num} Class {class_num}")
        out.classes += 1
        for section_num in range(1, rng.randint(*sections_per_class) + 1):
            lines.append(f"#SECTION {section_num} Section {class_num}.{section_num}")
            out.sections += 1
            for _ in range(rng.randint(*heads_per_section)):
                head_num += rng.randint(1, 3)
                lines.append(f"#HEAD {head_num} Head {head_num}")
                out.heads += 1
                out.head_numbers.append(head_num)
                for _ in range(rng.randint(*paras_per_head)):
                    pos = rng.choice(_POS_CHOICES)
                    lines.append(f"#PARA {pos.value}")
                    out.paragraphs += 1
                    first_entry_of_para = True
                    for _ in range(rng.randint(*groups_per_para)):
                        out.groups += 1
                        tokens: list[str] = []
                        for _ in range(rng.randint(*entries_per_group)):
                            word = rng.choice(WORDS)
                            out.entries += 1
                            out.pos_entries[pos] += 1
                            out.occurrences[normalize(word)] += 1
                            if first_entry_of_para:
                                out.keywords.append(normalize(word))
                                first_entry_of_para = False
                            token = mangle(word)
                            if rng.random() < xref_prob:
                                ref_head = rng.randint(1, 999)
                                ref_word = rng.choice(WORDS)
                                out.cross_refs += 1
                                if rng.random() < 0.5:
                                    token = f"{token} @{ref_head} {ref_word}"
                                else:
                                    # the ref rides a separate comma token and
                                    # attaches to this entry
                                    token = f"{token}, @{ref_head} {ref_word}"
                            tokens.append(token)
                        group_text = ", ".join(tokens) + ";"
                        if messy and len(tokens) > 1 and rng.random() < 0.15:
                            # split the group across two physical lines at a
                            # token boundary
                            cut = rng.randint(1, len(tokens) - 1)
                            lines.append(", ".join(tokens[:cut]) + ",")
                            lines.append(", ".join(tokens[cut:]) + ";")
                        else:
                            lines.append(group_text)
    out.text = "\n".join(lines) + "\n"
    return out
