"""Seeded paper-scale corpus and lexicon generator with ground truth.

The generator emits a thesaurus source document (a canonical form and a
messy form of the same knowledge base) and a WordNet-shaped synset lexicon,
and records while it emits everything the benchmark's output checks need:
node counts per class, every sense address of every string, paragraph
contents, head names, lexicon lemmas and diagnostic counts. Nothing here
imports ``rogetkb``: the expected values come from the emission itself.

Default totals are the ones the full-corpus acceptance check expects:
8 classes, 39 sections, 990 heads, 6,432 paragraphs, 59,927 semicolon
groups and 224,814 entries, about 100k distinct strings, and a lexicon of
about 100k synsets whose overlap puts coverage near 0.78/0.61/0.63.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

# Part-of-speech tags in the package's canonical order (its enum order),
# which is the order lookup results are sorted by within a head.
POS_TAGS = ("N", "ADJ", "VB", "ADV", "INT")
POS_RANK = {tag: rank for rank, tag in enumerate(POS_TAGS)}
POS_DISPLAY = {"N": "N.", "ADJ": "Adj.", "VB": "Vb.", "ADV": "Adv.", "INT": "Int."}
# Source order inside a head follows the printed thesaurus, not the enum.
_ROGET_ORDER = ("N", "VB", "ADJ", "ADV", "INT")
_POS_WEIGHTS = (0.45, 0.22, 0.23, 0.08, 0.02)

PAPER_TOTALS = {
    "classes": 8,
    "sections": 39,
    "heads": 990,
    "paragraphs": 6432,
    "groups": 59927,
    "entries": 224814,
    "strings": 100_000,
    "synsets": 100_000,
}

_ONSETS = ("", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cr", "dr", "fl", "gl", "pl", "pr", "sk", "sl",
           "sp", "st", "str", "tr", "th", "sh", "ch", "qu")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "ie", "y")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck", "ng", "x")
_SYLLABLES = tuple(o + n + c for o in _ONSETS for n in _NUCLEI for c in _CODAS)


@dataclass
class Paragraph:
    """One generated paragraph. ``addr`` is (class, section, head, pos rank,
    index within its POS); groups hold rendered entries (text plus refs)."""

    addr: tuple[int, int, int, int, int]
    pos: str
    head_name: str
    groups: list[list[str]]
    texts: list[list[str]]

    @property
    def keyword(self) -> str:
        return self.texts[0][0]


@dataclass
class Corpus:
    seed: int
    canonical: str
    messy: str
    lexicon: str
    paragraphs: list[Paragraph]
    heads: list[tuple[int, int, int, str]]  # class, section, head number, name
    words: list[str]  # every distinct entry string, by descending sense count
    senses: dict[str, list[tuple[int, ...]]]  # sorted (c, s, h, pos rank, para, group, entry)
    lemmas: frozenset[str]
    class_counts: list[dict[str, int]]
    totals: dict[str, int]
    dangling_refs: int
    messy_diagnostics: int
    synset_count: int
    edge_count: int
    para_by_addr: dict[tuple[int, ...], Paragraph] = field(default_factory=dict)

    def lookup_rows(self, word: str) -> list[str]:
        """Expected ``rogetkb lookup`` lines: address, head name, keyword."""
        rows = []
        for c, s, h, rank, p, g, e in self.senses.get(word, ()):
            para = self.para_by_addr[(c, s, h, rank, p)]
            rows.append(f"{c}.{s}.{h}:{POS_TAGS[rank]}:{p}:{g}:{e}\t{para.head_name}\t{para.keyword}")
        return rows

    def distance(self, word_a: str, word_b: str) -> int:
        """Minimum edge distance between any group of ``word_a`` and any
        group of ``word_b``, found as the deepest shared address prefix."""
        a = self.senses[word_a]
        b = self.senses[word_b]
        for depth in range(6, -1, -1):
            if {x[:depth] for x in a} & {y[:depth] for y in b}:
                return 2 * (6 - depth)
        raise AssertionError("every pair shares the root")


def _partition(rng: random.Random, total: int, parts: int, minimum: int, spread: float) -> list[int]:
    """Split ``total`` into ``parts`` integers, each at least ``minimum``,
    with gamma-distributed shares; the sum is exact."""
    weights = [rng.gammavariate(spread, 1.0) for _ in range(parts)]
    scale = (total - minimum * parts) / sum(weights)
    raw = [w * scale for w in weights]
    out = [minimum + int(r) for r in raw]
    short = total - sum(out)
    by_fraction = sorted(range(parts), key=lambda i: raw[i] - int(raw[i]), reverse=True)
    for i in by_fraction[:short]:
        out[i] += 1
    return out


def _sense_counts(n: int, total: int, cap: int) -> list[int]:
    """Zipf-shaped counts (exponent 0.6), 1 at least and saturating below
    ``cap``, that sum to ``total``; descending by rank."""
    ranks = [r ** 0.6 * (cap - 1) for r in range(1, n + 1)]

    def counts(a: float) -> list[int]:
        return [1 + int((cap - 1) * (1 - math.exp(-a / x))) for x in ranks]

    # the uncapped sum is a * n**0.4 / 0.4, so total / n**0.4 brackets a
    lo, hi = 0.0, total / n ** 0.4 + 1.0
    for _ in range(12):  # the remainder loop below absorbs the last few units
        mid = (lo + hi) / 2
        if sum(counts(mid)) > total:
            hi = mid
        else:
            lo = mid
    out = counts(lo)
    short = total - sum(out)
    i = len(out) - 1
    while short > 0:
        out[i] += 1
        short -= 1
        i -= 1
    out.sort(reverse=True)
    return out


def _make_strings(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` distinct new strings from the syllable combinator: mostly single
    words, some multi-word phrases, hyphenated compounds and apostrophes."""

    def word() -> str:
        k = rng.choice((1, 2, 2, 2, 3, 3, 4))
        return "".join(rng.choices(_SYLLABLES, k=k)) or "a"

    out: list[str] = []
    while len(out) < n:
        roll = rng.random()
        if roll < 0.05:
            text = f"{word()} {word()}"
        elif roll < 0.07:
            text = f"{word()} of {word()}"
        elif roll < 0.10:
            text = f"{word()}-{word()}"
        elif roll < 0.11:
            text = f"{word()}'{rng.choice(_SYLLABLES) or 's'}"
        else:
            text = word()
        if text not in taken:
            taken.add(text)
            out.append(text)
    return out


def _mangle(rng: random.Random, text: str) -> str:
    """Surface noise that the parser's normalization cancels."""
    roll = rng.random()
    if roll < 0.06:
        return text.upper()
    if roll < 0.09:
        return text.capitalize()
    if roll < 0.14:
        return text.replace(" ", "  ") if " " in text else f" {text}  "
    return text


def generate(seed: int, scale: float = 1.0) -> Corpus:
    """Build the corpus for ``seed``. ``scale`` shrinks every total (the
    benchmark's own test runs at a small scale); 1.0 is paper scale."""
    rng = random.Random(seed)
    t = {key: max(1, round(value * scale)) for key, value in PAPER_TOTALS.items()}
    n_classes = 8
    n_sections = max(n_classes, t["sections"])
    n_heads = max(n_sections, t["heads"])
    n_paras = max(n_heads, t["paragraphs"])
    n_groups = max(n_paras, t["groups"])
    n_entries = max(n_groups, t["entries"])
    n_strings = min(t["strings"], n_entries)

    # -- vocabulary and sense counts ------------------------------------------
    taken: set[str] = set()
    words = _make_strings(rng, n_strings, taken)
    # short strings are the polysemous ones, as "set" and "run" are
    words.sort(key=lambda w: len(w) + 8 * rng.random())
    cap = max(2, round(900 * scale ** 0.5))
    counts = _sense_counts(n_strings, n_entries, cap)

    # -- tree shape ------------------------------------------------------------
    secs_per_class = _partition(rng, n_sections, n_classes, 1, 4.0)
    heads_per_sec = _partition(rng, n_heads, n_sections, 1, 3.0)
    paras_per_head = _partition(rng, n_paras, n_heads, 1, 2.0)
    groups_per_para = _partition(rng, n_groups, n_paras, 1, 1.2)
    entries_per_group = _partition(rng, n_entries, n_groups, 1, 1.5)

    pool = [rank for rank, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(pool)

    # lexicon membership, decided per string before emission so head names
    # can prefer lexicon words the way real head names do
    member = [rng.random() < 0.62 for _ in range(n_strings)]

    # -- deal entries into the tree -------------------------------------------
    heads_struct = []  # (class, section, head, [(pos, [[rank, ...], ...]), ...])
    cursor = group_cursor = para_cursor = head_cursor = sec_cursor = 0
    head_num = 0
    for class_num in range(1, n_classes + 1):
        for section_num in range(1, secs_per_class[class_num - 1] + 1):
            for _ in range(heads_per_sec[sec_cursor]):
                head_num += 1
                n_p = paras_per_head[head_cursor]
                head_cursor += 1
                tags = sorted(rng.choices(_ROGET_ORDER, weights=_POS_WEIGHTS, k=n_p),
                              key=_ROGET_ORDER.index)
                paras = []
                for pos in tags:
                    groups = []
                    for _ in range(groups_per_para[para_cursor]):
                        size = entries_per_group[group_cursor]
                        group_cursor += 1
                        groups.append(pool[cursor:cursor + size])
                        cursor += size
                    para_cursor += 1
                    paras.append((pos, groups))
                heads_struct.append((class_num, section_num, head_num, paras))
            sec_cursor += 1

    # head names: a string of the head, a lexicon one 80% of the time, which
    # puts head-name coverage near the full corpus's 0.78
    head_names: dict[int, str] = {}
    for _, _, h, paras in heads_struct:
        ranks = [r for _, groups in paras for g in groups for r in g]
        want = rng.random() < 0.80
        chosen = next((r for r in ranks if member[r] == want), ranks[0])
        text = words[chosen]
        head_names[h] = text[0].upper() + text[1:]
    first_keyword = {h: words[paras[0][1][0][0]] for _, _, h, paras in heads_struct}

    # -- emit ------------------------------------------------------------------
    canon: list[str] = []
    messy: list[str] = []
    paragraphs: list[Paragraph] = []
    senses: dict[str, list[tuple[int, ...]]] = {}
    class_counts = [dict(sections=0, heads=0, paragraphs=0, groups=0, entries=0)
                    for _ in range(n_classes)]
    dangling = 0
    messy_diags = 0
    last_class = last_section = 0
    for class_num, section_num, h, paras in heads_struct:
        cc = class_counts[class_num - 1]
        if class_num != last_class:
            canon.append(f"#CLASS {class_num} Class {class_num}")
            messy.append(f"#CLASS {class_num}  Class {class_num}")
            last_class, last_section = class_num, 0
        if section_num != last_section:
            canon.append(f"#SECTION {section_num} Section {class_num}.{section_num}")
            messy.append(f"#SECTION {section_num} Section  {class_num}.{section_num} ")
            last_section = section_num
            cc["sections"] += 1
            if rng.random() < 0.3:
                messy.append("// " + rng.choice(words))
        name = head_names[h]
        canon.append(f"#HEAD {h} {name}")
        messy.append(f"#HEAD  {h} {name}" if rng.random() < 0.2 else f"#HEAD {h} {name}")
        cc["heads"] += 1
        per_pos: dict[str, int] = {}
        for pos, groups in paras:
            idx = per_pos.get(pos, 0)
            per_pos[pos] = idx + 1
            canon.append(f"#PARA {pos}")
            messy.append(f"#PARA {pos.lower() if rng.random() < 0.2 else pos}")
            cc["paragraphs"] += 1
            addr = (class_num, section_num, h, POS_RANK[pos], idx)
            rendered_groups: list[list[str]] = []
            text_groups: list[list[str]] = []
            for g_idx, group in enumerate(groups):
                cc["groups"] += 1
                rendered: list[str] = []
                tokens: list[str] = []
                for e_idx, rank in enumerate(group):
                    text = words[rank]
                    senses.setdefault(text, []).append(addr + (g_idx, e_idx))
                    refs = ""
                    messy_refs = ""
                    if rng.random() < 0.08:
                        if rng.random() < 0.03:
                            target = n_heads + rng.randint(1, 60)
                            kw = words[rng.randrange(n_strings)]
                            dangling += 1
                        else:
                            target = rng.randint(1, n_heads)
                            kw = first_keyword[target]
                        refs = f" @{target} {kw}"
                        sep = ", " if rng.random() < 0.5 else " "
                        messy_refs = f"{sep}@{target} {_mangle(rng, kw)}"
                    rendered.append(text + refs)
                    tokens.append(_mangle(rng, text) + messy_refs)
                cc["entries"] += len(group)
                rendered_groups.append(rendered)
                text_groups.append([words[r] for r in group])
                canon.append(", ".join(rendered) + ";")
                if len(tokens) > 1 and rng.random() < 0.01:
                    tokens.insert(1, "")  # a doubled comma: "empty entry skipped"
                    messy_diags += 1
                if len(tokens) > 1 and rng.random() < 0.15:
                    # a line break separates entries, so the group goes on
                    cut = rng.randint(1, len(tokens) - 1)
                    messy.append(", ".join(tokens[:cut]))
                    messy.append("  " + ", ".join(tokens[cut:]) + ";")
                else:
                    messy.append(", ".join(tokens) + ";")
                if rng.random() < 0.01:
                    messy.append("")
            paragraphs.append(Paragraph(addr, pos, name, rendered_groups, text_groups))

    for addr_list in senses.values():
        addr_list.sort()

    totals = {key: sum(cc[key] for cc in class_counts) for key in class_counts[0]}
    totals["classes"] = n_classes

    lexicon, lemmas, n_synsets, n_edges = _lexicon(
        rng, words, counts, member, paragraphs, taken, t["synsets"]
    )
    corpus = Corpus(
        seed=seed,
        canonical="\n".join(canon) + "\n",
        messy="\n".join(messy) + "\n",
        lexicon=lexicon,
        paragraphs=paragraphs,
        heads=[(c, s, h, head_names[h]) for c, s, h, _ in heads_struct],
        words=words,
        senses=senses,
        lemmas=lemmas,
        class_counts=class_counts,
        totals=totals,
        dangling_refs=dangling,
        messy_diagnostics=messy_diags + dangling,
        synset_count=n_synsets,
        edge_count=n_edges,
    )
    corpus.para_by_addr = {p.addr: p for p in paragraphs}
    return corpus


def _lexicon(
    rng: random.Random,
    words: list[str],
    counts: list[int],
    member: list[bool],
    paragraphs: list[Paragraph],
    taken: set[str],
    n_synsets: int,
) -> tuple[str, frozenset[str], int, int]:
    """A WordNet-shaped interchange document. Synsets are seeded from
    thesaurus groups (so labelling finds real matches), every lexicon string
    gets senses in proportion to its thesaurus polysemy, and the rest are
    filled with lexicon-only strings. Noun and verb synsets hang in a
    hypernym tree with mostly small fan-out plus a few hubs."""
    rank_of = {w: r for r, w in enumerate(words)}
    syn_pos: list[str] = []
    syn_lemmas: list[list[str]] = []
    edges: list[tuple[str, int, int]] = []
    has_hypernym: set[int] = set()

    def new_synset(pos: str, lemmas: list[str]) -> int:
        syn_pos.append(pos)
        syn_lemmas.append(lemmas)
        return len(syn_pos) - 1

    # 1. synsets from thesaurus groups, with keyword-centred relations
    for para in paragraphs:
        if rng.random() > 0.45:
            continue
        keyword_syn = None
        for g_idx, texts in enumerate(para.texts):
            members = [w for w in dict.fromkeys(texts) if member[rank_of[w]]]
            if not members or (g_idx and rng.random() > 0.5):
                continue
            if g_idx == 0:
                if para.keyword not in members:
                    continue
                lemmas = [para.keyword] + [w for w in members if w != para.keyword][:rng.randint(0, 2)]
                keyword_syn = new_synset(para.pos, lemmas)
                continue
            syn = new_synset(para.pos, members[:rng.randint(1, 3)])
            if keyword_syn is None:
                continue
            roll = rng.random()
            if para.pos in ("N", "VB") and roll < 0.45:
                edges.append(("hypernym", syn, keyword_syn))
                has_hypernym.add(syn)
            elif para.pos in ("N", "VB") and roll < 0.55 and keyword_syn not in has_hypernym:
                edges.append(("hypernym", keyword_syn, syn))
                has_hypernym.add(keyword_syn)
            elif para.pos == "ADJ" and roll < 0.4:
                edges.append(("similar", keyword_syn, syn))
            elif roll < 0.6:
                edges.append(("antonym", keyword_syn, syn))
            elif para.pos == "N" and roll < 0.7:
                edges.append(("meronym", keyword_syn, syn))

    # 2. every lexicon string gets senses in proportion to its polysemy
    covered = {w for lemmas in syn_lemmas for w in lemmas}
    pos_choices = ("N", "N", "N", "VB", "ADJ", "ADJ", "ADV")
    for rank, word in enumerate(words):
        if not member[rank]:
            continue
        want = 1 + min(32, counts[rank] // 12)
        have = 1 if word in covered else 0
        for _ in range(want - have):
            new_synset(rng.choice(pos_choices), [word])

    # 3. lexicon-only strings fill the resource to its target size
    fill = max(0, n_synsets - len(syn_pos))
    extra = _make_strings(rng, fill + fill // 3, taken)
    member_words = [w for r, w in enumerate(words) if member[r]]
    for i in range(fill):
        lemmas = [extra[i]]
        if i < fill // 3:
            lemmas.append(extra[fill + i])
        if rng.random() < 0.15 and member_words:
            lemmas.append(rng.choice(member_words))
        new_synset(rng.choices(("N", "VB", "ADJ", "ADV"), weights=(70, 13, 14, 3))[0], lemmas)

    # 4. hypernym tree over nouns and verbs: attach each synset without a
    # hypernym to a random earlier one (small fan-out) or, rarely, to a hub
    total = len(syn_pos)
    order = list(range(total))
    rng.shuffle(order)
    for pos in ("N", "VB"):
        attached: list[int] = []
        hubs: list[int] = []
        hub_cum: list[float] = []
        for syn in order:
            if syn_pos[syn] != pos:
                continue
            if syn in has_hypernym:
                attached.append(syn)
                continue
            if len(attached) < 12:
                attached.append(syn)  # a root
                continue
            if not hubs:
                hubs = attached[:12]
                acc = 0.0
                for i in range(len(hubs)):
                    acc += 1.0 / (i + 1)
                    hub_cum.append(acc)
            if rng.random() < 0.03:
                parent = hubs[bisect.bisect_left(hub_cum, rng.random() * hub_cum[-1])]
            else:
                parent = attached[rng.randrange(len(attached))]
            edges.append(("hypernym", syn, parent))
            attached.append(syn)

    # 5. the other relation types, sparsely
    by_pos: dict[str, list[int]] = {}
    for syn, pos in enumerate(syn_pos):
        by_pos.setdefault(pos, []).append(syn)

    def pairs(rel: str, src_pos: str, dst_pos: str, n: int) -> None:
        srcs, dsts = by_pos.get(src_pos, []), by_pos.get(dst_pos, [])
        if srcs and dsts:
            for _ in range(n):
                edges.append((rel, rng.choice(srcs), rng.choice(dsts)))

    k = total / 100_000
    pairs("antonym", "ADJ", "ADJ", int(2000 * k))
    pairs("similar", "ADJ", "ADJ", int(4000 * k))
    pairs("meronym", "N", "N", int(4000 * k))
    pairs("holonym", "N", "N", int(2000 * k))
    pairs("attribute", "N", "ADJ", int(600 * k))
    pairs("entailment", "VB", "VB", int(400 * k))
    pairs("cause", "VB", "VB", int(200 * k))
    pairs("derivation", "N", "VB", int(3000 * k))
    pairs("pertainym", "ADV", "ADJ", int(1500 * k))
    pairs("also-see", "ADJ", "ADJ", int(800 * k))
    pairs("participle", "ADJ", "VB", int(200 * k))

    # -- render ---------------------------------------------------------------
    letters = {"N": "n", "ADJ": "a", "VB": "v", "ADV": "r", "INT": "i"}
    ids = [f"{letters[pos]}{i:08d}" for i, pos in enumerate(syn_pos)]
    lines = []
    for i, pos in enumerate(syn_pos):
        lemmas = ";".join(syn_lemmas[i])
        if i % 3:
            lines.append(f"SYN {ids[i]} {pos} {lemmas} | a sense of {syn_lemmas[i][0]}")
        else:
            lines.append(f"SYN {ids[i]} {pos} {lemmas}")
    for rel, src, dst in edges:
        if rel == "hypernym" and rng.random() < 0.1:
            lines.append(f"REL hyponym {ids[dst]} {ids[src]}")
        else:
            lines.append(f"REL {rel} {ids[src]} {ids[dst]}")
    lemmas = frozenset(w for ls in syn_lemmas for w in ls)
    return "\n".join(lines) + "\n", lemmas, total, len(edges)
