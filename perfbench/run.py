#!/usr/bin/env python3
"""Paper-scale benchmark for rogetkb.

Run from the root of a checkout; the package is taken from ``src/``
(``PYTHONPATH=src``), so every commit is measured on its own code:

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one report

Workloads (all at the full-corpus totals, generated from ``--seed``):

* ``cold_cli``: sequential ``python -m rogetkb.cli`` calls (lookup, sim,
  label, stats pos|class|head) against a bundle with an embedded lexicon;
  each call pays the whole cold load.
* ``warm_api``: one client process loads the bundle once, then runs a
  closed loop of lookup, word_distance and label_paragraph calls.
* ``build_export``: ``rogetkb build`` on a messy source, then ``export
  structured`` and ``export canonical`` of the result.

Every operation's output is checked against the generator's ground truth.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics and the tracing overhead). Lines before it report
the workload's shape and the per-command metrics (``cli_s.p50``,
``lookup_s.p50``, ``build_s`` ...) with units and sample counts.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Probe, factor  # noqa: E402
from corpus import POS_DISPLAY, POS_TAGS, Corpus, generate  # noqa: E402
from tracer import self_times  # noqa: E402

WORKLOADS = ("cold_cli", "warm_api", "build_export")
STATS_MODES = ("pos", "class", "head")
COLD_CYCLE = ("lookup", "sim", "label", "stats", "lookup", "sim", "lookup", "label", "stats", "sim")
WARM_CYCLE = ("lookup", "sim", "lookup", "label", "sim", "lookup", "sim", "lookup", "label", "sim")
EXPORT_CYCLE = ("build", "export_structured", "export_canonical")
COLD_SETUPS = 3
WARM_SETUPS = 2
CLI_START_SETUPS = 5
LABEL_NAMES = {"Synonym", "Antonym", "Hypernym", "Hyponym", "Meronym", "Holonym", "Coordinate",
               "Entailment", "Cause", "Similar", "Attribute", "Derivation", "Pertainym",
               "Also-see", "Participle", "No label"}

# per-layer metric -> (span or counter name, what to read); "self" is span
# time minus traced children, "total" the whole span, "calls" the count
LAYER_METRICS = {
    "bundle.load_s": ("bundle.load", "total", "s/op"),
    "bundle.load_self_s": ("bundle.load", "self", "s/op"),
    "parser.parse_s": (("parser.parse", "parser.build_parse"), "self", "s/op"),
    "parser.build_parse_s": ("parser.build_parse", "self", "s/op"),
    "parser.diagnostics_discarded": ("parser.diagnostics_discarded", "counter", "count/op"),
    "parser.diagnostics": ("parser.diagnostics", "counter", "count/op"),
    "parser.serialize_s": ("parser.serialize", "self", "s/op"),
    "model.canonical_source_s": ("model.canonical_source", "self", "s/op"),
    "model.count_nodes_s": ("model.count_nodes", "self", "s/op"),
    "model.resolve_calls": ("model.resolve", "calls", "count/op"),
    "model.resolve_s": ("model.resolve", "self", "s/op"),
    "model.head_address_s": ("model.head_address", "self", "s/op"),
    "lexnet.load_resource_s": ("lexnet.load_resource", "self", "s/op"),
    "lexnet.mini_net_s": ("lexnet.mini_net", "self", "s/op"),
    "lexnet.all_lemmas_calls": ("lexnet.all_lemmas", "calls", "count/op"),
    "index.build_s": ("index.build", "self", "s/op"),
    "index.lookup_s": ("index.lookup", "self", "s/op"),
    "bundle.write_s": ("bundle.write", "self", "s/op"),
    "bundle.structured_document_s": ("bundle.structured_document", "self", "s/op"),
    "aligner.class_coverage_s": ("aligner.class_coverage", "self", "s/op"),
    "aligner.pos_distribution_s": ("aligner.pos_distribution", "self", "s/op"),
    "aligner.common_strings_s": ("aligner.common_strings", "self", "s/op"),
    "aligner.head_coverage_s": ("aligner.head_coverage", "self", "s/op"),
    "aligner.label_s": ("aligner.label", "self", "s/op"),
    "metrics.word_distance_s": ("metrics.word_distance", "self", "s/op"),
    "metrics.sense_pairs": ("metrics.sense_pairs", "counter", "count/op"),
}


def normalize(text: str) -> str:
    return " ".join(text.split()).lower()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); with ten samples or fewer there is no
    such percentile and the maximum is reported as p100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -- the program under test ----------------------------------------------------


@dataclass
class Call:
    code: int
    wall: float
    rss_mb: float
    out: str
    err: str
    scale: float  # calibration factor from the probes just before and after


class Program:
    """Runs ``rogetkb`` from the checkout's ``src/`` as fresh subprocesses,
    one at a time, inside the run's work directory, through spawner.py.
    Create it before the run's large data, so that the spawner stays small.
    The machine-speed probe (see calibrate.py) runs twice after each call;
    a call's scale comes from the two probes before it and the two after."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.probe = Probe()
        self.probe.sample(2)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)

    def run(self, argv: list[str]) -> Call:
        out_path, err_path = self.work / "call.out", self.work / "call.err"
        request = {"argv": argv, "cwd": str(self.work), "env": self.env,
                   "out": str(out_path), "err": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.probe.sample(2)
        return Call(reply["code"], reply["wall"], reply["rss_kb"] / 1024,
                    out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
                    factor(self.probe.samples[-4:]))

    def cli(self, args: list[str], spans: Optional[Path] = None, op_id: str = "") -> Call:
        if spans is None:
            return self.run([sys.executable, "-m", "rogetkb.cli", *args])
        return self.run([sys.executable, str(HERE / "cli_launch.py"), str(spans), op_id, *args])


# -- ground-truth checks -------------------------------------------------------


def guarded(check, *args) -> Optional[str]:
    """Run a check; output too malformed to check is a failure too."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{check.__name__}: unreadable output ({exc!r})"


class Checker:
    """Expected outputs derived from the generator's record of what it
    emitted; each ``check_*`` returns None or a description of the failure."""

    def __init__(self, corpus: Corpus) -> None:
        self.c = corpus
        self.common = set(corpus.senses) & corpus.lemmas
        self._stats: dict[str, str] = {}

    # lookup / sim / label

    def check_lookup(self, word: str, call: Call) -> Optional[str]:
        expected = "".join(row + "\n" for row in self.c.lookup_rows(normalize(word)))
        if call.code != 0 or call.out != expected:
            return f"lookup {word!r}: exit {call.code}, {len(call.out)} bytes, expected {len(expected)}"
        return None

    def expected_distance(self, a: str, b: str) -> Optional[int]:
        a, b = normalize(a), normalize(b)
        if a not in self.c.senses or b not in self.c.senses:
            return None
        return self.c.distance(a, b)

    def _address_strings(self, word: str) -> set[str]:
        return {f"{c}.{s}.{h}:{POS_TAGS[r]}:{p}:{g}:{e}" for c, s, h, r, p, g, e in self.c.senses[word]}

    def check_sim_fields(self, a: str, b: str, distance: int, lca: int, wa: str, wb: str) -> Optional[str]:
        want = self.expected_distance(a, b)
        if distance != want or lca != 6 - distance // 2:
            return f"sim {a!r} {b!r}: distance {distance} lca {lca}, expected distance {want}"
        if wa not in self._address_strings(normalize(a)) or wb not in self._address_strings(normalize(b)):
            return f"sim {a!r} {b!r}: witnesses {wa} {wb} are not senses of the words"
        pa, pb = wa.replace(":", ".").split("."), wb.replace(":", ".").split(".")
        shared = next((i for i, (x, y) in enumerate(zip(pa, pb)) if x != y), 6)
        if 2 * (6 - min(shared, 6)) != distance:
            return f"sim {a!r} {b!r}: witnesses {wa} {wb} are not {distance} apart"
        return None

    def check_sim(self, a: str, b: str, call: Call) -> Optional[str]:
        if self.expected_distance(a, b) is None:
            ok = call.code == 3 and call.out == ""
            return None if ok else f"sim miss {a!r} {b!r}: exit {call.code}, expected 3"
        if call.code != 0:
            return f"sim {a!r} {b!r}: exit {call.code}"
        fields = dict(part.split("=", 1) for part in call.out.split())
        distance = int(fields["distance"])
        if fields["similarity"] != f"{1 - distance / 12:.4f}":
            return f"sim {a!r} {b!r}: similarity {fields['similarity']} for distance {distance}"
        return self.check_sim_fields(a, b, distance, int(fields["lca"]), fields["a"], fields["b"])

    def check_label_lines(self, spec: list, lines: list[str]) -> Optional[str]:
        para = self.c.para_by_addr[self.para_key(spec)]
        if not lines or lines[0] != f"{POS_DISPLAY[para.pos]} {para.keyword}":
            return f"label {spec}: header {lines[:1]}"
        expected = Counter(entry for group in para.groups for entry in group)
        expected[para.groups[0][0]] -= 1
        seen: Counter = Counter()
        for line in lines[1:]:
            name, _, body = line.partition(": ")
            if name not in LABEL_NAMES:
                return f"label {spec}: unknown label line {line[:60]!r}"
            for group in body.split("; "):
                seen.update(group.split(", "))
        if +expected != seen:
            return f"label {spec}: rendered entries differ from the paragraph's"
        return None

    def para_key(self, spec: list) -> tuple:
        _, head_num, pos_tag, para_idx = spec
        c, s, h, _ = self.c.heads[head_num - 1]
        return (c, s, h, POS_TAGS.index(pos_tag), para_idx)

    def check_label(self, spec: list, call: Call) -> Optional[str]:
        if call.code != 0:
            return f"label {spec}: exit {call.code}"
        return self.check_label_lines(spec, call.out.splitlines())

    # stats

    def stats_table(self, mode: str) -> str:
        if mode not in self._stats:
            self._stats[mode] = "".join(line + "\n" for line in getattr(self, f"_stats_{mode}")())
        return self._stats[mode]

    def _pos_counts(self) -> tuple[Counter, int]:
        counts: Counter = Counter()
        for para in self.c.paragraphs:
            counts[para.pos] += sum(len(g) for g in para.texts)
        return counts, sum(counts.values())

    def _stats_pos(self) -> list[str]:
        counts, total = self._pos_counts()
        return ["pos\tfraction"] + [f"{tag}\t{counts[tag] / total:.4f}" for tag in POS_TAGS]

    def _class_rows(self) -> list[list[int]]:
        rows = {}
        for c, _, _, name in self.c.heads:
            row = rows.setdefault(c, [c, self.c.class_counts[c - 1]["sections"], 0, 0, 0, 0, 0, 0, 0])
            row[2] += 1
            row[6] += normalize(name) in self.common
        for para in self.c.paragraphs:
            row = rows[para.addr[0]]
            row[3] += 1
            row[4] += len(para.texts)
            row[5] += sum(len(g) for g in para.texts)
            row[7] += para.keyword in self.common
            row[8] += sum(w in self.common for g in para.texts for w in g)
        return [rows[c] for c in sorted(rows)]

    def _stats_class(self) -> list[str]:
        out = ["classNum\tsections\theads\tparagraphs\tsemicolonGroups\tstrings\t"
               "pctCommonHeads\tpctCommonKeywords\tpctCommonStrings"]
        rows = self._class_rows()
        total = ["total"] + [sum(r[i] for r in rows) for i in range(1, 9)]
        for r in rows + [total]:
            out.append(f"{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}\t{r[5]}\t"
                       f"{r[6] / r[2]:.2f}\t{r[7] / r[3]:.2f}\t{r[8] / r[5]:.2f}")
        return out

    def _stats_head(self) -> list[str]:
        per_head: dict[int, list[int]] = {}
        for para in self.c.paragraphs:
            row = per_head.setdefault(para.addr[2], [0, 0, 0, 0, 0])
            row[0] += 1
            row[1] += len(para.texts)
            row[2] += sum(len(g) for g in para.texts)
            row[3] += sum(w in self.common for g in para.texts for w in g)
            row[4] += para.keyword in self.common
        rows = []
        for _, _, h, name in self.c.heads:
            paras, groups, strings, str_in, kw_in = per_head[h]
            rows.append((h, name, normalize(name) in self.c.lemmas, paras, groups, strings,
                         str_in / strings, kw_in / paras))
        rows.sort(key=lambda r: (-r[6], r[0]))
        out = ["headNum\theadName\theadNameInLex\tparagraphs\tsemicolonGroups\t"
               "strings\tpctCommonStrings\tpctCommonKeywords"]
        for h, name, in_lex, paras, groups, strings, ps, pk in rows:
            out.append(f"{h}\t{name}\t{'yes' if in_lex else 'no'}\t{paras}\t{groups}\t"
                       f"{strings}\t{ps:.2f}\t{pk:.2f}")
        return out

    def check_stats(self, mode: str, call: Call) -> Optional[str]:
        if call.code != 0 or call.out != self.stats_table(mode):
            return f"stats {mode}: exit {call.code}, output differs from the generated counts"
        return None

    # build and export

    def check_build(self, call: Call, bundle: Path, messy: bool) -> Optional[str]:
        """``messy`` selects the diagnostic count of the messy source."""
        t = self.c.totals
        want_out = f"wrote {bundle.name}: {t['classes']} classes, {t['heads']} heads, {t['entries']} entries\n"
        diagnostics = self.c.messy_diagnostics if messy else self.c.dangling_refs
        if call.code != 0 or call.out != want_out:
            return f"build: exit {call.code}, output {call.out[:80]!r}"
        if len(call.err.splitlines()) != diagnostics:
            return f"build: {len(call.err.splitlines())} diagnostics, expected {diagnostics}"
        document = json.loads(bundle.read_text(encoding="utf-8"))
        meta = document["meta"]
        checksum = sha256(self.c.canonical)
        if sha256(document["source"]) != checksum or meta["sourceChecksum"] != checksum:
            return "build: bundle source is not the generated canonical text"
        if meta["lexChecksum"] != sha256(self.c.lexicon) or document["lexicon"] != self.c.lexicon:
            return "build: bundle lexicon differs from the generated one"
        if meta["diagnostics"] != {"errors": 0, "warnings": diagnostics}:
            return f"build: recorded diagnostics {meta['diagnostics']}"
        return None

    def check_export_canonical(self, call: Call, path: Path) -> Optional[str]:
        if call.code != 0 or not path.exists():
            return f"export canonical: exit {call.code}"
        if path.read_text(encoding="utf-8") != self.c.canonical:
            return "export canonical: text differs from the bundle's canonical source"
        return None

    def check_export_structured(self, call: Call, path: Path) -> Optional[str]:
        if call.code != 0 or not path.exists():
            return f"export structured: exit {call.code}"
        doc = json.loads(path.read_text(encoding="utf-8"))
        t = self.c.totals
        counts = {"classes": t["classes"], "sections": t["sections"], "heads": t["heads"],
                  "paragraphs": t["paragraphs"], "semicolonGroups": t["groups"], "entries": t["entries"]}
        if doc["counts"] != counts or doc["sourceChecksum"] != sha256(self.c.canonical):
            return f"export structured: counts {doc['counts']}"
        if doc["index"] != {"uniqueStrings": len(self.c.senses), "totalOccurrences": t["entries"]}:
            return f"export structured: index {doc['index']}"
        pos_counts, total = self._pos_counts()
        if doc["posDistribution"] != {tag: pos_counts[tag] / total for tag in POS_TAGS}:
            return "export structured: POS distribution differs"
        walked = Counter()
        for cls in doc["taxonomy"]:
            for sec in cls["sections"]:
                walked["sections"] += 1
                for head in sec["heads"]:
                    walked["heads"] += 1
                    for para in head["paragraphs"]:
                        walked["paragraphs"] += 1
                        walked["semicolonGroups"] += len(para["semicolonGroups"])
                        walked["entries"] += sum(len(g["entries"]) for g in para["semicolonGroups"])
        walked["classes"] = len(doc["taxonomy"])
        if dict(walked) != counts:
            return f"export structured: taxonomy holds {dict(walked)}"
        rows = self._class_rows()
        cov_total = doc["coverage"]["total"]
        if (cov_total["strings"] != t["entries"] or cov_total["pctCommonStrings"]
                != sum(r[8] for r in rows) / t["entries"]
                or doc["coverage"]["commonStrings"] != len(self.common)):
            return "export structured: coverage totals differ"
        return None


# -- workload inputs -----------------------------------------------------------


class Inputs:
    """Seeded query streams: Zipf-weighted words (a few misses), sim pairs
    spanning every distance, Zipf-weighted paragraphs."""

    def __init__(self, corpus: Corpus, seed: int, workload: str) -> None:
        self.c = corpus
        self.rng = random.Random(f"{seed}:{workload}")
        self.words = self._words(2000)
        self.word_cursor = 0
        order = list(range(len(corpus.paragraphs)))
        self.rng.shuffle(order)
        self.para_order = order
        self.para_cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(order))))
        self.pairs = self._pairs()
        self.pair_cursor = 0

    def _words(self, n: int) -> list[str]:
        """``n`` query words at the quantiles of a Zipf law over sense-count
        rank, so every seed queries the same sense-count profile. The seed
        picks which word of equal sense count stands at each quantile, the
        order, the 5% misses and the 10% written in capitals."""
        rng, words, senses = self.rng, self.c.words, self.c.senses
        cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(words))))
        first_of = {}  # sense count -> (first rank, last rank + 1); ranks are sorted by count
        for rank, word in enumerate(words):
            lo, _ = first_of.get(len(senses[word]), (rank, rank))
            first_of[len(senses[word])] = (lo, rank + 1)
        out = []
        for k in range(n):
            rank = min(bisect.bisect_left(cum, (k + 0.5) / n * cum[-1]), len(words) - 1)
            out.append(words[rng.randrange(*first_of[len(senses[words[rank]])])])
        rng.shuffle(out)
        for i in range(0, n, 20):
            out[i] = "zq" + "".join(rng.choices("aeiou", k=3))  # never generated: a miss
        for i in range(1, n, 10):
            out[i] = out[i].upper()
        rng.shuffle(out)
        return out

    def word(self) -> str:
        word = self.words[self.word_cursor % len(self.words)]
        self.word_cursor += 1
        return word

    def paragraph(self) -> list:
        idx = self.rng.choices(self.para_order, cum_weights=self.para_cum)[0]
        return self.label_spec(self.c.paragraphs[idx])

    @staticmethod
    def label_spec(para) -> list:
        _, _, h, rank, idx = para.addr
        return ["label", h, POS_TAGS[rank], idx]

    def pair(self) -> tuple[str, str]:
        pair = self.pairs[self.pair_cursor % len(self.pairs)]
        self.pair_cursor += 1
        return pair

    def _pairs(self) -> list[tuple[str, str]]:
        rng, words, senses = self.rng, self.c.words, self.c.senses
        hot = words[:max(2, len(words) // 500)]
        rare = [w for w in words if len(senses[w]) == 1]
        pairs = [tuple(rng.sample(hot, 2)) for _ in range(12)]
        pairs += [(rng.choice(hot), rng.choice(rare)) for _ in range(12)]
        pairs += [tuple(rng.sample(rare, 2)) for _ in range(8)]
        # one rare-rare pair at each distance 0..12, by shared address depth
        buckets = [dict() for _ in range(7)]
        for w in rare:
            addr = senses[w][0]
            for depth in range(7):
                buckets[depth].setdefault(addr[:depth], []).append(w)
        for depth in range(6, -1, -1):
            for _ in range(200):
                a = rng.choice(rare)
                pa = senses[a][0]
                partners = [w for w in buckets[depth][pa[:depth]]
                            if w != a and senses[w][0][:depth + 1] != pa[:depth + 1]]
                if partners:
                    pairs.append((a, rng.choice(partners)))
                    break
        pairs += [(rng.choice(hot), "zqoo"), ("zqee", rng.choice(rare))]
        rng.shuffle(pairs)
        return pairs


# -- running -------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    spec: list
    wall: float
    scale: float
    traced: bool = False
    error: Optional[str] = None
    rss_mb: float = 0.0
    out_bytes: int = 0
    cli: bool = False
    layers: dict = field(default_factory=dict)


@dataclass
class Outcome:
    setups: list[tuple[float, float]]  # (raw seconds, calibration scale)
    ops: list[Op]
    bundle_mb: float
    peak_rss_mb: float
    probes: list[float] = field(default_factory=list)
    setup_error: Optional[str] = None
    extra: dict = field(default_factory=dict)


def traced_pairs(trace: bool, index: int) -> list[bool]:
    """Untraced only, or both in an order that alternates per operation."""
    if not trace:
        return [False]
    return [False, True] if index % 2 == 0 else [True, False]


def run_cli_ops(work: Path, cycle: tuple, make, seconds: float, trace: bool, execute) -> list[Op]:
    """Closed loop of CLI operations, kinds following ``cycle``, until
    ``seconds`` pass and every kind has run once. ``make(kind)`` draws a
    spec; ``execute(spec, spans, op_id)`` runs it and returns (Call, error)."""
    ops: list[Op] = []
    seen: set[str] = set()
    start = time.perf_counter()
    for index, kind in enumerate(itertools.cycle(cycle)):
        if time.perf_counter() - start >= seconds and seen == set(cycle):
            break
        spec = make(kind)
        for traced in traced_pairs(trace, index):
            spans = work / "spans.json" if traced else None
            op_id = str(len(ops))
            if spans is not None and spans.exists():
                spans.unlink()
            call, error = execute(spec, spans, op_id)
            op = Op(spec[0], spec, call.wall, call.scale, traced, error, call.rss_mb,
                    len(call.out.encode("utf-8")), cli=True)
            if traced and spans.exists():
                per_op = self_times(json.loads(spans.read_text(encoding="utf-8")))
                op.layers = per_op.get(op_id, {"layers": {}, "counters": {}, "top_s": 0.0})
            ops.append(op)
        seen.add(kind)
    return ops


def build_bundle(corpus: Corpus, prog: Program, checker: Checker, times: int) -> tuple[Path, list, Optional[str]]:
    """Write the canonical source and the lexicon, then ``rogetkb build``
    them ``times`` times; returns the bundle, the build times and any error."""
    (prog.work / "src.roget").write_text(corpus.canonical, encoding="utf-8")
    (prog.work / "lex.lex").write_text(corpus.lexicon, encoding="utf-8")
    bundle = prog.work / "kb.json"
    walls, error = [], None
    for _ in range(times):
        call = prog.cli(["build", "src.roget", "--lex", "lex.lex", "--out", bundle.name])
        walls.append((call.wall, call.scale))
        error = error or guarded(checker.check_build, call, bundle, False)
    return bundle, walls, error


def cold_cli(corpus: Corpus, prog: Program, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    checker = Checker(corpus)
    bundle, setups, error = build_bundle(corpus, prog, checker, 1 if trace else COLD_SETUPS)
    if error:
        return Outcome(setups, [], 0.0, 0.0, setup_error=error)

    inputs = Inputs(corpus, seed, "cold_cli")
    modes = itertools.cycle(STATS_MODES[seed % 3:] + STATS_MODES[:seed % 3])

    def make(kind: str) -> list:
        if kind == "lookup":
            return ["lookup", inputs.word()]
        if kind == "sim":
            return ["sim", *inputs.pair()]
        if kind == "label":
            return inputs.paragraph()
        return ["stats", next(modes)]

    def execute(spec, spans, op_id):
        kb = ["--kb", bundle.name]
        if spec[0] == "lookup":
            call = prog.cli(["lookup", spec[1], *kb], spans, op_id)
            return call, guarded(checker.check_lookup, spec[1], call)
        if spec[0] == "sim":
            call = prog.cli(["sim", spec[1], spec[2], *kb], spans, op_id)
            return call, guarded(checker.check_sim, spec[1], spec[2], call)
        if spec[0] == "label":
            call = prog.cli(["label", str(spec[1]), spec[2], str(spec[3]), *kb], spans, op_id)
            return call, guarded(checker.check_label, spec, call)
        call = prog.cli(["stats", spec[1], *kb], spans, op_id)
        return call, guarded(checker.check_stats, spec[1], call)

    ops = run_cli_ops(work, COLD_CYCLE, make, seconds, trace, execute)
    return Outcome(setups, ops, bundle.stat().st_size / 1e6, max(op.rss_mb for op in ops), prog.probe.samples)


def warm_api(corpus: Corpus, prog: Program, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    checker = Checker(corpus)
    n_setups = 1 if trace else WARM_SETUPS
    bundle, builds, error = build_bundle(corpus, prog, checker, n_setups)
    if error:
        return Outcome(builds, [], 0.0, 0.0, setup_error=error)

    inputs = Inputs(corpus, seed, "warm_api")
    specs = []
    for kind in itertools.islice(itertools.cycle(WARM_CYCLE), 4000):
        if kind == "lookup":
            specs.append(["lookup", inputs.word()])
        elif kind == "sim":
            specs.append(["sim", *inputs.pair()])
        else:
            specs.append(inputs.paragraph())
    # the warm-up fills the lexicon's lazy tables; its keyword is a lemma of
    # the fewest senses, so its own cost varies little from seed to seed
    warmup_para = min((p for p in corpus.paragraphs if p.keyword in corpus.lemmas),
                      key=lambda p: len(corpus.senses[p.keyword]))
    warmup = Inputs.label_spec(warmup_para)
    config = {"bundle": bundle.name, "ops": specs, "seconds": seconds, "loads": n_setups,
              "warmup": warmup, "trace": int(trace), "out": "warm.out.json", "spans": "warm.spans.json"}
    (work / "warm.json").write_text(json.dumps(config), encoding="utf-8")
    # The client is started here, not by the spawner, because it talks to
    # the runner: at each of its pauses the runner probes the machine while
    # the client is idle. A segment's scale comes from the two probes before
    # it and the two after. The client reports its own peak RSS.
    scales = []
    with open(work / "warm.err", "wb") as err:
        client = subprocess.Popen([sys.executable, str(HERE / "warm_client.py"), "warm.json"],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                  cwd=work, env=prog.env, text=True)
        try:
            for _ in client.stdout:
                prog.probe.sample(2)
                scales.append(factor(prog.probe.samples[-4:]))
                client.stdin.write("go\n")
                client.stdin.flush()
        finally:
            client.stdin.close()  # a client left waiting reads EOF and goes on
            code = client.wait()
    if code != 0:
        error = (work / "warm.err").read_text(encoding="utf-8")[-400:]
        return Outcome(builds, [], 0.0, 0.0, setup_error=f"warm client exit {code}: {error}")
    result = json.loads((work / "warm.out.json").read_text(encoding="utf-8"))
    setups = []
    for (build, build_scale), (load, warm), load_scale in zip(builds, result["loads"], scales):
        raw = build + load + warm
        setups.append((raw, (build * build_scale + (load + warm) * load_scale) / raw))

    per_op = {}
    if trace:
        per_op = self_times(json.loads((work / "warm.spans.json").read_text(encoding="utf-8")))
    first_error: dict[int, Optional[str]] = {}
    digests: dict[int, str] = {}
    ops = []
    for n, (spec_idx, wall, traced, digest, segment) in enumerate(result["records"]):
        spec = specs[spec_idx]
        if spec_idx not in first_error:
            first_error[spec_idx] = guarded(check_warm, checker, spec, result["outputs"][str(spec_idx)])
            digests[spec_idx] = digest
        error = first_error[spec_idx]
        if error is None and digest != digests[spec_idx]:
            error = f"{spec}: output changed between repeats"
        op = Op(spec[0], spec, wall, scales[segment], traced, error)
        if traced:
            op.layers = per_op.get(n, {"layers": {}, "counters": {}, "top_s": 0.0})
        ops.append(op)
    return Outcome(setups, ops, bundle.stat().st_size / 1e6, result["peak_rss_kb"] / 1024, prog.probe.samples,
                   extra={"build_s": [b for b, _ in builds], "load_s": [l for l, _ in result["loads"]],
                          "warmup_s": [w for _, w in result["loads"]]})


def check_warm(checker: Checker, spec: list, output) -> Optional[str]:
    if spec[0] == "lookup":
        want = checker.c.lookup_rows(normalize(spec[1]))
        return None if output == want else f"lookup {spec[1]!r}: {len(output)} rows, expected {len(want)}"
    if spec[0] == "sim":
        if output is None:
            ok = checker.expected_distance(spec[1], spec[2]) is None
            return None if ok else f"sim {spec[1:]}: no result"
        return checker.check_sim_fields(spec[1], spec[2], *output)
    return checker.check_label_lines(spec, output)


def build_export(corpus: Corpus, prog: Program, work: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    checker = Checker(corpus)
    (work / "messy.roget").write_text(corpus.messy, encoding="utf-8")
    (work / "lex.lex").write_text(corpus.lexicon, encoding="utf-8")
    bundle, structured, canonical = work / "kb.json", work / "structured.json", work / "canonical.roget"
    # no set-up beyond starting the CLI: every operation is a cold call
    setups = []
    for _ in range(1 if trace else CLI_START_SETUPS):
        call = prog.cli(["--help"])
        setups.append((call.wall, call.scale))
        if call.code != 0:
            return Outcome(setups, [], 0.0, 0.0, setup_error=f"rogetkb --help: exit {call.code}")

    def execute(spec, spans, op_id):
        if spec[0] == "build":
            bundle.unlink(missing_ok=True)
            call = prog.cli(["build", "messy.roget", "--lex", "lex.lex", "--out", bundle.name], spans, op_id)
            return call, guarded(checker.check_build, call, bundle, True)
        if not bundle.exists():
            return Call(0, 0.0, 0.0, "", "", 1.0), f"{spec[0]}: no bundle to export"
        if spec[0] == "export_structured":
            structured.unlink(missing_ok=True)
            call = prog.cli(["export", "structured", "--kb", bundle.name, "--out", structured.name], spans, op_id)
            return call, guarded(checker.check_export_structured, call, structured)
        canonical.unlink(missing_ok=True)
        call = prog.cli(["export", "canonical", "--kb", bundle.name, "--out", canonical.name], spans, op_id)
        return call, guarded(checker.check_export_canonical, call, canonical)

    ops = run_cli_ops(work, EXPORT_CYCLE, lambda kind: [kind], seconds, trace, execute)
    size = bundle.stat().st_size / 1e6 if bundle.exists() else 0.0
    return Outcome(setups, ops, size, max(op.rss_mb for op in ops), prog.probe.samples)


RUNNERS = {"cold_cli": cold_cli, "warm_api": warm_api, "build_export": build_export}


# -- reporting -----------------------------------------------------------------


def kind_samples(ops: list[Op]) -> dict[str, list[tuple[float, float]]]:
    """Untraced operation times by kind, as (raw, reference) seconds."""
    samples: dict[str, list[tuple[float, float]]] = {}
    for op in ops:
        if not op.traced:
            samples.setdefault(op.kind, []).append((op.wall, op.wall * op.scale))
    return samples


def median_of(pairs: list[tuple[float, float]], which: int) -> float:
    return statistics.median(pair[which] for pair in pairs)


def end_to_end(outcome: Outcome) -> dict:
    """The gated metrics; times are in reference seconds (see calibrate.py)."""
    setups = [(raw, raw * scale) for raw, scale in outcome.setups]
    samples = kind_samples(outcome.ops)
    return {
        "setup_s": (median_of(setups, 1), "s"),
        "cycle_s": (sum(median_of(pairs, 1) for pairs in samples.values()), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "bundle_mb": (outcome.bundle_mb, "MB"),
    }


def per_layer(outcome: Outcome) -> dict:
    """Means per traced operation; times in reference seconds, each
    operation scaled by its own calibration factor."""
    traced = [op for op in outcome.ops if op.traced]
    untraced = [op for op in outcome.ops if not op.traced]
    n = max(1, len(traced))
    slot = {"total": 0, "self": 1, "calls": 2}
    out = {}
    for metric, (names, what, unit) in LAYER_METRICS.items():
        names = names if isinstance(names, tuple) else (names,)
        total = 0.0
        for op in traced:
            if what == "counter":
                total += sum(op.layers.get("counters", {}).get(name, 0) for name in names)
            else:
                value = sum(op.layers.get("layers", {}).get(name, [0, 0, 0])[slot[what]] for name in names)
                total += value * op.scale if unit == "s/op" else value
        out[metric] = (total / n, unit)
    cli_ops = [op for op in traced if op.cli]
    out["cli.self_s"] = (sum((op.wall - op.layers.get("top_s", 0.0)) * op.scale for op in cli_ops) / n, "s/op")
    out["cli.output_bytes"] = (sum(op.out_bytes for op in cli_ops) / n, "B/op")
    t_sum = sum(op.wall * op.scale for op in traced)
    u_sum = sum(op.wall * op.scale for op in untraced)
    out["trace.overhead_ratio"] = (t_sum / u_sum - 1.0 if u_sum else 0.0, "ratio")
    return out


def named_metrics(workload: str, outcome: Outcome) -> list[str]:
    """The per-command metrics under their project names, with units and sample
    counts. Times are in reference seconds, each followed by its raw value."""
    samples = kind_samples(outcome.ops)
    pairs = [pair for kind_pairs in samples.values() for pair in kind_pairs]
    failed = sum(op.error is not None for op in outcome.ops)
    scales = [op.scale for op in outcome.ops]
    lines = [f"calibration: {len(outcome.probes)} probes, median {statistics.median(outcome.probes) * 1000:.2f} ms; "
             f"operation scales {min(scales):.3f}..{max(scales):.3f}"]

    def seconds(name: str, values: list[tuple[float, float]], note: str) -> None:
        lines.append(f"{name} = {median_of(values, 1):.6f} s (raw {median_of(values, 0):.6f} s, {note})")

    def p50(name: str, values: list[tuple[float, float]]) -> None:
        seconds(f"{name}.p50", values, f"n={len(values)}")

    def tail_line(name: str, values: list[tuple[float, float]]) -> None:
        scaled, pct, n = tail([v for _, v in values])
        raw = tail([r for r, _ in values])[0]
        lines.append(f"{name}.tail = {scaled:.6f} s (raw {raw:.6f} s, p{pct:.2f}, n={n})")

    seconds("setup_s", [(raw, raw * scale) for raw, scale in outcome.setups],
            f"median of {len(outcome.setups)}")
    if workload in ("cold_cli", "build_export"):
        p50("cli_s", pairs)
        tail_line("cli_s", pairs)
        lines.append(f"cli_peak_rss_mb = {outcome.peak_rss_mb:.1f} MB")
    if workload == "cold_cli":
        for kind, kind_pairs in sorted(samples.items()):
            p50(f"cli_{kind}_s", kind_pairs)
    if workload == "warm_api":
        for kind in ("lookup", "sim", "label"):
            p50(f"{kind}_s", samples[kind])
        tail_line("sim_s", samples["sim"])
        raw_total, scaled_total = sum(r for r, _ in pairs), sum(v for _, v in pairs)
        lines.append(f"warm_ops_per_s = {len(pairs) / scaled_total:.1f} 1/s "
                     f"(raw {len(pairs) / raw_total:.1f} 1/s, closed loop, one client)")
        for key, values in outcome.extra.items():
            lines.append(f"setup.{key} = {', '.join(f'{v:.3f}' for v in values)} s (raw)")
    if workload == "build_export":
        for kind in EXPORT_CYCLE:
            p50(f"{kind}_s", samples[kind])
        lines.append(f"bundle_mb = {outcome.bundle_mb:.3f} MB")
    lines.append(f"failed_ops_ratio = {failed / max(1, len(outcome.ops)):.4f} ({failed}/{len(outcome.ops)})")
    return lines


def shape(corpus: Corpus, outcome: Outcome) -> list[str]:
    t = corpus.totals
    lines = [
        f"corpus: seed={corpus.seed} classes={t['classes']} sections={t['sections']} heads={t['heads']} "
        f"paragraphs={t['paragraphs']} groups={t['groups']} entries={t['entries']} "
        f"strings={len(corpus.senses)} max_senses={len(corpus.senses[corpus.words[0]])} "
        f"synsets={corpus.synset_count} lexicon_edges={corpus.edge_count} dangling_refs={corpus.dangling_refs}"
    ]
    words = []
    for op in outcome.ops:
        if op.kind == "lookup":
            words.append(normalize(op.spec[1]))
        elif op.kind == "sim":
            words.extend(normalize(w) for w in op.spec[1:])
    if words:
        senses = sorted(len(corpus.senses.get(w, ())) for w in words)
        buckets = Counter("miss" if s == 0 else "1" if s == 1 else "2-9" if s < 10
                          else "10-99" if s < 100 else "100+" for s in senses)
        lines.append(
            f"queried words: n={len(words)} repeated_share={1 - len(set(words)) / len(words):.3f} "
            f"senses p50={senses[len(senses) // 2]} max={senses[-1]} histogram={dict(sorted(buckets.items()))}"
        )
    distances = Counter()
    checker = Checker(corpus) if any(op.kind == "sim" for op in outcome.ops) else None
    for op in outcome.ops:
        if op.kind == "sim":
            d = checker.expected_distance(op.spec[1], op.spec[2])
            distances["miss" if d is None else str(d)] += 1
    if distances:
        lines.append(f"sim distance histogram: {dict(sorted(distances.items(), key=lambda kv: (len(kv[0]), kv[0])))}")
    paras = [tuple(op.spec) for op in outcome.ops if op.kind == "label"]
    if paras:
        lines.append(f"labelled paragraphs: n={len(paras)} repeated_share={1 - len(set(paras)) / len(paras):.3f}")
    kinds = Counter(op.kind for op in outcome.ops if not op.traced)
    lines.append(f"operations: {dict(kinds)}")
    return lines


def environment(root: Path) -> str:
    sha = "n/a"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = done.stdout.strip() or "n/a"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rogetkb").rglob("*.py")):
        digest.update(path.read_bytes())
    return (f"git={sha} src_digest={digest.hexdigest()[:16]} python={platform.python_version()} "
            f"nproc={os.cpu_count()}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float, root: Path) -> tuple[bool, int, int, dict]:
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    prog = Program(root, work)
    try:
        corpus = generate(seed, scale)
        outcome = RUNNERS[workload](corpus, prog, work, seed, seconds, trace)
    finally:
        prog.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    print("env: " + environment(root))
    if outcome.setup_error:
        print(f"set-up failed: {outcome.setup_error}")
        return False, 1, 1, {}
    for line in shape(corpus, outcome):
        print("shape: " + line)
    failures = [op.error for op in outcome.ops if op.error]
    for error in failures[:5]:
        print("FAILED: " + error)
    if trace:
        metrics = per_layer(outcome)
        print("per-layer metrics are means over traced operations; times are self time "
              "(span minus traced children) except bundle.load_s")
    else:
        metrics = end_to_end(outcome)
        for line in named_metrics(workload, outcome):
            print("metric: " + line)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return not failures, len(outcome.ops), len(failures), metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the corpus (1.0 is paper scale; the benchmark's own test uses less)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rogetkb" / "cli.py").is_file():
        print(f"error: {root} is not a rogetkb checkout (no src/rogetkb/cli.py)", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, n, bad, values = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scale, root)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: {"value": value, "unit": unit} for name, (value, unit) in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
