"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Verdict lines go to the real stdout so they survive pytest's capture and
appear in logged runs. The ninth check needs externally licensed data and
reports SKIP when the environment does not provide it.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from corpusgen import fixture_text, generate
from oracles import (
    bfs_distance, count_entry_tokens, materialize_graph, net_strings, paragraph_strings, via,
    walk_entries,
)
from rogetkb.aligner import (
    class_coverage,
    label_paragraph,
    pos_distribution,
)
from rogetkb.cli import main
from rogetkb.index import build_index
from rogetkb.lexnet import RelationType, build_mini_net
from rogetkb.metrics import sg_distance
from rogetkb.model import Address, PartOfSpeech
from rogetkb.parser import parse_source, serialize_kb


@pytest.fixture
def announce(capsys):
    """Print one verdict line on the real stdout, past pytest's capture."""

    def emit(num: int, name: str, status: str) -> None:
        with capsys.disabled():
            print(f"acceptance {num}/9 {name}: {status}", flush=True)

    return emit


def check(announce, num: int, name: str, problems: list[str]) -> None:
    announce(num, name, "PASS" if not problems else "FAIL")
    assert not problems, problems


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory) -> str:
    root = tmp_path_factory.mktemp("acceptance")
    (root / "head42.roget").write_text(fixture_text("head42.roget"), encoding="utf-8")
    (root / "decrement.lex").write_text(fixture_text("decrement.lex"), encoding="utf-8")
    out = root / "head42.kb"
    result = CliRunner().invoke(main, [
        "build", str(root / "head42.roget"),
        "--lex", str(root / "decrement.lex"), "--out", str(out),
    ])
    assert result.exit_code == 0, result.stderr
    return str(out)


def test_labelling_reproduction(announce, bundle_path, kb42, res_dec):
    """Four semicolon groups labelled Hyponym, seven left unlabelled, under
    one second, matching the expected rearrangement byte for byte."""
    problems = []
    started = time.perf_counter()
    result = CliRunner().invoke(main, ["label", "42", "N", "0", "--kb", bundle_path])
    elapsed = time.perf_counter() - started
    expected = [
        "N. decrement",
        "Hyponym: deduction, depreciation, cut @37 diminution; "
        "refund, shortage, slippage, defect @307 shortfall @636 insufficiency; "
        "shrinkage @204 shortening; "
        "spoilage, wastage, consumption @634 waste",
        "No label: allowance; remission; "
        "tare, drawback, clawback, rebate @810 discount; "
        "loss, sacrifice, forfeit @963 penalty; "
        "leak, leakage, escape @298 outflow; "
        "subtrahend, rake-off @786 taking; "
        "toll @809 tax",
    ]
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    if result.stdout.splitlines() != expected:
        problems.append(f"output mismatch: {result.stdout!r}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")

    labelled = label_paragraph(kb42, res_dec, Address.parse("1.3.42:N:0")).labelled
    labels = [lg.label for lg in labelled]
    if labels.count(RelationType.HYPONYM) != 4 or labels.count(None) != 7:
        problems.append(f"label multiset wrong: {labels}")
    check(announce, 1, "decrement labelling reproduction", problems)


def test_mini_net_overlap_count(announce, kb42, res_dec):
    problems = []
    para = kb42.resolve(Address.parse("1.3.42:N:0"))
    net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
    count = len(paragraph_strings(para) & net_strings(net))
    if count != 6:
        problems.append(f"overlap {count} != 6")
    check(announce, 2, "mini-net overlap count", problems)


def test_mini_net_structure(announce, res_dec):
    problems = []
    net = build_mini_net(res_dec, "decrement", PartOfSpeech.NOUN)
    if len(net.senses) != 2:
        problems.append(f"{len(net.senses)} senses != 2")
    else:
        s1, s2 = net.senses
        hypo1 = {frozenset(s.lemmas) for s in via(s1, RelationType.HYPONYM)}
        if hypo1 != {frozenset({"drop", "fall"}), frozenset({"shrinkage"})}:
            problems.append(f"sense-1 hyponyms {hypo1}")
        hypo2 = {frozenset(s.lemmas) for s in via(s2, RelationType.HYPONYM)}
        for needed in (frozenset({"slippage"}), frozenset({"decline", "diminution"})):
            if needed not in hypo2:
                problems.append(f"sense-2 hyponyms missing {set(needed)}")
        coords = {
            frozenset(s.lemmas)
            for sense in net.senses
            for s in via(sense, RelationType.COORDINATE)
        }
        for needed in (
            frozenset({"amount"}),
            frozenset({"insufficiency", "inadequacy", "deficiency"}),
        ):
            if needed not in coords:
                problems.append(f"coordinates missing {set(needed)}")
    check(announce, 3, "mini-net structure", problems)


def test_metric_oracle_equivalence(announce, kb42, kb2):
    """Arithmetic distance equals BFS on an explicit graph, plus the three
    metric laws, exhaustively on both fixtures, in under ten seconds."""
    problems = []
    started = time.perf_counter()
    for kb in (kb42, kb2):
        adjacency, sg_nodes = materialize_graph(kb)
        if len(sg_nodes) > 200:
            continue
        addrs = [Address.parse(t) for t in sorted(sg_nodes)]
        dist = {}
        for a, b in itertools.product(addrs, repeat=2):
            expected = bfs_distance(adjacency, sg_nodes[str(a)], sg_nodes[str(b)])
            got = sg_distance(kb, a, b).distance
            dist[a, b] = got
            if got != expected:
                problems.append(f"{a} vs {b}: {got} != bfs {expected}")
        for a, b in itertools.product(addrs, repeat=2):
            if dist[a, b] != dist[b, a]:
                problems.append(f"asymmetry at {a}, {b}")
            if (dist[a, b] == 0) != (a == b):
                problems.append(f"zero-distance mismatch at {a}, {b}")
        for a, b, c in itertools.product(addrs, repeat=3):
            if dist[a, c] > dist[a, b] + dist[b, c]:
                problems.append(f"triangle violation at {a}, {b}, {c}")
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s")
    check(announce, 4, "metric oracle equivalence", problems)


def test_fixed_depth(announce, kb42, kb2):
    problems = []
    corpora = [kb42, kb2, parse_source(generate(99, n_classes=3).text).kb]
    for kb in corpora:
        for addr, _ in walk_entries(kb):
            if addr.level != 7:
                problems.append(f"entry {addr} at level {addr.level}")
        adjacency, sg_nodes = materialize_graph(kb)
        for text, node in sg_nodes.items():
            root_depth = bfs_distance(adjacency, (), node)
            if root_depth != 6:
                problems.append(f"group {text} at depth {root_depth}")
            if Address.parse(text).level != 6:
                problems.append(f"group {text} at level mismatch")
    _, sg_nodes = materialize_graph(kb2)
    addrs = [Address.parse(t) for t in sg_nodes]
    top = max(
        sg_distance(kb2, a, b).distance for a, b in itertools.combinations(addrs, 2)
    )
    if top != 12:
        problems.append(f"max distance {top} != 12")
    check(announce, 5, "fixed depth and distance ceiling", problems)


def test_index_completeness(announce):
    problems = []
    for seed in (41, 4242):
        corpus = generate(
            seed,
            n_classes=6,
            heads_per_section=(2, 5),
            groups_per_para=(2, 6),
            entries_per_group=(2, 8),
        )
        if corpus.entries < 1000:
            problems.append(f"seed {seed}: only {corpus.entries} entries")
            continue
        kb = parse_source(corpus.text).kb
        idx = build_index(kb)
        for addr, entry in walk_entries(kb):
            if addr not in idx.lookup(entry.text):
                problems.append(f"seed {seed}: {entry.text} missing {addr}")
                break
        occurrences = sum(map(len, idx.entries.values()))
        if occurrences != count_entry_tokens(corpus.text):
            problems.append(
                f"seed {seed}: occurrences {occurrences} != "
                f"token count {count_entry_tokens(corpus.text)}"
            )
    check(announce, 6, "index completeness at scale", problems)


def test_round_trip(announce, kb42, kb2):
    problems = []
    for name, kb in (("head42", kb42), ("two_class", kb2)):
        if parse_source(serialize_kb(kb)).kb != kb:
            problems.append(f"fixture {name} does not round-trip")
    for seed in range(5):
        kb = parse_source(generate(seed).text).kb
        once = serialize_kb(kb)
        again = parse_source(once).kb
        if again != kb:
            problems.append(f"seed {seed} does not round-trip")
        elif serialize_kb(again) != once:
            problems.append(f"seed {seed} serialization not a fixed point")
    check(announce, 7, "round-trip identity", problems)


def test_statistics_consistency(announce):
    problems = []
    for seed in (7, 77, 777):
        corpus = generate(seed, n_classes=3)
        kb = parse_source(corpus.text).kb
        strings = sorted(corpus.occurrences)
        small = frozenset(strings[: len(strings) // 3])
        large = small | frozenset(strings[: 2 * len(strings) // 3])

        cov = class_coverage(kb, small)
        for row in cov.rows:
            occurrences = [
                entry.text
                for addr, entry in walk_entries(kb)
                if addr.class_num == row.class_num
            ]
            hits = sum(1 for t in occurrences if t in small)
            if row.strings != len(occurrences):
                problems.append(f"seed {seed} class {row.class_num}: occurrence count")
            if abs(row.pct_common_strings - hits / len(occurrences)) > 1e-12:
                problems.append(f"seed {seed} class {row.class_num}: pct recount")
        for field in ("sections", "heads", "paragraphs", "groups", "strings"):
            if getattr(cov.total, field) != sum(getattr(r, field) for r in cov.rows):
                problems.append(f"seed {seed}: totals row differs on {field}")

        if abs(sum(pos_distribution(kb).values()) - 1.0) > 1e-9:
            problems.append(f"seed {seed}: POS shares do not sum to 1")

        grown = class_coverage(kb, large)
        for before, after in zip(cov.rows, grown.rows):
            if after.pct_common_strings < before.pct_common_strings:
                problems.append(f"seed {seed}: coverage shrank as common set grew")
    check(announce, 8, "statistics consistency", problems)


def test_full_corpus_totals(announce, tmp_path):
    source = os.environ.get("ROGETKB_1987_SOURCE")
    lex = os.environ.get("ROGETKB_WORDNET16_LEX")
    if not source or not lex:
        announce(
            9, "full-corpus coverage totals",
            "SKIP (set ROGETKB_1987_SOURCE and ROGETKB_WORDNET16_LEX to run)",
        )
        pytest.skip("licensed full-corpus data not available")
    problems = []
    out = tmp_path / "full.kb"
    runner = CliRunner()
    built = runner.invoke(main, ["build", source, "--lex", lex, "--out", str(out)])
    if built.exit_code != 0:
        problems.append(f"build failed: {built.stderr}")
    else:
        table = runner.invoke(main, ["stats", "class", "--kb", str(out)])
        total = table.stdout.splitlines()[-1].split("\t")
        expected_counts = [39, 990, 6432, 59927, 224814]
        expected_pcts = [0.78, 0.61, 0.63]
        if [int(c) for c in total[1:6]] != expected_counts:
            problems.append(f"counts {total[1:6]} != {expected_counts}")
        for got, want in zip(total[6:9], expected_pcts):
            if abs(float(got) - want) > 0.01:
                problems.append(f"percentage {got} not within 0.01 of {want}")
    check(announce, 9, "full-corpus coverage totals", problems)
