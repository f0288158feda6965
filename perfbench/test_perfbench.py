"""The benchmark's own test: every workload end to end at a small scale,
untraced and traced, plus the generator's paper-scale totals. Run from the
repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import generate
from run import tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_scale_run(workload, trace, section):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "cold_cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_paper_scale_corpus():
    corpus = generate(1)
    assert corpus.totals == {"classes": 8, "sections": 39, "heads": 990, "paragraphs": 6432,
                             "groups": 59927, "entries": 224814}
    assert len(corpus.senses) == 100_000
    assert 100 <= len(corpus.senses[corpus.words[0]]) < 1000
    assert 95_000 <= corpus.synset_count <= 105_000
    common = set(corpus.senses) & corpus.lemmas
    heads = sum(name.lower() in common for *_, name in corpus.heads) / len(corpus.heads)
    keywords = sum(p.keyword in common for p in corpus.paragraphs) / len(corpus.paragraphs)
    strings = sum(len(v) for w, v in corpus.senses.items() if w in common) / corpus.totals["entries"]
    assert abs(heads - 0.78) < 0.04 and abs(keywords - 0.61) < 0.04 and abs(strings - 0.63) < 0.04


def test_generator_is_seeded():
    assert generate(7, 0.02).lexicon == generate(7, 0.02).lexicon
    assert generate(7, 0.02).canonical != generate(8, 0.02).canonical


def test_tail_needs_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
