"""Warm library client: one process, one bundle load, a closed loop of calls.

Usage (from a checkout, with ``PYTHONPATH=src``):

    python perfbench/warm_client.py CONFIG_JSON

The config names the bundle, the operation list, the seconds to run, how
many times to load (set-up is repeated so its median can be reported),
a warm-up label call that fills the lexicon's lazy tables, and whether to
trace. Each operation is timed around the library calls alone; rendering
the result for the output check happens outside the timed region. Results,
with this process's peak RSS, are written to the config's ``out`` path.

After each load and after every ``CHUNK_S`` seconds of operations the
client prints ``pause`` and waits for a line on stdin, so the runner can
take its machine-speed probe while the client is idle. Each load and each
operation records the segment (count of pauses before it) it ran in.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import rogetkb.aligner
import rogetkb.bundle
import rogetkb.metrics
from rogetkb.cli import render_labelled
from rogetkb.model import Address, PartOfSpeech

CHUNK_S = 1.5


def _lookup(bundle, word: str) -> list[str]:
    """What ``rogetkb lookup`` prints: the index hit plus two resolves per row."""
    rows = []
    kb = bundle.kb
    for addr in bundle.index.lookup(word):
        head = kb.resolve(Address(addr.class_num, addr.section_num, addr.head_num))
        para = kb.resolve(Address(addr.class_num, addr.section_num, addr.head_num, addr.pos, addr.para_idx))
        rows.append(f"{addr}\t{head.name}\t{para.keyword}")
    return rows


def _run(bundle, spec: list):
    """Execute one operation; returns (seconds, renderable result)."""
    kind = spec[0]
    if kind == "lookup":
        start = time.perf_counter()
        rows = _lookup(bundle, spec[1])
        return time.perf_counter() - start, rows
    if kind == "sim":
        start = time.perf_counter()
        result = rogetkb.metrics.word_distance(bundle.kb, bundle.index, spec[1], spec[2])
        return time.perf_counter() - start, result
    head_num, pos_tag, para_idx = spec[1], spec[2], spec[3]
    start = time.perf_counter()
    head_addr = bundle.kb.head_address(head_num)
    pos = PartOfSpeech.parse(pos_tag)
    target = Address(head_addr.class_num, head_addr.section_num, head_num, pos, para_idx)
    result = rogetkb.aligner.label_paragraph(bundle.kb, bundle.resource, target)
    return time.perf_counter() - start, (result, pos)


def _render(spec: list, value) -> object:
    if spec[0] == "lookup":
        return value
    if spec[0] == "sim":
        if value is None:
            return None
        return [value.distance, value.lca_level, str(value.witness_a), str(value.witness_b)]
    result, pos = value
    return render_labelled(result, pos, False)


def _pause() -> None:
    print("pause", flush=True)
    sys.stdin.readline()


def _peak_rss_kb() -> int:
    """VmHWM of this process: unlike ru_maxrss, it does not count the
    memory of the parent that started it."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    ops = config["ops"]
    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    loads = []
    bundle = None
    for _ in range(config["loads"]):
        bundle = None  # drop the previous load before timing the next
        start = time.perf_counter()
        bundle = rogetkb.bundle.load_bundle(config["bundle"])
        loaded = time.perf_counter()
        _run(bundle, config["warmup"])
        loads.append([loaded - start, time.perf_counter() - loaded])
        _pause()

    segment = len(loads)
    records = []  # spec index, seconds, traced, digest, segment
    outputs: dict[int, object] = {}
    deadline = time.perf_counter() + config["seconds"]
    chunk_end = time.perf_counter() + CHUNK_S
    kinds_seen: set[str] = set()
    kinds = {spec[0] for spec in ops}
    i = 0
    while time.perf_counter() < deadline or kinds_seen != kinds:
        if time.perf_counter() >= chunk_end:
            _pause()
            segment += 1
            chunk_end = time.perf_counter() + CHUNK_S
        spec_idx = i % len(ops)
        spec = ops[spec_idx]
        # traced runs execute every operation twice, untraced and traced,
        # alternating which goes first so warmed caches favour neither
        modes = [False]
        if tracer is not None:
            modes = [False, True] if i % 2 == 0 else [True, False]
        for traced in modes:
            if traced:
                tracer.op = len(records)
                tracer.install()
            try:
                seconds, value = _run(bundle, spec)
            finally:
                if traced:
                    tracer.uninstall()
            rendered = _render(spec, value)
            digest = hashlib.sha256(json.dumps(rendered).encode("utf-8")).hexdigest()
            if spec_idx not in outputs:
                outputs[spec_idx] = rendered
            records.append([spec_idx, seconds, traced, digest, segment])
        kinds_seen.add(spec[0])
        i += 1
    _pause()

    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump({"loads": loads, "records": records, "peak_rss_kb": _peak_rss_kb(),
                   "outputs": {str(k): v for k, v in outputs.items()}}, handle)
    if tracer is not None:
        tracer.dump(config["spans"])


if __name__ == "__main__":
    main()
