"""Run one ``rogetkb`` command with the benchmark's timing wrappers installed.

Usage (from a checkout, with ``PYTHONPATH=src``):

    python perfbench/cli_launch.py SPANS_JSON OP_ID rogetkb-arguments...

The command behaves exactly as ``python -m rogetkb.cli rogetkb-arguments...``
(same output, same exit code); on exit the recorded spans, stamped with
OP_ID, are written to SPANS_JSON.
"""

from __future__ import annotations

import sys

from tracer import Tracer

import rogetkb.cli


def main() -> None:
    spans_path, op_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(op=op_id)
    tracer.install()
    try:
        rogetkb.cli.main(args=args, prog_name="rogetkb")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
