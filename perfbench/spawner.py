"""Starts the CLI calls for the runner and reports what each cost.

On Linux a child's peak RSS (``ru_maxrss``) includes the memory of the
process that started it, as it stood when the child called exec. The runner
holds the corpus and its ground truth (hundreds of MB), so it starts this
small helper first and has it start every ``rogetkb`` call.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env", "out",
"err"}``; one JSON reply per stdout line, ``{"code", "wall", "rss_kb"}``.
The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    cwd=request["cwd"], env=request["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall, "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
