"""Set-up probe: a fresh interpreter imports udwpair and completes one warm-up
operation of a workload, then prints "ready" and checks that operation's
output.  run.py times it from spawn to that line.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import udwpair  # noqa: E402,F401

from workloads import make_workload  # noqa: E402


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="setup-", dir=os.path.join(HERE, "out"))
    try:
        wl = make_workload(name, seed, tmp)
        op = wl.pass_ops(1)[0]
        out = wl.run_inproc(op)
        print("ready", flush=True)
        if not wl.check(op, out):
            print("warm-up operation gave a wrong result", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
