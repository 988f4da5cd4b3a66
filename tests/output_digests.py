"""Print one sha256 per output of a checkout's command line.

    python tests/output_digests.py [CHECKOUT]     (default: this repository)

CHECKOUT is a repository root; its src/ is put first on the path of each
`python -m udwpair.cli` call.  The outputs are the 14 preset CSVs, `figures`
stdout for the five presets, three 401-step `sweep` stdouts, one `point`
JSON, and `verify` stdout for seeds 0-7 at the default draw counts, at
--points 100 and at --points 2000.  Each line is "<sha256>  <output>", so
that the listings of two checkouts compare with diff:

    diff <(python tests/output_digests.py old) <(python tests/output_digests.py new)

pytest does not collect this file, and it stores no digests.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

PRESETS = ("fig1", "fig2", "fig3-top", "fig3-bottom", "fig4")
SWEEPS = (
    ("--vary", "l", "--from", "0.1", "--to", "10", "--steps", "401", "--dtau", "2"),
    ("--vary", "lambda", "--from", "0", "--to", "12", "--steps", "401", "--l", "5", "--dtau", "3"),
    ("--vary", "omega-b", "--from", "0", "--to", "4", "--steps", "401", "--theta", "0.3"),
)
POINT = ("--theta", "0.7854", "--lambda", "2", "--l", "3", "--dtau", "3")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    root = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as work:

        def cli(*args) -> bytes:
            done = subprocess.run(
                [sys.executable, "-m", "udwpair.cli", *args], cwd=work, env=env, capture_output=True, check=True
            )
            return done.stdout

        # a relative --out, so that the "wrote" lines are the same for every checkout
        for preset in PRESETS:
            print(_digest(cli("figures", preset, "--out", "figures")), f" figures {preset} stdout")
        for name in sorted(os.listdir(os.path.join(work, "figures"))):
            with open(os.path.join(work, "figures", name), "rb") as fh:
                print(_digest(fh.read()), f" {name}")
        for args in SWEEPS:
            print(_digest(cli("sweep", *args)), " sweep", *args)
        print(_digest(cli("point", *POINT)), " point", *POINT)
        for points in ((), ("--points", "100"), ("--points", "2000")):
            for seed in range(8):
                print(_digest(cli("verify", "--seed", str(seed), *points)), f" verify --seed {seed}", *points)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
