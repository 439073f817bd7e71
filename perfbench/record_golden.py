"""Record golden.json: digests of every answer any seed can request.

    python3 perfbench/record_golden.py

Run from the repository root.  The file in the tree was recorded at the
commit that introduced the benchmark; record again only when an answer or
a CLI output is meant to change, and say so in the change that does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import answers  # noqa: E402
import gen  # noqa: E402
import golden  # noqa: E402
from qhs import weingarten  # noqa: E402


def cli_key(argv) -> str:
    return " ".join(argv)


def record_cli() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for variants in gen.cli_pool():
        for argv in variants:
            proc = subprocess.run([sys.executable, "-m", "qhs", *argv], cwd=ROOT, env=env,
                                  capture_output=True, timeout=120, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"qhs {cli_key(argv)} exited {proc.returncode}")
            out[cli_key(argv)] = golden.digest(proc.stdout, 16)
    return out


def record_moments() -> dict:
    out = {}
    for name, keys in gen.moment_pool().items():
        if keys[0][1] == "S":
            continue  # checked against the SN(N) oracle instead
        digests = []
        for key in keys:
            is_g, args = answers.moment_args(key)
            fn = weingarten.integrate_G if is_g else weingarten.integrate_X
            digests.append(golden.digest(answers.moment_text(fn(*args))))
        out[name] = "".join(digests)
    return out


def record_checks() -> dict:
    sources = answers.build_sources()
    out = {}
    for name, kind, args in gen.all_oracle_checks():
        passed, report_text, verdict = answers.run_check(kind, args, sources)
        if not passed:
            raise SystemExit(f"check {name} failed at recording")
        if name.startswith("saturation:dual") and verdict != "strictly-larger":
            raise SystemExit(f"check {name}: dual saturation must be strictly-larger")
        out[name] = {"digest": golden.digest(report_text()), "verdict": verdict}
    return out


def main() -> int:
    recorded = {"checks": record_checks(), "moments": record_moments(), "cli": record_cli()}
    with open(golden.PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
