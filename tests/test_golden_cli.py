"""Replay the recorded CLI requests of the benchmark's golden corpus.

perfbench/golden.json maps each request (its argv joined by spaces) to the
first 16 hex characters of the SHA-256 of its stdout.  Every request is run
through ``cli.main`` in-process and must exit 0 with the same bytes, so a
refactor that changes any output fails here.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

from qhs.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def test_cli_outputs_match_golden_digests(capsys):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli"]
    assert len(recorded) == 135
    mismatches = []
    for key, expected in sorted(recorded.items()):
        code = main(key.split(" "))
        out = capsys.readouterr().out
        found = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        if code != 0 or found != expected:
            mismatches.append((key, code, found, expected))
    assert mismatches == []
