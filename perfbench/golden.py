"""The golden answers in golden.json and how an answer is digested.

golden.json holds sha256 prefixes of every answer any seed can request:
CLI stdout bytes, warm-moments values outside S(N), and oracle-checks
reports with their verdicts.  It is recorded by record_golden.py.
"""

from __future__ import annotations

import hashlib
import json
import os

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DIGEST_CHARS = 8


def digest(data, chars: int = DIGEST_CHARS) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:chars]


def load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)
