"""How each workload computes its answers and how an answer is checked.

Answers are compared against a shipped oracle where one exists (integrate_G
and integrate_X on S(N) against the SN(N) group) and otherwise against the
golden digests in golden.json (see golden.py).  Imported only by processes that
have qhs on their path.
"""

from __future__ import annotations

import json

from qhs import exact, opspaces, oracle, relations, weingarten
from qhs.partitions import CategorySpec

import gen
from golden import digest


def moment_args(key: tuple) -> tuple:
    """(is_G, argument tuple) for a warm-moments pool key."""
    kind, family, n, word, first, second = key
    spec = CategorySpec(family, n)
    if kind == "G":
        return True, (spec, word, first, second)
    return False, (spec, weingarten.IndexSet.of(n, first), word, second)


def moment_text(value) -> str:
    """Canonical text of a moment: str of a Fraction, JSON of a ScaledScalar."""
    if isinstance(value, exact.ScaledScalar):
        return json.dumps(value.to_json(), sort_keys=True)
    return str(value)


class MomentOracle:
    """Brute-force answers for the S(N) strata from the SN(N) group."""

    def __init__(self):
        self.groups = {}

    def expected(self, key: tuple):
        kind, family, n, word, first, second = key
        if family != "S":
            return None
        group = self.groups.get(n)
        if group is None:
            group = self.groups[n] = oracle.OracleGroup.symmetric(n)
        if kind == "G":
            return oracle.brute_integrate_G(group, word, first, second)
        return oracle.orbit_moment(group, weingarten.IndexSet.of(n, first), word, second)


def build_sources() -> dict:
    """Oracle construction and group closure for every literal the batch uses."""
    return {literal: oracle.parse_oracle(literal) for literal in gen.ORACLE_LITERALS}


def run_check(kind: str, args: tuple, sources: dict):
    """Run one oracle-checks check; returns (passed, report_text, verdict).

    report_text is a function, so the report is serialised only when the
    caller checks it, outside the timed region.
    """
    if kind == "relations":
        form, family, n, literal, members = args
        spec = CategorySpec(family, n)
        I = weingarten.IndexSet.of(n, members)
        if form == "med":
            system = relations.relations_med(spec, I, 3)
        elif form == "max":
            system = relations.relations_max(spec, I, 3)
        else:
            system = relations.relations_hom(spec, I, 3, 2)
        real = oracle.OracleRealization(sources[literal], I)
        report = relations.verify_relations(system, real)
        return report["passed"], lambda: _json([system.to_json(), report]), None
    if kind == "saturation":
        literal, members, bound = args
        source = sources[literal]
        real = oracle.OracleRealization(source, weingarten.IndexSet.of(source.N, members))
        report = opspaces.saturation_report(real, source, bound)
        passed = (
            all(cell["inclusion"] for cell in report["cells"])
            and report["axioms"]["asserted_passed"]
        )
        return passed, lambda: _json(report), report["verdict"]
    family, n, members, length = args
    spec = CategorySpec(family, n)
    I = weingarten.IndexSet.of(n, members)
    reports = [weingarten.ergodicity_check(spec, I, word)
               for word in gen.ergodicity_words(family, length)]
    return all(r["passed"] for r in reports), lambda: _json(reports), None


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def check_matches(golden_entry, passed: bool, report_text, verdict) -> bool:
    """A check passes when its asserted checks pass and its report and
    verdict equal the recorded ones."""
    return (
        golden_entry is not None
        and passed
        and digest(report_text()) == golden_entry["digest"]
        and verdict == golden_entry["verdict"]
    )
