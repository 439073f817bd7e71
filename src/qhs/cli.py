"""Command-line surface: exact integration, relation systems, verify suites.

Exit codes: 0 success, 1 a verify suite found a failing asserted check,
2 malformed invocation, 3 domain error (its name goes to stderr), 4 internal
error such as a failed exactness self-check (``internal-error: <message>``
on stderr, or the exception's type when it has no message; no traceback).
Output is deterministic: identical invocations produce byte-identical output.
The oracle, opspaces, relations and frobenius modules are imported inside the
commands that use them, so integrate-x and integrate-g start without them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from json.encoder import encode_basestring_ascii as _quote

from .exact import (
    DomainError,
    ExactMatrix,
    ParseError,
    ResourceGuardError,
    ScaledScalar,
    multi_indices,
)
from .partitions import (
    CategorySpec,
    all_partitions,
    bell,
    category_size,
    check_dense,
    check_word,
    colored_words,
    conjugate_word,
    enumerate_category,
    partition_vector,
)
from .weingarten import (
    IndexSet,
    ergodicity_check,
    integrate_G,
    integrate_X,
    projection_P,
)

PAIR_GUARD = 1 << 22  # (row, col) pairs a brute-force moment comparison checks, summed over words


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhs",
        description="Exact Weingarten calculus over partition categories and "
        "their homogeneous spaces, with brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("integrate-x", help="moment over a homogeneous space")
    p.add_argument("--spec", required=True, help="category, e.g. S(4) or U+(3)")
    p.add_argument("--I", required=True, help="1-based index set, e.g. 1,2")
    p.add_argument("--word", required=True, help="colored word over o/b ('' for empty)")
    p.add_argument("--idx", default="", help="1-based multi-index, e.g. 1,2")
    common(p)

    p = sub.add_parser("integrate-g", help="Haar moment over the group")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--row", default="", help="1-based row multi-index")
    p.add_argument("--col", default="", help="1-based column multi-index")
    common(p)

    p = sub.add_parser("relations", help="emit a relation system as JSON")
    p.add_argument("--form", required=True, choices=("max", "med", "hom"))
    p.add_argument("--spec", required=True)
    p.add_argument("--I", required=True)
    p.add_argument("--max-k", type=int, default=4, dest="max_k")
    p.add_argument("--max-l", type=int, default=2, dest="max_l")
    common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--spec")
    p.add_argument("--oracle")
    p.add_argument("--I", dest="I")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--max-l", type=int, default=None, dest="max_l")
    p.add_argument("--bounds", type=int, default=None)
    p.add_argument("--samples", type=int, default=100)
    common(p)
    return parser


def _parse_index_tuple(text: str, k: int, n: int, what: str) -> tuple:
    """The 1-based CLI multi-index as a 0-based tuple of k entries in 0..n-1;
    the empty literal is the index of the empty word."""
    tokens = text.split(",") if text.strip() else []
    if not all(tok.strip() for tok in tokens):
        raise ParseError(f"{what} has an empty entry: {text!r}")
    if len(tokens) != k:
        raise ParseError(f"{what} must have {k} entries, got {text!r}")
    try:
        idx = tuple(int(tok) - 1 for tok in tokens)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc
    if not all(0 <= i < n for i in idx):
        raise DomainError(f"{what} entries must lie in 1..{n}, got {text!r}")
    return idx


def _scaled_payload(value: ScaledScalar) -> dict:
    payload = value.to_json()
    payload["approx"] = value.value()
    return payload


def cmd_integrate_x(args) -> dict:
    spec = CategorySpec.parse(args.spec)
    I = IndexSet.parse(args.I, spec.N)
    word = check_word(args.word)
    idx = _parse_index_tuple(args.idx, len(word), spec.N, "--idx")
    return _scaled_payload(integrate_X(spec, I, word, idx))


def cmd_integrate_g(args) -> dict:
    spec = CategorySpec.parse(args.spec)
    word = check_word(args.word)
    row = _parse_index_tuple(args.row, len(word), spec.N, "--row")
    col = _parse_index_tuple(args.col, len(word), spec.N, "--col")
    value = integrate_G(spec, word, row, col)
    return {"value": str(value), "approx": float(value)}


def cmd_relations(args) -> dict:
    from .relations import relations_hom, relations_max, relations_med

    spec = CategorySpec.parse(args.spec)
    I = IndexSet.parse(args.I, spec.N)
    if args.max_k < 0 or args.max_l < 0:
        raise ParseError("--max-k/--max-l must be nonnegative")
    if args.form == "med":
        system = relations_med(spec, I, args.max_k)
    elif args.form == "max":
        system = relations_max(spec, I, args.max_k)
    else:
        system = relations_hom(spec, I, args.max_k, args.max_l)
    return system.to_json()


def _require(args, attr, flag, suite):
    value = getattr(args, attr)
    if value is None:
        raise ParseError(f"suite {suite!r} requires {flag}")
    return value


def _symmetric_spec(args, suite: str) -> CategorySpec:
    """The --spec of a suite whose brute-force oracle is the group S_N."""
    spec = CategorySpec.parse(_require(args, "spec", "--spec", suite))
    if spec.family != "S":
        raise DomainError(f"suite {suite!r} checks against SN(n), so it needs S(n), not {spec}")
    return spec


def _scaled_text(value: dict) -> str:
    """A ScaledScalar's JSON form as text: q, or q*m^(-s/2)."""
    return value["q"] if value["s"] == 0 else f"{value['q']}*{value['m']}^(-{value['s']}/2)"


def _text(value) -> str:
    """A witness value as text: ints inside tuples 1-based, words quoted."""
    if isinstance(value, tuple):
        return "(" + ",".join(str(x + 1) if isinstance(x, int) else _text(x) for x in value) + ")"
    if isinstance(value, ScaledScalar):
        return _scaled_text(value.to_json())
    return repr(value) if isinstance(value, str) else str(value)


def _check(checks, name, passed, detail=""):
    entry = {"name": name, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    checks.append(entry)
    return passed


def _first_mismatch(cases) -> tuple:
    """(True, "") if expected == found in each (at, expected, found) case, else
    (False, witness) for the first that differs.  at alternates labels and
    values, formatted only here; two ExactMatrix values of one shape are named
    by their first differing entry."""
    for at, expected, found in cases:
        if expected != found:
            matrices = isinstance(expected, ExactMatrix) and isinstance(found, ExactMatrix)
            if matrices and (expected.rows, expected.cols) == (found.rows, found.cols):
                pairs = enumerate(zip(expected.entries, found.entries))
                pos = next(pos for pos, (e, f) in pairs if e != f)
                at += ("entry", divmod(pos, expected.cols))
                expected, found = expected.entries[pos], found.entries[pos]
            where = ", ".join(f"{label} {_text(value)}" for label, value in zip(at[::2], at[1::2]))
            witness = f"expected {_text(expected)}, found {_text(found)}"
            return False, f"at {where}: {witness}" if where else witness
    return True, ""


def _compare(checks, name, cases):
    """The check that every (at, expected, found) case agrees, with the first
    mismatch as its witness."""
    return _check(checks, name, *_first_mismatch(cases))


def _suite_counts(args) -> dict:
    nmax = 5
    # gram-join compares every pair of partitions of k <= bounds points
    check_dense(bell(args.bounds) ** 2, f"the gram-join table at k = {args.bounds}")
    checks = []
    for k in range(args.bounds + 1):
        for name, family in (
            ("bell", "S"), ("pairings", "O"), ("noncrossing", "S+"), ("noncrossing-pairings", "O+")
        ):
            spec = CategorySpec(family, 2)
            found = len(enumerate_category(spec, "o" * k))
            _compare(checks, f"{name}({k})", [((), category_size(spec, "o" * k), found)])
    # the joins do not depend on N: one per pair, read for every N
    joins = [
        [pa.join_block_count(pb) for pa, pb in product(all_partitions(k), repeat=2)]
        for k in range(args.bounds + 1)
    ]
    for n in range(1, nmax + 1):
        for k in range(args.bounds + 1):
            parts = all_partitions(k)
            masks = [
                sum(1 << pos for pos, val in enumerate(partition_vector(part, n).entries) if val)
                for part in parts
            ]
            cases = (
                (("p", pa.blocks, "q", pb.blocks), n**j, (ma & mb).bit_count())
                for ((pa, ma), (pb, mb)), j in zip(product(zip(parts, masks), repeat=2), joins[k])
            )
            _compare(checks, f"gram-join(N={n},k={k})", cases)
    return _suite_report("counts", {"bounds": args.bounds, "N_max": nmax}, checks)


def _suite_weingarten_vs_bruteforce(args) -> dict:
    from .oracle import OracleGroup

    spec = _symmetric_spec(args, "weingarten-vs-bruteforce")
    # one integrate_G call per (row, col) pair: 2^k words of N^2k pairs at length k
    pairs = 0
    for k in range(args.max_k + 1):
        pairs += (2 * spec.N**2) ** k
        if pairs > PAIR_GUARD:
            raise ResourceGuardError(
                f"the words up to length {k} have {pairs} (row, col) pairs, "
                f"exceeding the guard PAIR_GUARD = {PAIR_GUARD}"
            )
    group = OracleGroup.symmetric(spec.N)
    checks = []
    for word in colored_words(args.max_k):
        table = group.moment_table(len(word))
        tuples = list(multi_indices(spec.N, len(word)))
        cases = (
            (("row", row, "col", col), table.get((fi, fj), 0), integrate_G(spec, word, row, col))
            for fi, row in enumerate(tuples) for fj, col in enumerate(tuples)
        )
        _compare(checks, f"word({word or 'empty'})", cases)
    params = {"spec": str(spec), "max_k": args.max_k}
    return _suite_report("weingarten-vs-bruteforce", params, checks)


def _suite_moments_vs_orbit(args) -> dict:
    from .oracle import OracleGroup, orbit_moment

    spec = _symmetric_spec(args, "moments-vs-orbit")
    I = IndexSet.parse(_require(args, "I", "--I", "moments-vs-orbit"), spec.N)
    group = OracleGroup.symmetric(spec.N)
    checks = []
    for word in colored_words(args.max_k):
        cases = (
            (("idx", idx), orbit_moment(group, I, word, idx), integrate_X(spec, I, word, idx))
            for idx in multi_indices(spec.N, len(word))
        )
        _compare(checks, f"word({word or 'empty'})", cases)
    params = {"spec": str(spec), "I": str(I), "max_k": args.max_k}
    return _suite_report("moments-vs-orbit", params, checks)


def _suite_dual_moments(args) -> dict:
    from .oracle import GroupDualData, dual_matrix_moment, dual_X_moment, parse_oracle

    dual = parse_oracle(_require(args, "oracle", "--oracle", "dual-moments"))
    if not isinstance(dual, GroupDualData):
        raise DomainError("dual-moments needs a group-dual oracle")
    n = dual.N
    if args.I is not None:
        index_sets = [IndexSet.parse(args.I, n)]
    else:
        index_sets = [
            IndexSet.of(n, members)
            for size in range(1, n + 1)
            for members in combinations(range(n), size)
        ]
    checks = []
    for I in index_sets:
        moments = [
            (word, idx, dual_X_moment(dual, I, word, idx))
            for word in colored_words(args.max_k) for idx in multi_indices(n, len(word))
        ]
        cases = (
            (("word", word, "idx", idx), direct, dual_matrix_moment(dual, I, word, idx))
            for word, idx, direct in moments
        )
        _compare(checks, f"I({I})", cases)
        cases = (
            (("word", word, "idx", idx), 0, direct)
            for word, idx, direct in moments if any(t not in I.members for t in idx)
        )
        _compare(checks, f"vanishing-outside-I({I})", cases)
    return _suite_report("dual-moments", {"oracle": dual.name, "max_k": args.max_k}, checks)


def _suite_projection_laws(args) -> dict:
    spec = CategorySpec.parse(_require(args, "spec", "--spec", "projection-laws"))
    checks = []
    squares = {}
    for word in colored_words(args.max_k):
        P = projection_P(spec, word)
        if id(P) not in squares:
            # P is held beside its verdict, so its id is not reused
            squares[id(P)] = P, _first_mismatch([((), P, P * P)])
        _check(checks, f"idempotent({word or 'empty'})", *squares[id(P)][1])
        cases = (
            (("p", part.blocks), xi, P * xi)
            for part in enumerate_category(spec, word) for xi in (partition_vector(part, spec.N),)
        )
        _compare(checks, f"fixes-vectors({word or 'empty'})", cases)
    params = {"spec": str(spec), "max_k": args.max_k}
    return _suite_report("projection-laws", params, checks)


def _suite_ergodicity(args) -> dict:
    spec = CategorySpec.parse(_require(args, "spec", "--spec", "ergodicity"))
    I = IndexSet.parse(_require(args, "I", "--I", "ergodicity"), spec.N)
    checks = []
    for word in colored_words(args.max_k):
        report = ergodicity_check(spec, I, word)
        bad = report["counterexample"]
        detail = ""
        if bad is not None:
            row = ",".join(map(str, bad["row"]))
            detail = f"row ({row}): lhs {_scaled_text(bad['lhs'])}, rhs {_scaled_text(bad['rhs'])}"
        _check(checks, f"word({word or 'empty'})", report["passed"], detail)
    params = {"spec": str(spec), "I": str(I), "max_k": args.max_k}
    return _suite_report("ergodicity", params, checks)


def _suite_relations(args) -> dict:
    from .oracle import OracleGroup, OracleRealization
    from .relations import (
        med_spans_max, relations_hom, relations_max, relations_med, verify_relations,
    )

    spec = _symmetric_spec(args, "relations")
    I = IndexSet.parse(_require(args, "I", "--I", "relations"), spec.N)
    max_k, max_l = args.max_k, args.max_l
    real = OracleRealization(OracleGroup.symmetric(spec.N), I)
    checks = []
    for name, system in (
        ("med", relations_med(spec, I, max_k)),
        ("max", relations_max(spec, I, max_k)),
        ("hom", relations_hom(spec, I, max_k, max_l)),
    ):
        report = verify_relations(system, real)
        failed = [rel for rel in report["relations"] if not rel["passed"]]
        detail = ""
        if failed:
            rel = failed[0]
            found = ", ".join(f"{key} {value}" for key, value in rel["witness"].items())
            detail = f"relation {rel['index']} {rel['left_word']!r}|{rel['right_word']!r}: {found}"
        _check(checks, f"{name}-form", report["passed"], detail)
    span = med_spans_max(spec, I, max_k)
    outside = [entry for entry in span["words"] if not entry["contained"]]
    detail = ""
    if outside:
        entry = outside[0]
        detail = (
            f"word {entry['word']!r}: rank_med {entry['rank_med']},"
            f" rank_stacked {entry['rank_stacked']}"
        )
    _check(checks, "max-rows-in-med-span", span["passed"], detail)
    return _suite_report(
        "relations",
        {"spec": str(spec), "I": str(I), "max_k": max_k, "max_l": max_l},
        checks,
    )


def _suite_frobenius(args) -> dict:
    from .frobenius import frobenius_to_fix, frobenius_to_hom
    from .opspaces import grid_cells
    from .oracle import fixed_space, hom_dimension, parse_oracle

    bound, samples = args.bounds, args.samples
    if samples:
        check_dense(4**bound, f"a frobenius sample matrix at N=4, |k|+|l|={bound}")
    rng = random.Random(20260809)

    def roundtrips(n, kw, lw):
        for sample in range(1, samples + 1):
            entries = [Fraction(rng.randrange(-3, 4)) for _ in range(n ** (len(kw) + len(lw)))]
            T = ExactMatrix(n ** len(lw), n ** len(kw), entries)
            xi, word = frobenius_to_fix(T, kw, lw, n)
            yield ("sample", sample), lw + conjugate_word(kw), word
            yield ("sample", sample), T, frobenius_to_hom(xi, kw, lw, n)

    checks = []
    for n in range(1, 5):
        for k_len in range(bound + 1):
            for l_len in range(bound + 1 - k_len):
                cases = roundtrips(n, "o" * k_len, "b" * l_len)
                _compare(checks, f"roundtrip(N={n},k={k_len},l={l_len})", cases)
    if args.oracle is not None:
        source = parse_oracle(args.oracle)
        cases = (
            (
                ("cell", (kw, lw)),
                hom_dimension(source, kw, lw),
                len(fixed_space(source, lw + conjugate_word(kw))),
            )
            for kw, lw in grid_cells(bound)
        )
        _compare(checks, "hom-dims-match-fix-dims", cases)
    params = {"bounds": bound, "samples": samples, "oracle": args.oracle}
    return _suite_report("frobenius", params, checks)


def _suite_saturation(args) -> dict:
    from .opspaces import saturation_report
    from .oracle import OracleGroup, OracleRealization, parse_oracle

    source = parse_oracle(_require(args, "oracle", "--oracle", "saturation"))
    I = IndexSet.parse(_require(args, "I", "--I", "saturation"), source.N)
    bound = args.bounds
    if bound is None:
        bound = 3 if isinstance(source, OracleGroup) else 2
    report = saturation_report(OracleRealization(source, I), source, bound)
    checks = []
    cases = ((("cell", (c["k"], c["l"])), True, c["inclusion"]) for c in report["cells"])
    _compare(checks, "inclusion", cases)
    cases = (
        ((kind, (entry["k"], entry["l"])), True, entry["passed"])
        for kind in ("unit", "adjoint", "frobenius") for entry in report["axioms"][kind]
    )
    _compare(checks, "unit-adjoint-frobenius", cases)
    _check(checks, "verdict", True, report["verdict"])
    params = {"oracle": source.name, "I": str(I), "bounds": bound}
    return {**_suite_report("saturation", params, checks), "report": report}


def _suite_properness(args) -> dict:
    from .oracle import GroupDualData, normal_closure_compare, parse_oracle

    source = parse_oracle(_require(args, "oracle", "--oracle", "properness"))
    if not isinstance(source, GroupDualData):
        raise DomainError("properness needs a group-dual oracle")
    I = IndexSet.parse(_require(args, "I", "--I", "properness"), source.N)
    report = normal_closure_compare(source, I)
    checks = []
    orders = f"orders {report['subgroup_order']}/{report['normal_closure_order']}"
    _check(checks, "normal-closure", True, f"{orders} proper={report['proper']}")
    params = {"oracle": source.name, "I": str(I)}
    return {**_suite_report("properness", params, checks), "report": report}


def _suite_report(suite: str, params: dict, checks: list) -> dict:
    return {
        "suite": suite,
        "params": params,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


# suite name -> (runner, defaults of the bounds it reads)
_SUITE_RUNNERS = {
    "counts": (_suite_counts, {"bounds": 6}),
    "weingarten-vs-bruteforce": (_suite_weingarten_vs_bruteforce, {"max_k": 4}),
    "moments-vs-orbit": (_suite_moments_vs_orbit, {"max_k": 4}),
    "dual-moments": (_suite_dual_moments, {"max_k": 4}),
    "projection-laws": (_suite_projection_laws, {"max_k": 3}),
    "ergodicity": (_suite_ergodicity, {"max_k": 3}),
    "relations": (_suite_relations, {"max_k": 3, "max_l": 2}),
    "frobenius": (_suite_frobenius, {"bounds": 4}),
    "saturation": (_suite_saturation, {}),
    "properness": (_suite_properness, {}),
}


def cmd_verify(args) -> dict:
    if args.suite not in _SUITE_RUNNERS:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(_SUITE_RUNNERS)}"
        )
    runner, defaults = _SUITE_RUNNERS[args.suite]
    for flag in ("max_k", "max_l", "bounds", "samples"):
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, defaults.get(flag))
        elif value < 0:
            raise ParseError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
    return runner(args)


_COMMANDS = {
    "integrate-x": cmd_integrate_x,
    "integrate-g": cmd_integrate_g,
    "relations": cmd_relations,
    "verify": cmd_verify,
}


def _render_csv(payload: dict) -> str:
    lines = []
    if "checks" in payload:
        lines.append("check,passed,detail")
        for entry in payload["checks"]:
            name = entry["name"].replace(",", ";")
            detail = entry.get("detail", "").replace(",", ";")
            lines.append(f"{name},{int(entry['passed'])},{detail}")
    elif "relations" in payload:
        lines.append("index,left_word,right_word,rhs_q,rhs_s,rhs_m,T")
        for pos, rel in enumerate(payload["relations"]):
            flat = " ".join(x for row in rel["T"] for x in row)
            rhs = rel["rhs"]
            lines.append(
                f"{pos},{rel['left_word']},{rel['right_word']},"
                f"{rhs['q']},{rhs['s']},{rhs['m']},{flat}"
            )
    elif "q" in payload:
        lines.append("q,s,m,approx")
        lines.append(f"{payload['q']},{payload['s']},{payload['m']},{payload['approx']!r}")
    else:
        lines.append("value,approx")
        lines.append(f"{payload['value']},{payload['approx']!r}")
    return "\n".join(lines) + "\n"


def _render_pretty(payload: dict) -> str:
    lines = []
    if "checks" in payload:
        lines.append(f"suite {payload['suite']}: {'PASS' if payload['passed'] else 'FAIL'}")
        for entry in payload["checks"]:
            status = "pass" if entry["passed"] else "FAIL"
            detail = f"  ({entry['detail']})" if entry.get("detail") else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
    elif "relations" in payload:
        lines.append(
            f"{payload['provenance']} system for {payload['spec']} with I={{{','.join(map(str, payload['I']))}}}:"
            f" {len(payload['relations'])} relations"
        )
        for pos, rel in enumerate(payload["relations"]):
            lines.append(
                f"  [{pos}] left={rel['left_word'] or 'empty'}"
                f" right={rel['right_word'] or 'empty'} rhs={_scaled_text(rel['rhs'])}"
            )
    elif "q" in payload:
        lines.append(f"{_scaled_text(payload)} = {payload['approx']!r}")
    else:
        lines.append(f"{payload['value']} = {payload['approx']!r}")
    return "\n".join(lines) + "\n"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with string
    keys.  An indent sends json.dumps to its pure-Python encoder; here
    strings go through the C quoting, a list of strings (a row of T) is one
    join, and a dict object met again at the same depth (the shared rows of
    a max-form kernel) is rendered once."""
    done = {}

    def text(v, pad):
        if isinstance(v, str):
            return _quote(v)
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, float):
            r = float.__repr__(v)
            return _FLOAT_WORDS.get(r, r)
        inner = pad + "  "
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            if isinstance(v[0], str):
                try:
                    return "[" + inner + ("," + inner).join(map(_quote, v)) + pad + "]"
                except TypeError:  # not every item is a string
                    pass
            return "[" + inner + ("," + inner).join([text(x, inner) for x in v]) + pad + "]"
        if not isinstance(v, dict):
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        out = done.get((id(v), len(pad)))
        if out is None:
            items = [_quote(key) + ": " + text(x, inner) for key, x in v.items()]
            out = "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
            done[id(v), len(pad)] = out
        return out

    return text(value, "\n")


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json_text(payload) + "\n"
    if fmt == "csv":
        return _render_csv(payload)
    return _render_pretty(payload)


def _write_atomically(path: str, text: str) -> None:
    """Write a temporary file next to the target and rename it over the
    target, so the target holds either its old or its new bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload = _COMMANDS[args.command](args)
        text = render(payload, args.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a failed self-check or a bug, never a verdict on the input
        print(f"internal-error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    if args.output:
        try:
            _write_atomically(args.output, text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if "passed" in payload and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
