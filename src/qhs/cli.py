"""Command-line surface: exact integration, relation systems, verify suites.

Exit codes: 0 success, 1 a verify suite found a failing asserted check,
2 malformed invocation, 3 domain error (its name goes to stderr), 4 internal
error such as a failed exactness self-check (``internal-error: <message>``
on stderr, no traceback).  Output
is deterministic: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

from .exact import (
    DomainError,
    ExactMatrix,
    ParseError,
    ScaledScalar,
    multi_indices,
)
from .frobenius import frobenius_to_fix, frobenius_to_hom
from .opspaces import grid_cells, saturation_report
from .oracle import (
    GroupDualData,
    OracleGroup,
    OracleRealization,
    dual_matrix_moment,
    dual_X_moment,
    fixed_space,
    hom_space,
    normal_closure_compare,
    orbit_moment,
    parse_oracle,
)
from .partitions import (
    CategorySpec,
    all_pairings,
    all_partitions,
    check_word,
    colored_words,
    conjugate_word,
    enumerate_category,
    partition_vector,
)
from .relations import (
    med_spans_max,
    relations_hom,
    relations_max,
    relations_med,
    verify_relations,
)
from .weingarten import (
    IndexSet,
    ergodicity_check,
    integrate_G,
    integrate_X,
    projection_P,
)

SUITES = (
    "counts",
    "weingarten-vs-bruteforce",
    "moments-vs-orbit",
    "dual-moments",
    "projection-laws",
    "ergodicity",
    "relations",
    "frobenius",
    "saturation",
    "properness",
)


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


def _parse_index_tuple(text: str, k: int, what: str) -> tuple:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if len(tokens) != k:
        raise ParseError(f"{what} must have {k} entries, got {text!r}")
    try:
        idx = tuple(int(tok) - 1 for tok in tokens)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc
    return idx


def _scaled_payload(value: ScaledScalar) -> dict:
    payload = value.to_json()
    payload["approx"] = value.value()
    return payload


def cmd_integrate_x(args) -> dict:
    spec = CategorySpec.parse(args.spec)
    I = IndexSet.parse(args.I, spec.N)
    word = check_word(args.word)
    idx = _parse_index_tuple(args.idx, len(word), "--idx")
    return _scaled_payload(integrate_X(spec, I, word, idx))


def cmd_integrate_g(args) -> dict:
    spec = CategorySpec.parse(args.spec)
    word = check_word(args.word)
    row = _parse_index_tuple(args.row, len(word), "--row")
    col = _parse_index_tuple(args.col, len(word), "--col")
    value = integrate_G(spec, word, row, col)
    return {"value": str(value), "approx": float(value)}


def cmd_relations(args) -> dict:
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
        raise DomainError(
            f"no finite classical oracle ships for family {spec.family}; use S(n)"
        )
    return spec


def _check(checks, name, passed, detail=""):
    entry = {"name": name, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    checks.append(entry)
    return passed


def _suite_counts(args) -> dict:
    bound = args.bounds if args.bounds is not None else 6
    nmax = 5
    checks = []

    def bell(n):
        row = [1]
        for _ in range(n):
            new = [row[-1]]
            for x in row:
                new.append(new[-1] + x)
            row = new
        return row[0]

    def double_factorial_pairings(k):
        if k % 2:
            return 0
        out = 1
        for j in range(k - 1, 0, -2):
            out *= j
        return out

    def catalan(n):
        row = [1]
        for _ in range(n):
            row.append(sum(row[i] * row[-1 - i] for i in range(len(row))))
        return row[n]

    for k in range(bound + 1):
        _check(checks, f"bell({k})", len(all_partitions(k)) == bell(k))
        _check(
            checks,
            f"pairings({k})",
            len(all_pairings(k)) == double_factorial_pairings(k),
        )
        _check(
            checks,
            f"noncrossing({k})",
            len(enumerate_category(CategorySpec("S+", 2), "o" * k)) == catalan(k),
        )
        expected = catalan(k // 2) if k % 2 == 0 else 0
        _check(
            checks,
            f"noncrossing-pairings({k})",
            len(enumerate_category(CategorySpec("O+", 2), "o" * k)) == expected,
        )
    for n in range(1, nmax + 1):
        for k in range(bound + 1):
            parts = all_partitions(k)
            masks = []
            for part in parts:
                mask = 0
                for pos, val in enumerate(partition_vector(part, n).entries):
                    if val:
                        mask |= 1 << pos
                masks.append(mask)
            ok = True
            for a, pa in enumerate(parts):
                for b, pb in enumerate(parts):
                    direct = (masks[a] & masks[b]).bit_count()
                    if direct != n ** pa.join(pb).block_count:
                        ok = False
                        break
                if not ok:
                    break
            _check(checks, f"gram-join(N={n},k={k})", ok)
    return _suite_report("counts", {"bounds": bound, "N_max": nmax}, checks)


def _suite_weingarten_vs_bruteforce(args) -> dict:
    spec = _symmetric_spec(args, "weingarten-vs-bruteforce")
    max_k = args.max_k if args.max_k is not None else 4
    group = OracleGroup.symmetric(spec.N)
    checks = []
    n = spec.N
    for word in colored_words(max_k):
        k = len(word)
        table = group.moment_table(k)
        tuples = list(multi_indices(n, k))
        ok = True
        for fi, row in enumerate(tuples):
            for fj, col in enumerate(tuples):
                if integrate_G(spec, word, row, col) != table.get((fi, fj), 0):
                    ok = False
                    break
            if not ok:
                break
        _check(checks, f"word({word or 'empty'})", ok)
    return _suite_report(
        "weingarten-vs-bruteforce", {"spec": str(spec), "max_k": max_k}, checks
    )


def _suite_moments_vs_orbit(args) -> dict:
    spec = _symmetric_spec(args, "moments-vs-orbit")
    I = IndexSet.parse(_require(args, "I", "--I", "moments-vs-orbit"), spec.N)
    max_k = args.max_k if args.max_k is not None else 4
    group = OracleGroup.symmetric(spec.N)
    checks = []
    for word in colored_words(max_k):
        ok = all(
            integrate_X(spec, I, word, idx) == orbit_moment(group, I, word, idx)
            for idx in multi_indices(spec.N, len(word))
        )
        _check(checks, f"word({word or 'empty'})", ok)
    return _suite_report(
        "moments-vs-orbit", {"spec": str(spec), "I": str(I), "max_k": max_k}, checks
    )


def _suite_dual_moments(args) -> dict:
    dual = parse_oracle(_require(args, "oracle", "--oracle", "dual-moments"))
    if not isinstance(dual, GroupDualData):
        raise DomainError("dual-moments needs a group-dual oracle")
    max_k = args.max_k if args.max_k is not None else 4
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
        ok = True
        vanish = True
        for word in colored_words(max_k):
            for idx in multi_indices(n, len(word)):
                direct = dual_X_moment(dual, I, word, idx)
                matrix = dual_matrix_moment(dual, I, word, idx)
                if direct != matrix:
                    ok = False
                if any(t not in I.members for t in idx) and direct != 0:
                    vanish = False
        _check(checks, f"I({I})", ok)
        _check(checks, f"vanishing-outside-I({I})", vanish)
    return _suite_report(
        "dual-moments", {"oracle": dual.name, "max_k": max_k}, checks
    )


def _suite_projection_laws(args) -> dict:
    spec = CategorySpec.parse(_require(args, "spec", "--spec", "projection-laws"))
    max_k = args.max_k if args.max_k is not None else 3
    checks = []
    seen = {}
    for word in colored_words(max_k):
        P = projection_P(spec, word)
        if id(P) not in seen:
            seen[id(P)] = P * P == P
        _check(checks, f"idempotent({word or 'empty'})", seen[id(P)])
        ok = True
        for part in enumerate_category(spec, word):
            xi = partition_vector(part, spec.N).as_column()
            if P * xi != xi:
                ok = False
                break
        _check(checks, f"fixes-vectors({word or 'empty'})", ok)
    return _suite_report(
        "projection-laws", {"spec": str(spec), "max_k": max_k}, checks
    )


def _suite_ergodicity(args) -> dict:
    spec = CategorySpec.parse(_require(args, "spec", "--spec", "ergodicity"))
    I = IndexSet.parse(_require(args, "I", "--I", "ergodicity"), spec.N)
    max_k = args.max_k if args.max_k is not None else 3
    checks = []
    for word in colored_words(max_k):
        report = ergodicity_check(spec, I, word)
        _check(checks, f"word({word or 'empty'})", report["passed"])
    return _suite_report(
        "ergodicity", {"spec": str(spec), "I": str(I), "max_k": max_k}, checks
    )


def _suite_relations(args) -> dict:
    spec = _symmetric_spec(args, "relations")
    I = IndexSet.parse(_require(args, "I", "--I", "relations"), spec.N)
    max_k = args.max_k if args.max_k is not None else 3
    max_l = args.max_l if args.max_l is not None else 2
    real = OracleRealization(OracleGroup.symmetric(spec.N), I)
    checks = []
    for name, system in (
        ("med", relations_med(spec, I, max_k)),
        ("max", relations_max(spec, I, max_k)),
        ("hom", relations_hom(spec, I, max_k, max_l)),
    ):
        report = verify_relations(system, real)
        _check(checks, f"{name}-form", report["passed"])
    span = med_spans_max(spec, I, max_k)
    _check(checks, "max-rows-in-med-span", span["passed"])
    return _suite_report(
        "relations",
        {"spec": str(spec), "I": str(I), "max_k": max_k, "max_l": max_l},
        checks,
    )


def _suite_frobenius(args) -> dict:
    bound = args.bounds if args.bounds is not None else 4
    samples = args.samples
    rng = random.Random(20260809)
    checks = []
    for n in range(1, 5):
        for k_len in range(bound + 1):
            for l_len in range(bound + 1 - k_len):
                kw, lw = "o" * k_len, "b" * l_len
                ok = True
                for _ in range(samples):
                    entries = [
                        Fraction(rng.randrange(-3, 4)) for _ in range(n ** (k_len + l_len))
                    ]
                    T = ExactMatrix(n**l_len, n**k_len, entries)
                    xi, word = frobenius_to_fix(T, kw, lw, n)
                    if word != lw + conjugate_word(kw):
                        ok = False
                        break
                    if frobenius_to_hom(xi, kw, lw, n) != T:
                        ok = False
                        break
                _check(checks, f"roundtrip(N={n},k={k_len},l={l_len})", ok)
    if args.oracle is not None:
        source = parse_oracle(args.oracle)
        dims_ok = all(
            len(hom_space(source, kw, lw)) == len(fixed_space(source, lw + conjugate_word(kw)))
            for kw, lw in grid_cells(bound)
        )
        _check(checks, "hom-dims-match-fix-dims", dims_ok)
    return _suite_report(
        "frobenius",
        {"bounds": bound, "samples": samples, "oracle": args.oracle},
        checks,
    )


def _suite_saturation(args) -> dict:
    source = parse_oracle(_require(args, "oracle", "--oracle", "saturation"))
    I = IndexSet.parse(_require(args, "I", "--I", "saturation"), source.N)
    if args.bounds is not None:
        bound = args.bounds
    else:
        bound = 3 if isinstance(source, OracleGroup) else 2
    real = OracleRealization(source, I)
    report = saturation_report(real, source, bound)
    checks = []
    _check(checks, "inclusion", all(cell["inclusion"] for cell in report["cells"]))
    _check(checks, "unit-adjoint-frobenius", report["axioms"]["asserted_passed"])
    _check(
        checks,
        "verdict",
        True,
        detail=report["verdict"],
    )
    out = _suite_report(
        "saturation", {"oracle": getattr(source, "name", "?"), "I": str(I), "bounds": bound}, checks
    )
    out["report"] = report
    return out


def _suite_properness(args) -> dict:
    source = parse_oracle(_require(args, "oracle", "--oracle", "properness"))
    if not isinstance(source, GroupDualData):
        raise DomainError("properness needs a group-dual oracle")
    I = IndexSet.parse(_require(args, "I", "--I", "properness"), source.N)
    report = normal_closure_compare(source, I)
    checks = [
        {
            "name": "normal-closure",
            "passed": True,
            "detail": f"orders {report['subgroup_order']}/{report['normal_closure_order']}"
            f" proper={report['proper']}",
        }
    ]
    out = _suite_report("properness", {"oracle": source.name, "I": str(I)}, checks)
    out["report"] = report
    return out


def _suite_report(suite: str, params: dict, checks: list) -> dict:
    return {
        "suite": suite,
        "params": params,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


_SUITE_RUNNERS = {
    "counts": _suite_counts,
    "weingarten-vs-bruteforce": _suite_weingarten_vs_bruteforce,
    "moments-vs-orbit": _suite_moments_vs_orbit,
    "dual-moments": _suite_dual_moments,
    "projection-laws": _suite_projection_laws,
    "ergodicity": _suite_ergodicity,
    "relations": _suite_relations,
    "frobenius": _suite_frobenius,
    "saturation": _suite_saturation,
    "properness": _suite_properness,
}


def cmd_verify(args) -> dict:
    runner = _SUITE_RUNNERS.get(args.suite)
    if runner is None:
        raise ParseError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}"
        )
    for flag in ("max_k", "max_l", "bounds", "samples"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ParseError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
    return runner(args)


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
            rhs = rel["rhs"]
            rhs_text = rhs["q"] if rhs["s"] == 0 else f"{rhs['q']}*{rhs['m']}^(-{rhs['s']}/2)"
            lines.append(
                f"  [{pos}] left={rel['left_word'] or 'empty'}"
                f" right={rel['right_word'] or 'empty'} rhs={rhs_text}"
            )
    elif "q" in payload:
        if payload["s"] == 0:
            exact = payload["q"]
        else:
            exact = f"{payload['q']}*{payload['m']}^(-{payload['s']}/2)"
        lines.append(f"{exact} = {payload['approx']!r}")
    else:
        lines.append(f"{payload['value']} = {payload['approx']!r}")
    return "\n".join(lines) + "\n"


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
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
        if args.command == "integrate-x":
            payload = cmd_integrate_x(args)
        elif args.command == "integrate-g":
            payload = cmd_integrate_g(args)
        elif args.command == "relations":
            payload = cmd_relations(args)
        else:
            payload = cmd_verify(args)
        text = render(payload, args.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a failed self-check or a bug, never a verdict on the input
        print(f"internal-error: {exc}", file=sys.stderr)
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
