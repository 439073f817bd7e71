import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import qhs
from qhs.cli import json_text, main
from qhs.exact import ExactMatrix, ScaledScalar, parse_fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_JSON_STRINGS = st.text() | st.sampled_from(['"', "\\", "\x00\n\t\x7f", "é", "\u2028", "\U0001f600"])
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_STRINGS
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-07, 1e16])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_STRINGS, inner, max_size=4)
        | st.lists(st.lists(_JSON_STRINGS, max_size=4), max_size=3)
    ),
    max_leaves=20,
)


@given(_JSON_VALUES, _JSON_VALUES)
def test_json_text_is_json_dumps_with_an_indent(value, content):
    # one dict object at two depths, and twice at one of them, as the
    # max-form rows share theirs; a T row may be empty
    shared = {"T": [["1", "-1/2"], []], "content": content}
    doc = {"value": value, "rows": [shared, shared, {"again": [shared]}], "top": shared}
    for v in (value, doc, [doc, {}, [], ()]):
        assert json_text(v) == json.dumps(v, indent=2)


def test_json_text_refuses_what_it_cannot_write():
    for v in ({1: "a"}, [{"a": {2, 3}}]):
        with pytest.raises(TypeError):
            json_text(v)


def test_integrate_x_example(capsys):
    code, out, _ = run_cli(
        capsys, "integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "o", "--idx", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == "1/2" and payload["s"] == 1 and payload["m"] == 2
    assert payload["approx"] == pytest.approx(2**0.5 / 4)


def test_integrate_x_empty_word(capsys):
    code, out, _ = run_cli(
        capsys, "integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "", "--idx", ""
    )
    assert code == 0
    assert json.loads(out)["q"] == "1"


def test_integrate_g_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrate-g", "--spec", "O(3)", "--word", "oo", "--row", "1,1", "--col", "1,1",
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_relations_med_first_relation(capsys):
    code, out, _ = run_cli(
        capsys, "relations", "--form", "med", "--spec", "S(4)", "--I", "1,2", "--max-k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"], "system must be nonempty"
    first = payload["relations"][0]
    assert first["left_word"] == "o"
    assert [row[0] for row in first["T"]] == ["1", "1", "1", "1"]
    assert first["rhs"] == {"q": "2", "s": 1, "m": 2}


def test_relations_hom_trivial(capsys):
    code, out, _ = run_cli(
        capsys,
        "relations", "--form", "hom", "--spec", "S(4)", "--I", "1,2",
        "--max-k", "0", "--max-l", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["relations"]) == 1
    assert payload["relations"][0]["T"] == [["1"]]


def test_relations_max_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "relations", "--form", "max", "--spec", "O(3)", "--I", "1", "--max-k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    k2_rows = [r for r in payload["relations"] if r["left_word"] == "oo"]
    assert len(k2_rows) == 9


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "weingarten-vs-bruteforce", "--spec", "S(3)", "--max-k", "2",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, _, err = run_cli(capsys, "verify", "--suite", "does-not-exist")
    assert code == 2
    assert err == (
        "error: unknown suite 'does-not-exist'; choose from counts, weingarten-vs-bruteforce,"
        " moments-vs-orbit, dual-moments, projection-laws, ergodicity, relations, frobenius,"
        " saturation, properness\n"
    )

    code, out, err = run_cli(capsys, "verify", "--suite", "ergodicity", "--spec", "S(3)")
    assert (code, out, err) == (2, "", "error: suite 'ergodicity' requires --I\n")
    for suite, flags in (("dual-moments", ()), ("properness", ("--I", "1"))):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--oracle", "SN(3)", *flags)
        assert (code, out, err) == (3, "", f"domain-error: {suite} needs a group-dual oracle\n")


@pytest.mark.parametrize("literal", ["SN(0)", "HN(0)"])
def test_empty_permutation_oracles_exit_2(capsys, literal):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "saturation", "--oracle", literal, "--I", "1", "--bounds", "1"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {literal[:2]} needs n >= 1\n"


def test_verify_saturation_reports_strictly_larger(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "saturation", "--oracle", "dualZ2(2)", "--I", "1", "--bounds", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "strictly-larger"


def test_verify_properness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "properness", "--oracle", "dualS3(12,13,23)", "--I", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["proper"] is True


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "o", "--idx", "7"
    )
    assert code == 3
    assert "domain-error" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "integrate-x", "--spec", "Q(4)", "--I", "1", "--word", "o", "--idx", "1")
    assert code == 2


def test_byte_identical_repeat_invocations(capsys):
    args = ("relations", "--form", "hom", "--spec", "S(3)", "--I", "1,2", "--max-k", "2", "--max-l", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_emitted_rationals_roundtrip(capsys):
    _, out, _ = run_cli(
        capsys, "relations", "--form", "max", "--spec", "S(4)", "--I", "1,2", "--max-k", "1"
    )
    payload = json.loads(out)
    for rel in payload["relations"]:
        for row in rel["T"]:
            for cell in row:
                assert str(parse_fraction(cell)) == cell
        rhs = rel["rhs"]
        assert str(parse_fraction(rhs["q"])) == rhs["q"]


def test_csv_and_pretty_formats(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "o", "--idx", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "q,s,m,approx"
    code, out, _ = run_cli(
        capsys,
        "integrate-g", "--spec", "O(3)", "--word", "oo", "--row", "1,1", "--col", "1,1",
        "--format", "pretty",
    )
    assert code == 0
    assert out.startswith("1/3")


@pytest.mark.parametrize(
    "argv, pretty, csv",
    [
        (
            ("integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "o", "--idx", "1"),
            "1/2*2^(-1/2) = 0.3535533905932738\n",
            "q,s,m,approx\n1/2,1,2,0.3535533905932738\n",
        ),
        (
            ("relations", "--form", "hom", "--spec", "U(2)", "--I", "1", "--max-k", "1",
             "--max-l", "1"),
            "hom-form system for U(2) with I={1}: 2 relations\n"
            "  [0] left=o right=o rhs=1\n  [1] left=b right=b rhs=1\n",
            "index,left_word,right_word,rhs_q,rhs_s,rhs_m,T\n"
            "0,o,o,1,0,1,1 0 0 1\n1,b,b,1,0,1,1 0 0 1\n",
        ),
        (
            ("relations", "--form", "med", "--spec", "S(4)", "--I", "1,2", "--max-k", "1"),
            "med-form system for S(4) with I={1,2}: 1 relations\n"
            "  [0] left=o right=empty rhs=2*2^(-1/2)\n",
            "index,left_word,right_word,rhs_q,rhs_s,rhs_m,T\n0,o,,2,1,2,1 1 1 1\n",
        ),
        (
            ("integrate-g", "--spec", "O(3)", "--word", "oo", "--row", "1,1", "--col", "1,1"),
            "1/3 = 0.3333333333333333\n",
            "value,approx\n1/3,0.3333333333333333\n",
        ),
        (
            ("verify", "--suite", "properness", "--oracle", "dualS3(12,13,23)", "--I", "1"),
            "suite properness: PASS\n  normal-closure: pass  (orders 2/6 proper=True)\n",
            "check,passed,detail\nnormal-closure,1,orders 2/6 proper=True\n",
        ),
    ],
)
def test_pretty_and_csv_text_is_pinned(capsys, argv, pretty, csv):
    # the golden corpus pins --format json only
    assert run_cli(capsys, *argv, "--format", "pretty") == (0, pretty, "")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, csv, "")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("saturation", "--oracle", "SN(6)", "--I", "1,2", "--bounds", "3"), "c0bbadc822d3"),
        (("saturation", "--oracle", "HN(4)", "--I", "1,2", "--bounds", "3"), "33d50ecc7923"),
        (("frobenius", "--oracle", "SN(4)", "--bounds", "4", "--samples", "1"), "1dedbfd84d65"),
        (("frobenius", "--oracle", "dualZ2(4)", "--bounds", "5", "--samples", "1"), "4a1152a1a73b"),
    ],
)
def test_larger_oracle_runs_keep_their_bytes(capsys, argv, prefix):
    # sha256 of the JSON stdout, outside the golden corpus's sizes
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("counts", "--bounds", "4"), "f95f6578cc65"),
        (("weingarten-vs-bruteforce", "--spec", "S(3)", "--max-k", "3"), "0940f32f07b3"),
        (("moments-vs-orbit", "--spec", "S(3)", "--I", "1,2", "--max-k", "3"), "9c48dd3dfeb2"),
        (("dual-moments", "--oracle", "dualS3(12,13,23)", "--max-k", "3"), "40e3a9fbbcdc"),
        (("projection-laws", "--spec", "O+(3)", "--max-k", "3"), "b5ed64974e73"),
        (("ergodicity", "--spec", "U(2)", "--I", "1", "--max-k", "3"), "6b418980b34b"),
        (
            ("relations", "--spec", "S(3)", "--I", "1,2", "--max-k", "2", "--max-l", "1"),
            "2d6510aaad7b",
        ),
        (("frobenius", "--bounds", "3", "--samples", "1", "--oracle", "HN(2)"), "136a03fbe3e9"),
        (
            ("saturation", "--oracle", "dualS3(12,13,23)", "--I", "1", "--bounds", "2"),
            "39e159eab090",
        ),
        (("properness", "--oracle", "dualZ2(3)", "--I", "1,2"), "a4a1d170a63e"),
    ],
)
def test_every_verify_suite_keeps_its_bytes(capsys, argv, prefix):
    # the golden corpus holds no verify run: one small run per suite
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


@functools.cache
def _loaded_after(statement: str) -> frozenset:
    """The qhs, json and random modules a fresh interpreter holds after
    running statement, less those a bare interpreter already holds (a
    site-packages .pth file may preload random)."""
    code = (
        f"import sys\n{statement}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('qhs', 'json', 'random')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    loaded = frozenset(proc.stdout.split())
    return loaded - _loaded_after("") if statement else loaded


def test_modules_import_only_what_they_use():
    # the root re-exports nothing, so a module loads only its own imports
    assert _loaded_after("import qhs") == {"qhs"}
    assert _loaded_after("import qhs.weingarten") == {
        "qhs", "qhs.exact", "qhs.partitions", "qhs.weingarten"
    }
    assert not _loaded_after("import qhs.oracle") & {"qhs.opspaces", "qhs.relations", "qhs.cli"}
    # cli.py imports oracle, opspaces, relations and frobenius per command,
    # and json and random nowhere it starts, so integrating loads nothing
    # past weingarten
    integrating = {"qhs", "qhs.cli", "qhs.exact", "qhs.partitions", "qhs.weingarten"}
    assert _loaded_after("import qhs.cli") == integrating
    quiet = "import io\nsys.stdout = io.StringIO()\n"

    def after(*requests):
        run = "".join(f"assert qhs.cli.main({argv!r}) == 0\n" for argv in requests)
        return _loaded_after(f"import qhs.cli\n{quiet}{run}sys.stdout = sys.__stdout__")

    assert after(
        ["integrate-g", "--spec", "S(3)", "--word", "ob", "--row", "1,2", "--col", "1,2"],
        ["integrate-x", "--spec", "O+(3)", "--I", "1,2", "--word", "oo", "--idx", "1,2"],
    ) == integrating
    # building and printing a system verifies nothing, so no oracle loads
    relations = ["relations", "--form", "max", "--spec", "U(3)", "--I", "3", "--max-k", "2"]
    assert after(relations) == integrating | {"qhs.frobenius", "qhs.relations"}
    # no value type is a dataclass, so no module loads dataclasses
    names = ("cli", "exact", "frobenius", "opspaces", "oracle", "partitions", "relations", "weingarten")
    every = {f"qhs.{name}" for name in names}
    statement = f"import {', '.join(sorted(every))}\nassert 'dataclasses' not in sys.modules"
    assert _loaded_after(statement) == {"qhs", *every}


def test_relations_module_loads_no_operator_spaces():
    # relation systems hold partitions, so neither building nor verifying
    # them reads opspaces, and only verifying reads the oracles
    assert _loaded_after("import qhs.relations") == {
        "qhs", "qhs.exact", "qhs.frobenius", "qhs.partitions", "qhs.relations", "qhs.weingarten",
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        # buffered, a moment fails at the flush and a system already at the write
        ["integrate-g", "--spec", "S(4)", "--word", "o", "--row", "1", "--col", "1"],
        ["relations", "--form", "max", "--spec", "U(3)", "--I", "3", "--max-k", "3"],
    ],
    ids=["integrate-g", "relations"],
)
def test_unwritable_stdout_exits_2(argv, unbuffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qhs", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    # one line: no traceback, and no "Exception ignored" from the final flush
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: No space left on device\n"
    )


def test_output_file_written_atomically(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.json"
    argv = (
        "integrate-g", "--spec", "O(3)", "--word", "oo", "--row", "1,1", "--col", "1,1",
        "--output", str(target),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["value"] == "1/3"

    # a failed rename leaves the old bytes in place and no temporary file
    target.write_bytes(b"old bytes")

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert target.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(
        capsys,
        "integrate-g", "--spec", "S(3)", "--word", "o", "--row", "1", "--col", "1",
        "--output", str(target),
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, content",
    [
        ("missing.json", None),
        ("invalid.json", "[[[1, 0],"),
        ("ragged.json", "[[[1, 0], [0]]]"),
        ("empty.json", "[]"),
    ],
)
def test_bad_gens_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code, _, err = run_cli(
        capsys, "verify", "--suite", "saturation", "--oracle", f"gens({path})", "--I", "1"
    )
    assert code == 2
    assert err.startswith("error: ")


def test_gens_file_of_an_empty_matrix_exits_2(tmp_path, capsys):
    # a 0 x 0 generator used to pass as an N=0 group with no index to check
    path = tmp_path / "empty.json"
    path.write_text("[[]]", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--suite", "frobenius", "--oracle", f"gens({path})",
        "--bounds", "1", "--samples", "0",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "suite_args, flag",
    [
        (("counts",), ("--spec", "S(3)")),
        (("weingarten-vs-bruteforce", "--spec", "S(3)"), ("--I", "1")),
        (("moments-vs-orbit", "--spec", "S(3)", "--I", "1"), ("--oracle", "SN(3)")),
        (("dual-moments", "--oracle", "dualZ2(2)"), ("--bounds", "2")),
        (("projection-laws", "--spec", "S(3)"), ("--samples", "1")),
        (("ergodicity", "--spec", "S(3)", "--I", "1"), ("--max-l", "1")),
        (("relations", "--spec", "S(3)", "--I", "1"), ("--oracle", "HN(3)")),
        (("frobenius", "--bounds", "1"), ("--max-k", "2")),
        (("saturation", "--oracle", "SN(3)", "--I", "1"), ("--spec", "S(3)")),
        (("properness", "--oracle", "dualZ2(3)", "--I", "1"), ("--max-k", "2")),
    ],
)
def test_a_verify_suite_refuses_a_flag_it_does_not_read(capsys, suite_args, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", *suite_args, *flag)
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite_args[0]!r} does not read {flag[0]}\n"


@pytest.mark.parametrize(
    "flag, suite_args",
    [
        ("--max-k", ("--suite", "ergodicity", "--spec", "S(3)", "--I", "1")),
        ("--max-l", ("--suite", "relations", "--spec", "S(3)", "--I", "1")),
        ("--bounds", ("--suite", "counts")),
        ("--samples", ("--suite", "frobenius", "--bounds", "1")),
    ],
)
def test_negative_verify_bounds_exit_2(capsys, flag, suite_args):
    code, out, err = run_cli(capsys, "verify", *suite_args, flag, "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _child_env() -> dict:
    # the child runs the qhs under test, installed or not
    src = os.path.dirname(os.path.dirname(qhs.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", "integrate-g", "--spec", "S(3)",
         "--word", "o", "--row", "1", "--col", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "1/3"


def test_saturation_guard_fires_before_any_space_is_built():
    # bound 8: 3^8 unknowns in one cell; bound 6: at most 3^6 = 729 per cell, but
    # 380,713 summed over the grid, which ran past 100 s before the grid guard
    for bound in ("8", "6"):
        proc = subprocess.run(
            [sys.executable, "-m", "qhs", "verify", "--suite", "saturation", "--oracle", "SN(3)",
             "--I", "1,2", "--bounds", bound],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=5,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource-guard-exceeded:")


def test_dense_guard_fires_before_the_projection_is_built():
    # word 'oo' at N=40 would need a 40^4 = 2.56M-entry projection; point
    # queries at the same N build no dense table and still answer
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", "relations", "--form", "max", "--spec", "S(40)",
         "--I", "1,2", "--max-k", "4"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource-guard-exceeded:")
    assert "DENSE_GUARD" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", "integrate-g", "--spec", "S(40)", "--word", "oooo",
         "--row", "1,2,1,3", "--col", "1,2,1,3"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "1/59280"


def _capped_run(args, cap=1 << 30):
    """python -m qhs args in a child whose address space, alone, is capped."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "qhs", *args],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=limit,
        timeout=20,
    )


@pytest.mark.parametrize(
    "args, code",
    [
        # 7,069,488 and 72,725,940 printed T entries: each longest T is under
        # the guard, their sum is not
        ("--form hom --spec O(4) --I 1,2 --max-k 4 --max-l 4", 3),
        ("--form med --spec O+(3) --I 1,2 --max-k 12", 3),
        ("--form med --spec O+(3) --I 1,2 --max-k 8", 0),  # 95,670 entries
    ],
)
def test_a_printed_system_is_refused_on_its_total_size_under_a_memory_cap(args, code):
    proc = _capped_run(["relations", *args.split()])
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("resource-guard-exceeded: a printed system of ")
        assert not proc.stdout


@pytest.mark.parametrize(
    "spec, max_k, code",
    [
        # 318,877,551 (row, col) pairs, one integrate_G call each: unguarded it
        # ran past 90 s; the words up to length 4 already pass the guard
        ("S(5)", 5, 3),
        ("S(4)", 4, 0),  # README's request: 1,082,401 pairs
    ],
)
def test_the_bruteforce_comparison_is_refused_on_its_pair_count_under_a_memory_cap(
    spec, max_k, code
):
    start = time.monotonic()
    proc = _capped_run(
        ["verify", "--suite", "weingarten-vs-bruteforce", "--spec", spec, "--max-k", str(max_k)]
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("resource-guard-exceeded: the words up to length 4 have ")
        assert "PAIR_GUARD" in proc.stderr and not proc.stdout
        assert elapsed < 1.0, elapsed
    else:
        assert json.loads(proc.stdout)["passed"] is True


@pytest.mark.parametrize(
    "args, code",
    [
        # 16,287,120 and 8,987,760 terms by the words up to lengths 4 and 5:
        # unguarded, each ran past 60 s
        ("moments-vs-orbit --spec S(6) --I 1,2 --max-k 6", 3),
        ("dual-moments --oracle dualZ2(4) --max-k 6", 3),
        # the pinned requests: 1,554 and 10,878 terms
        ("moments-vs-orbit --spec S(3) --I 1,2 --max-k 3", 0),
        ("dual-moments --oracle dualS3(12,13,23) --max-k 3", 0),
    ],
)
def test_the_orbit_and_dual_comparisons_are_refused_on_their_term_count_under_a_memory_cap(
    args, code
):
    start = time.monotonic()
    proc = _capped_run(["verify", "--suite", *args.split()])
    elapsed = time.monotonic() - start
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("resource-guard-exceeded: the words up to length ")
        assert "group element) terms" in proc.stderr and "PAIR_GUARD" in proc.stderr
        assert not proc.stdout
        assert elapsed < 1.0, elapsed
    else:
        assert json.loads(proc.stdout)["passed"] is True


def test_verify_failure_exit_code_is_one(capsys, monkeypatch):
    # a deliberately broken check must exit 1 while still emitting the report
    import qhs.cli as cli_mod

    def broken(args):
        return cli_mod._suite_report("counts", {}, [{"name": "x", "passed": False}])

    monkeypatch.setitem(cli_mod._SUITE_RUNNERS, "counts", (broken, {}))
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_frobenius_suite_counts_the_hom_side_independently(capsys, monkeypatch):
    # one fixed vector dropped: a hom side derived from the fixed vectors
    # would shrink with it, an independent count does not
    import qhs.oracle as oracle_mod

    real = oracle_mod.fixed_space

    def dropped(source, word):
        return real(source, word)[1:]

    monkeypatch.setattr(oracle_mod, "fixed_space", dropped)
    for literal in ("SN(3)", "dualZ2(2)"):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "frobenius", "--oracle", literal, "--bounds", "2"
        )
        assert code == 1
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert checks["hom-dims-match-fix-dims"] is False


def test_internal_error_exits_4_without_traceback(capsys, cold_caches, corrupted_solve):
    # the max-form rows read the solved columns, so they reach the solve check
    code, out, err = run_cli(
        capsys, "relations", "--form", "max", "--spec", "S(3)", "--I", "1", "--max-k", "2"
    )
    assert code == 4
    assert out == ""
    assert err == "internal-error: weingarten solve failed exactness check\n"


def test_a_failed_solve_check_exits_4(capsys, cold_caches, corrupted_solve):
    code, out, err = run_cli(
        capsys, "integrate-g", "--spec", "S(3)", "--word", "oo", "--row", "1,1", "--col", "1,1"
    )
    assert code == 4
    assert out == ""
    assert err == "internal-error: weingarten solve failed exactness check\n"


def test_relations_suite_reports_the_first_witness(capsys, monkeypatch):
    # the med-form rhs doubled: the relation fails at every element, so the
    # witness is element 0 (the identity) with the true lhs beside it
    import qhs.relations as relations_mod
    from qhs.exact import ScaledScalar
    from qhs.relations import Relation, RelationSystem

    real_med = relations_mod.relations_med

    def corrupted(spec, I, max_k):
        system = real_med(spec, I, max_k)
        rel = system.relations[0]
        rhs = ScaledScalar(2 * rel.rhs.q, rel.rhs.s, rel.rhs.m)
        bad = Relation(rel.left_word, rel.right_word, rel.coefficients, rhs)
        return RelationSystem(system.spec, system.I, system.provenance, (bad,) + system.relations[1:])

    monkeypatch.setattr(relations_mod, "relations_med", corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "relations", "--spec", "S(3)", "--I", "1,2", "--max-k", "1"
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["med-form"] == {
        "name": "med-form",
        "passed": False,
        "detail": "relation 0 'o'|'': element 0, lhs_scaled 2, rhs_scaled 4",
    }
    assert checks["max-form"] == {"name": "max-form", "passed": True}


def test_ergodicity_suite_reports_the_first_witness(capsys, monkeypatch, cold_caches):
    # every space moment doubled: the lhs of each first row doubles too
    import qhs.weingarten as weingarten

    real_moment = weingarten._space_moment
    monkeypatch.setattr(weingarten, "_space_moment", lambda *args: 2 * real_moment(*args))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "ergodicity", "--spec", "S(3)", "--I", "1,2", "--max-k", "2"
    )
    assert code == 1
    details = {c["name"]: c.get("detail") for c in json.loads(out)["checks"]}
    assert details["word(empty)"] == "row (): lhs 2, rhs 1"
    assert details["word(o)"] == "row (1): lhs 4/3*2^(-1/2), rhs 2/3*2^(-1/2)"
    assert details["word(ob)"] == "row (1,1): lhs 2/3, rhs 1/3"


def _flip_cell_and_axiom(real):
    def corrupted(*args):
        report = real(*args)
        report["cells"][-1]["inclusion"] = False
        report["axioms"]["adjoint"][1]["passed"] = False
        return report

    return corrupted


@pytest.mark.parametrize(
    "argv, name, corrupt, check, detail",
    [
        (
            ("counts", "--bounds", "2"),
            "partition_vector",
            lambda real: lambda part, n: (
                ExactMatrix(n * n, 1, (0,) + real(part, n).entries[1:])
                if part.block_count == 2
                else real(part, n)
            ),
            "gram-join(N=2,k=2)",
            "at p ((1,2)), q ((1),(2)): expected 2, found 1",
        ),
        (
            ("weingarten-vs-bruteforce", "--spec", "S(3)", "--max-k", "1"),
            "integrate_G",
            lambda real: lambda *args: 2 * real(*args),
            "word(o)",
            "at row (1), col (1): expected 1/3, found 2/3",
        ),
        (
            ("moments-vs-orbit", "--spec", "S(3)", "--I", "1,2", "--max-k", "1"),
            "integrate_X",
            lambda real: lambda *args: 2 * real(*args),
            "word(o)",
            "at idx (1): expected 2/3*2^(-1/2), found 4/3*2^(-1/2)",
        ),
        (
            ("dual-moments", "--oracle", "dualS3(12,13,23)", "--I", "1", "--max-k", "2"),
            "dual_matrix_moment",
            lambda real: lambda dual, I, word, idx: (2 if word else 1) * real(dual, I, word, idx),
            "I(1)",
            "at word 'oo', idx (1,1): expected 1, found 2",
        ),
        (
            ("dual-moments", "--oracle", "dualS3(12,13,23)", "--I", "1", "--max-k", "2"),
            "dual_X_moment",
            lambda real: lambda dual, I, word, idx: ScaledScalar(1, len(word), I.m),
            "vanishing-outside-I(1)",
            "at word 'o', idx (2): expected 0, found 1",
        ),
        (
            ("projection-laws", "--spec", "S(2)", "--max-k", "1"),
            "projection_P",
            lambda real: lambda *args: 2 * real(*args),
            "idempotent(o)",
            "at entry (1,1): expected 1, found 2",
        ),
        (
            ("projection-laws", "--spec", "S(2)", "--max-k", "1"),
            "projection_P",
            lambda real: lambda *args: 2 * real(*args),
            "fixes-vectors(o)",
            "at p ((1)), entry (1,1): expected 1, found 2",
        ),
        (
            ("frobenius", "--bounds", "1", "--samples", "1"),
            "frobenius_to_hom",
            lambda real: lambda *args: 2 * real(*args),
            "roundtrip(N=1,k=0,l=0)",
            "at sample 1, entry (1,1): expected -3, found -6",
        ),
        (
            ("frobenius", "--bounds", "1", "--samples", "1"),
            "frobenius_to_fix",
            lambda real: lambda *args: (real(*args)[0], "ob"),
            "roundtrip(N=1,k=0,l=1)",
            "at sample 1: expected 'b', found 'ob'",
        ),
        (
            ("frobenius", "--bounds", "1", "--samples", "0", "--oracle", "SN(3)"),
            "fixed_space",
            lambda real: lambda source, word: real(source, word)[1:],
            "hom-dims-match-fix-dims",
            "at cell ('',''): expected 1, found 0",
        ),
        (
            ("saturation", "--oracle", "SN(3)", "--I", "1,2", "--bounds", "1"),
            "saturation_report",
            _flip_cell_and_axiom,
            "inclusion",
            "at cell ('o',''): expected True, found False",
        ),
        (
            ("saturation", "--oracle", "SN(3)", "--I", "1,2", "--bounds", "1"),
            "saturation_report",
            _flip_cell_and_axiom,
            "unit-adjoint-frobenius",
            "at adjoint ('','b'): expected True, found False",
        ),
        (
            ("counts", "--bounds", "4"),
            "category_size",
            lambda real: lambda spec, word: real(spec, word) + (spec.family == "O"),
            "pairings(4)",
            "expected 4, found 3",
        ),
    ],
)
def test_every_comparing_check_reports_its_first_witness(
    capsys, monkeypatch, argv, name, corrupt, check, detail
):
    # one name corrupted where cli.py reads it: at module level, or in the
    # owning module of a per-command import.  The check names its first
    # mismatch, indices 1-based, and a passing check still carries no detail
    import qhs.cli as cli_mod
    import qhs.frobenius
    import qhs.opspaces
    import qhs.oracle

    owner = next(m for m in (cli_mod, qhs.oracle, qhs.frobenius, qhs.opspaces) if name in vars(m))
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks[check] == {"name": check, "passed": False, "detail": detail}
    assert all("detail" not in c for c in checks.values() if c["passed"] and c["name"] != "verdict")


def test_internal_error_without_a_message_names_its_type(capsys, monkeypatch):
    # a MemoryError() has an empty message; stderr names the type instead
    import qhs.cli as cli_mod

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli_mod, "integrate_G", exhausted)
    code, out, err = run_cli(
        capsys, "integrate-g", "--spec", "S(3)", "--word", "o", "--row", "1", "--col", "1"
    )
    assert (code, out, err) == (4, "", "internal-error: MemoryError\n")


def test_frobenius_sample_guard_fires_before_any_sample_is_built():
    # bound 11: a 4^11-entry sample matrix at N=4, past DENSE_GUARD = 4^10;
    # unguarded it ran past 60 s at 1.4 GB
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", "verify", "--suite", "frobenius", "--bounds", "11",
         "--samples", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=5,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource-guard-exceeded:")
    assert "DENSE_GUARD" in proc.stderr


def _moment_at_ones(spec: str, k: int) -> tuple:
    ones = ",".join("1" * k)
    return ("integrate-g", "--spec", spec, "--word", "o" * k, "--row", ones, "--col", ones)


@pytest.mark.parametrize(
    "argv, what",
    [
        # Bell(8) = 4140 and Bell(9) = 21147 candidates in S, Catalan(8) = 1430 in S+;
        # unguarded, these ran for minutes or exited 4 on MemoryError
        (_moment_at_ones("S(4)", 8), "the Gram matrix of 4140 candidate partitions"),
        (_moment_at_ones("S(4)", 9), "the Gram matrix of 21147 candidate partitions"),
        (_moment_at_ones("S+(4)", 8), "the Gram matrix of 1430 candidate partitions"),
        (("verify", "--suite", "counts", "--bounds", "8"), "the gram-join table at k = 8"),
    ],
)
def test_gram_guard_fires_before_the_basis_is_built(argv, what):
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=5,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"resource-guard-exceeded: {what} has ")
    assert "DENSE_GUARD" in proc.stderr


@pytest.mark.parametrize(
    "argv, err",
    [
        (("integrate-x", "--spec", "S(4)", "--I", "1", "--word", "o", "--idx", "0"),
         "domain-error: --idx entries must lie in 1..4, got '0'\n"),
        (("integrate-g", "--spec", "O(3)", "--word", "oo", "--row", "1,4", "--col", "1,1"),
         "domain-error: --row entries must lie in 1..3, got '1,4'\n"),
        (("integrate-g", "--spec", "O(3)", "--word", "o", "--row", "3", "--col", "-1"),
         "domain-error: --col entries must lie in 1..3, got '-1'\n"),
    ],
)
def test_index_flags_are_checked_one_based(capsys, argv, err):
    code, out, found = run_cli(capsys, *argv)
    assert (code, out, found) == (3, "", err)


def test_bad_oracle_literal_names_every_accepted_form(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "properness", "--oracle", "dualZ3(2)", "--I", "1")
    assert code == 2
    assert err == (
        "error: bad oracle literal 'dualZ3(2)'; expected SN(n), HN(n), gens(file),"
        " dualZ2(n) or dualS3(ab,ac,bc)\n"
    )


def test_symmetric_suite_names_its_oracle(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "relations", "--spec", "O(3)", "--I", "1")
    assert code == 3
    assert err == "domain-error: suite 'relations' checks against SN(n), so it needs S(n), not O(3)\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("integrate-g", "--spec", "S(3)", "--word", "oo", "--row", "1,,1", "--col", "1,1"),
         "error: --row has an empty entry: '1,,1'\n"),
        (("integrate-g", "--spec", "S(3)", "--word", "o", "--row", "1", "--col", "1,"),
         "error: --col has an empty entry: '1,'\n"),
        (("integrate-x", "--spec", "S(4)", "--I", "1,2", "--word", "oo", "--idx", ",1"),
         "error: --idx has an empty entry: ',1'\n"),
        (("integrate-x", "--spec", "S(4)", "--I", "1,,2", "--word", "o", "--idx", "1"),
         "error: bad index set '1,,2'\n"),
        (("verify", "--suite", "properness", "--oracle", "dualS3(12,,13,23)", "--I", "1"),
         "error: bad dualS3 literal 'dualS3(12,,13,23)'; expected dualS3(12,13,23)\n"),
    ],
)
def test_empty_comma_entries_exit_2(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv, literal",
    [
        (("integrate-x", "--spec", "S(4)", "--I", "1,1", "--word", "o", "--idx", "1"), "1,1"),
        (("relations", "--form", "med", "--spec", "S(3)", "--I", "2,1,2", "--max-k", "2"), "2,1,2"),
        (("verify", "--suite", "saturation", "--oracle", "SN(3)", "--I", "1,01"), "1,01"),
    ],
)
def test_repeated_index_set_member_exits_2(capsys, argv, literal):
    # merging the repeat would change m, and with it every scaled output
    assert run_cli(capsys, *argv) == (2, "", f"error: index set {literal!r} repeats a member\n")


def test_empty_word_takes_the_empty_index(capsys):
    code, out, _ = run_cli(
        capsys, "integrate-g", "--spec", "S(3)", "--word", "", "--row", "", "--col", " "
    )
    assert (code, json.loads(out)["value"]) == (0, "1")
