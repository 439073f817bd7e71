import json
import os
import subprocess
import sys

import pytest

import qhs
from qhs.cli import main
from qhs.exact import parse_fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert "unknown suite" in err


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


def test_module_invocation_smoke():
    # the child runs the qhs under test, installed or not
    src = os.path.dirname(os.path.dirname(qhs.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qhs", "integrate-g", "--spec", "S(3)",
         "--word", "o", "--row", "1", "--col", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "1/3"


def test_verify_failure_exit_code_is_one(capsys, monkeypatch):
    # a deliberately broken check must exit 1 while still emitting the report
    import qhs.cli as cli_mod

    def broken(args):
        return cli_mod._suite_report("counts", {}, [{"name": "x", "passed": False}])

    monkeypatch.setitem(cli_mod._SUITE_RUNNERS, "counts", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_internal_error_exits_4_without_traceback(capsys, corrupted_elimination):
    import qhs.weingarten as weingarten_mod

    for cached in (weingarten_mod._gram_data, weingarten_mod._hits, weingarten_mod._weingarten_rows):
        cached.cache_clear()
    code, out, err = run_cli(
        capsys, "integrate-g", "--spec", "S(3)", "--word", "oo", "--row", "1,1", "--col", "1,1"
    )
    assert code == 4
    assert out == ""
    assert err == "internal-error: weingarten inverse failed exactness check\n"
