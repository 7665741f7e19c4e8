"""Command-line behavior: formats, exit codes, determinism."""

import json

import pytest

from spinr import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fixed-points and dims
# ---------------------------------------------------------------------------


def test_fixed_points_json(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "2", "-n", "2", "-l", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "spinr.fixed-points/1"
    assert doc["points"] == [[2, 0], [1, 1], [0, 2]]


def test_fixed_points_empty_beyond_range(capsys):
    code, out, _ = run(capsys, "fixed-points", "-k", "9", "-n", "2", "-l", "2")
    assert code == 0
    assert json.loads(out)["points"] == []


def test_fixed_points_usage_error(capsys):
    code, _, err = run(capsys, "fixed-points", "-k", "-1", "-n", "2", "-l", "2")
    assert code == 2
    assert "error" in err


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "-n", "2", "-l", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["dim_variety"] for r in rows] == [0, 2, 4, 2, 0]
    assert [r["weight_space"] for r in rows] == [1, 2, 3, 2, 1]


def test_dims_symmetric_profile(capsys):
    code, out, _ = run(capsys, "dims", "-n", "2", "-l", "3")
    assert [r["dim_variety"] for r in json.loads(out)["rows"]] == [0, 2, 4, 6, 4, 2, 0]


def test_dims_single_site(capsys):
    code, out, _ = run(capsys, "dims", "-n", "1", "-l", "1")
    assert [r["dim_variety"] for r in json.loads(out)["rows"]] == [0, 0]


def test_dims_rejects_nonpositive_parameters(capsys):
    for n, ell in (("-1", "2"), ("2", "-1"), ("0", "2"), ("2", "0")):
        code, out, err = run(capsys, "dims", "-n", n, "-l", ell)
        assert code == 2 and out == ""
        assert "error" in err


# ---------------------------------------------------------------------------
# compute commands
# ---------------------------------------------------------------------------


def test_compute_r_json_spin_half(capsys):
    code, out, _ = run(capsys, "compute-r", "-l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "spinr.r-matrix/1"
    assert doc["basis_order"] == "lex(a,b)"
    assert doc["entries"][1][1] == "1/(1 + z)"
    assert doc["entries"][1][2] == "-z/(1 + z)"


def test_compute_r_identity_at_zero_csv(capsys):
    code, out, _ = run(capsys, "compute-r", "-l", "2", "--at-z", "0", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            assert cell == ("1" if i == j else "0")


def test_compute_r_at_z_rejects_latex(capsys):
    code, out, err = run(capsys, "compute-r", "-l", "1", "--at-z", "0", "--format", "latex")
    assert code == 2 and out == ""
    assert "latex" in err


def test_compute_r_rejects_decimal(capsys):
    code, _, err = run(capsys, "compute-r", "-l", "1", "--at-z", "0.5")
    assert code == 2
    assert "rational" in err


def test_compute_r_rejects_bad_spin(capsys):
    assert run(capsys, "compute-r", "-l", "0")[0] == 2


def test_compute_r_pole_hit_is_reported(capsys):
    code, _, err = run(capsys, "compute-r", "-l", "1", "--at-z", "-1")
    assert code == 1
    assert "pole" in err


def test_compute_r_block_rejects_at_z(capsys):
    code, out, err = run(
        capsys, "compute-r", "-l", "1", "--block", "1", "--at-z", "0", "--format", "csv"
    )
    assert code == 2 and out == ""
    assert "--at-z" in err


def test_export_block_rejects_at_z(capsys):
    code, out, err = run(capsys, "export", "--kind", "block", "-k", "1", "--at-z", "0")
    assert code == 2 and out == ""
    assert "--at-z" in err


def test_compute_r_block_latex(capsys):
    code, out, _ = run(capsys, "compute-r", "-l", "1", "--block", "1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}")
    assert "\\varepsilon" in out


def test_compute_s_json(capsys):
    code, out, _ = run(capsys, "compute-s", "-k", "1")
    doc = json.loads(out)
    assert doc["schema"] == "spinr.s-matrix/1"
    assert doc["entries"] == [["1/(eps + z)", "-eps/(z*eps + z^2)"], ["0", "1/z"]]


def test_compute_s_inverse(capsys):
    code, out, _ = run(capsys, "compute-s", "-k", "1", "--inverse")
    doc = json.loads(out)
    assert doc["schema"] == "spinr.s-inverse/1"
    assert doc["entries"] == [["eps + z", "eps"], ["0", "z"]]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inverse", "-k", "3", "--format", "text")
    assert code == 0
    assert "inverse(k=3): pass" in out
    assert out.strip().endswith("all checks passed")


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "golden", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "spinr.verify/1"
    assert doc["all_passed"] is True
    assert {r["status"] for r in doc["results"]} == {"pass"}


def test_verify_quiet(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "golden", "--quiet", "--format", "text")
    assert code == 0
    assert out.strip() == "all checks passed"


def test_verify_rejects_bad_spin(capsys):
    assert run(capsys, "verify", "--suite", "all", "-l", "0")[0] == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force one failing case to pin the exit-code contract
    def fake_case(case):
        return {"check": case[0], "params": dict(case[1]), "status": "fail", "witness": {"x": 1}}

    monkeypatch.setattr(cli, "_run_case", fake_case)
    code, out, err = run(capsys, "verify", "--suite", "inverse", "-k", "0", "--format", "text")
    assert code == 1
    assert "FAILURES" in out
    assert "first failure" in err


def test_verify_deterministic_output(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run(
            capsys,
            "verify", "--suite", "golden", "--format", "json", "--output", str(path),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_jobs_parallel_same_bytes(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    run(capsys, "verify", "--suite", "linrel", "--format", "json", "--output", str(serial))
    run(
        capsys,
        "verify", "--suite", "linrel", "--format", "json",
        "--jobs", "2", "--output", str(parallel),
    )
    assert serial.read_bytes() == parallel.read_bytes()


def test_worker_count_is_bounded(monkeypatch):
    # computed directly: a pool of the requested size is never started
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.worker_count(10000, 47) == 2
    assert cli.worker_count(10000, 1) == 1
    assert cli.worker_count(1, 47) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli.worker_count(10**9, 3) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.worker_count(10000, 47) == 1


def test_verify_seeded_ybe(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "ybe", "-l", "1", "--trials", "3", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    params = json.loads(out)["results"][0]["params"]
    assert params == {"ell": 1, "trials": 3, "seed": 7}


# ---------------------------------------------------------------------------
# export and i/o
# ---------------------------------------------------------------------------


def test_export_routes_to_s_matrix(capsys):
    code, out, _ = run(capsys, "export", "--kind", "s", "-k", "1")
    assert code == 0
    assert json.loads(out)["schema"] == "spinr.s-matrix/1"


def test_export_fixed_points_requires_params(capsys):
    assert run(capsys, "export", "--kind", "fixed-points", "-k", "1")[0] == 2


def test_export_dims_rejects_latex(capsys):
    code, out, err = run(
        capsys, "export", "--kind", "dims", "-n", "2", "-l", "2", "--format", "latex"
    )
    assert code == 2 and out == ""
    assert "latex" in err


def test_export_fixed_points_rejects_csv(capsys):
    code, out, err = run(
        capsys,
        "export", "--kind", "fixed-points", "-k", "2", "-n", "2", "-l", "2", "--format", "csv",
    )
    assert code == 2 and out == ""
    assert "csv" in err


def test_export_s_matrix_csv(capsys):
    code, out, _ = run(capsys, "export", "--kind", "s", "-k", "1", "--format", "csv")
    assert code == 0
    assert out == "1/(eps + z),-eps/(z*eps + z^2)\n0,1/z\n"


def test_output_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "r.json"
    code, out, _ = run(capsys, "compute-r", "-l", "1", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ell"] == 1


def test_io_error_exit_code(capsys):
    code, _, err = run(
        capsys, "compute-r", "-l", "1", "--output", "/nonexistent-dir/out.json"
    )
    assert code == 3
    assert "i/o error" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_unknown_command_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


OUT_OF_RANGE = [
    ("compute-r", "-l", "13"),
    ("compute-r", "-l", "1", "--block", "25"),
    ("compute-s", "-k", "25"),
    ("verify", "--suite", "all", "-l", "13"),
    ("verify", "--suite", "inverse", "-k", "25"),
    ("verify", "--suite", "ybe", "-l", "1", "--trials", "10001"),
    ("verify", "--suite", "ybe", "-l", "1", "--trials", "100000000"),
    ("export", "--kind", "r", "-l", "13"),
    ("export", "--kind", "block", "-k", "25"),
    ("export", "--kind", "s", "-k", "25"),
    ("export", "--kind", "sinv", "-k", "25"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_size_parameters_have_upper_bounds(capsys, monkeypatch, argv):
    def no_work(cfg, args):
        raise AssertionError("a command started despite an out-of-range parameter")

    monkeypatch.setattr(cli, "_dispatch", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "at most" in err


def test_upper_bounds_admit_their_limits():
    parser = cli.build_parser()
    for argv in (
        ["compute-r", "-l", "12", "--block", "24"],
        ["compute-s", "-k", "24"],
        ["verify", "-l", "12", "-k", "24", "--trials", "10000"],
        ["export", "--kind", "r", "-l", "12"],
        ["export", "--kind", "block", "-k", "24"],
    ):
        cli._config_from_args(parser.parse_args(argv))
