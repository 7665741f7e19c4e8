"""Command-line behavior: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinr import cli, oracle, rmatrix, stablebasis


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


def test_compute_r_at_z_text_is_aligned(capsys):
    argv = ("compute-r", "-l", "2", "--at-z", "1/3")
    _, csv, _ = run(capsys, *argv, "--format", "csv")
    code, text, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and text != csv
    lines = text.splitlines()
    assert len(lines) == 9 and len({len(line) for line in lines}) == 1
    width = max(len(x) for row in csv.splitlines() for x in row.split(","))
    for line, row in zip(lines, csv.splitlines()):
        assert line == "  ".join(x.ljust(width) for x in row.split(","))


def test_compute_r_at_z_rejects_latex(capsys):
    code, out, err = run(capsys, "compute-r", "-l", "1", "--at-z", "0", "--format", "latex")
    assert code == 2 and out == ""
    assert "latex" in err


def test_compute_r_rejects_decimal(capsys):
    code, _, err = run(capsys, "compute-r", "-l", "1", "--at-z", "0.5")
    assert code == 2
    assert "rational" in err


def test_compute_r_rejects_zero_denominator(capsys):
    code, out, err = run(capsys, "compute-r", "-l", "2", "--at-z", "1/0")
    assert code == 2 and out == ""
    assert "'1/0'" in err


def test_compute_r_rejects_an_overlong_rational_without_echoing_it(capsys):
    # beyond the interpreter's int conversion limit (4300 digits by default)
    for value in ("7" * 5000, "1/" + "3" * 5000, "-" + "9" * 4400 + "/7"):
        code, out, err = run(capsys, "compute-r", "-l", "1", "--at-z", value)
        assert code == 2 and out == ""
        assert err.startswith("error: rational of ") and "too long" in err
        assert "7777" not in err and "3333" not in err and "9999" not in err
        assert "set_int_max_str_digits" not in err


def test_at_z_digits_are_bounded_so_that_every_entry_prints(capsys):
    # at the bound, the largest entries at MAX_ELL stay within the default
    # int-to-str limit of 4300 digits; one digit more is a usage error
    top = cli.MAX_AT_Z_DIGITS
    at_bound = "-" + "9" * top + "/" + "9" * (top - 1) + "8"
    argv = ("compute-r", "-l", str(cli.MAX_ELL), "--at-z", at_bound, "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    cells = out.replace("\n", ",").split(",")
    longest = max(len(part) for cell in cells for part in cell.split("/"))
    assert 12 * (top - 1) < longest <= 4300
    over = ("1" + "0" * top, "1/" + "1" * (top + 1), "-" + "7" * (top + 1) + "/3")
    for value in over:
        for route in (("compute-r", "-l", "1"), ("export", "--kind", "r", "-l", "1")):
            code, out, err = run(capsys, *route, "--at-z", value)
            assert code == 2 and out == ""
            assert err == (
                f"error: --at-z must have at most {top} digits in its numerator and denominator\n"
            )


def test_compute_r_rejects_bad_spin(capsys):
    assert run(capsys, "compute-r", "-l", "0")[0] == 2


def test_compute_r_pole_hit_is_reported(capsys):
    # the vanishing factor of D is named as D is written, (z + 1)...(z + ell)
    code, _, err = run(capsys, "compute-r", "-l", "1", "--at-z", "-1")
    assert code == 1
    assert "pole" in err and "(factor (z + 1) of D)" in err
    code, _, err = run(capsys, "compute-r", "-l", "3", "--at-z", "-2")
    assert code == 1 and "(factor (z + 2) of D)" in err


def test_compute_r_takes_a_negative_rational_after_at_z(capsys):
    # argparse reads -1/3 as an option; every spelling, abbreviations of
    # --at-z included, must give the same bytes
    for command in ("compute-r", "export --kind r"):
        joined = run(capsys, *command.split(), "-l", "2", "--at-z=-1/3", "--format", "csv")
        assert joined[0] == 0 and joined[2] == ""
        assert joined[1].splitlines()[1].split(",")[1] == "6/5"
        for option in ("--at-z", "--at-", "--at", "--a"):
            separate = run(capsys, *command.split(), "-l", "2", option, "-1/3", "--format", "csv")
            assert separate == joined, option


def test_compute_r_block_rejects_at_z(capsys):
    code, out, err = run(
        capsys, "compute-r", "--block", "1", "--at-z", "0", "--format", "csv"
    )
    assert code == 2 and out == ""
    assert "--at-z" in err


def test_export_block_rejects_at_z(capsys):
    code, out, err = run(capsys, "export", "--kind", "block", "-k", "1", "--at-z", "0")
    assert code == 2 and out == ""
    assert "--at-z" in err
    # export has no --block flag, so a negative block index is named -k
    code, out, err = run(capsys, "export", "--kind", "block", "-k", "-2")
    assert code == 2 and out == ""
    assert err == "error: -k must be nonnegative\n"


def test_compute_r_block_latex(capsys):
    code, out, _ = run(capsys, "compute-r", "--block", "1", "--format", "latex")
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


def test_verify_unitarity_jobs_parallel_same_bytes(tmp_path, capsys):
    # the premise memos are cleared, so that both runs decide them cold
    stablebasis.inverse_mismatches.cache_clear()
    rmatrix.constructions_mismatches.cache_clear()
    args = ["verify", "--suite", "unitarity", "-k", "5", "--format", "json"]
    parallel = tmp_path / "parallel.json"
    serial = tmp_path / "serial.json"
    assert run(capsys, *args, "--jobs", "2", "--output", str(parallel))[0] == 0
    assert run(capsys, *args, "--jobs", "1", "--output", str(serial))[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_import_leaves_the_process_pool_out():
    # --jobs 1, what every single-case run uses, must not pay for multiprocessing;
    # no run pays for dataclasses either, which loads inspect, ast, dis and tokenize
    src = str(Path(cli.__file__).resolve().parents[1])
    heavy = "{'multiprocessing', 'concurrent.futures.process', 'dataclasses', 'inspect'}"
    probe = f"import sys, spinr.cli; print(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_oracle_suite_forms_the_commutation_brackets_once_per_ell(capsys, monkeypatch):
    # the commutation case and the spectrum's gauge share one verdict per matrix
    calls = []
    action = oracle.sector_action
    monkeypatch.setattr(oracle, "sector_action", lambda ell: calls.append(ell) or action(ell))
    oracle._commutation_witnesses.cache_clear()
    assert run(capsys, "verify", "--suite", "oracle", "-l", "3")[0] == 0
    assert calls == [3]


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


def test_compute_s_takes_every_format_its_export_takes(capsys):
    # compute-s and export --kind s/sinv share one writer, csv included
    for inverse in ((), ("--inverse",)):
        kind = "sinv" if inverse else "s"
        for fmt in ("json", "text", "csv", "latex"):
            direct = run(capsys, "compute-s", "-k", "2", *inverse, "--format", fmt)
            exported = run(capsys, "export", "--kind", kind, "-k", "2", "--format", fmt)
            assert direct[0] == 0 and direct == exported, (kind, fmt)


def test_format_refusals_name_the_route_that_was_typed(capsys):
    at_z = ("-l", "2", "--at-z", "2", "--format", "latex")
    points = ("-k", "2", "-n", "2", "-l", "2", "--format", "csv")
    for argv, route, formats in (
        (("compute-r", *at_z), "compute-r --at-z", "json, text, csv"),
        (("export", "--kind", "r", *at_z), "export --kind r --at-z", "json, text, csv"),
        (("export", "--kind", "fixed-points", *points), "export --kind fixed-points", "json, text"),
    ):
        fmt = argv[-1]
        assert run(capsys, *argv) == (2, "", f"error: {route} has no {fmt} output (formats: {formats})\n")


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
    ("fixed-points", "-k", "25", "-n", "2", "-l", "12"),
    ("fixed-points", "-k", "2", "-n", "7", "-l", "2"),
    ("fixed-points", "-k", "2", "-n", "2", "-l", "13"),
    ("fixed-points", "-k", "2000", "-n", "2000", "-l", "2"),
    ("dims", "-n", "7", "-l", "2"),
    ("dims", "-n", "2", "-l", "13"),
    ("dims", "-n", "2000", "-l", "2000"),
    ("export", "--kind", "fixed-points", "-k", "2", "-n", "7", "-l", "2"),
    ("export", "--kind", "dims", "-n", "2", "-l", "13"),
    ("compute-r", "-l", "13"),
    ("compute-r", "--block", "25"),
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
    def no_work(cfg):
        raise AssertionError("a command started despite an out-of-range parameter")

    monkeypatch.setattr(cli, "_dispatch", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "at most" in err


UNREAD_FLAGS = [
    ("export", "--kind", "s", "-k", "2", "--at-z", "1", "--format", "text"),
    ("export", "--kind", "dims", "-n", "2", "-l", "2", "--at-z", "1"),
    ("export", "--kind", "fixed-points", "-k", "1", "-n", "2", "-l", "1", "--at-z", "1"),
    ("verify", "--suite", "golden", "-l", "5"),
    ("verify", "--suite", "inverse", "-l", "3"),
    ("verify", "--suite", "oracle", "-k", "3"),
    ("verify", "--suite", "ybe", "-k", "4"),
    ("verify", "--suite", "inverse", "-k", "0", "--trials", "5", "--seed", "3"),
    ("verify", "--suite", "inverse", "-k", "0", "--trials", "5"),
    ("verify", "--suite", "constructions", "-k", "0", "--seed", "3"),
    ("verify", "--suite", "unitarity", "-k", "1", "--trials", "2"),
    ("verify", "--suite", "golden", "--seed", "7"),
    ("verify", "--suite", "oracle", "-l", "1", "--trials", "20"),
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_flags_the_route_never_reads_are_usage_errors(capsys, monkeypatch, argv):
    def no_case(case):
        raise AssertionError("a case ran despite a flag its route never reads")

    monkeypatch.setattr(cli, "_run_case", no_case)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "does not read" in err


def test_ybe_sampling_defaults_apply_only_where_read(capsys, monkeypatch):
    # --trials and --seed default to None so an unread one is caught; the
    # suites that sample fill in the YBE defaults themselves
    seen = []

    def record(case):
        seen.append(case)
        return {"check": case[0], "params": dict(case[1]), "status": "pass"}

    monkeypatch.setattr(cli, "_run_case", record)
    assert run(capsys, "verify", "--suite", "ybe", "-l", "1")[0] == 0
    assert seen == [("ybe", {"ell": 1, "trials": cli.YBE_TRIALS, "seed": cli.YBE_SEED})]
    assert (cli.YBE_TRIALS, cli.YBE_SEED) == (20, 7)
    seen.clear()
    assert run(capsys, "verify", "--suite", "all", "--seed", "3")[0] == 0
    assert [c[1] for c in seen if c[0] == "ybe"] == [{"ell": 2, "trials": 20, "seed": 3}]
    seen.clear()
    assert run(capsys, "verify", "--suite", "inverse", "-k", "0")[0] == 0
    assert seen == [("inverse", {"k": 0})]


def test_other_commands_still_accept_seed(capsys):
    # the benchmark passes --seed and --jobs to compute-r, which draws nothing
    for argv in (("compute-r", "-l", "1"), ("compute-r", "--block", "1")):
        code, out, _ = run(capsys, *argv, "--seed", "3", "--jobs", "1")
        assert code == 0 and out, argv


def _refuse_dispatch(monkeypatch):
    def no_work(cfg):
        raise AssertionError("a command started despite a usage error")

    monkeypatch.setattr(cli, "_dispatch", no_work)


BELOW_RANGE = [
    (("verify", "-j", "0"), "--jobs must be at least 1"),
    (("verify", "--suite", "ybe", "-l", "1", "--trials", "0"), "--trials must be at least 1"),
    (("verify", "-l", "0"), "-l must be at least 1"),
    (("verify", "--suite", "inverse", "-k", "-1"), "-k must be nonnegative"),
    (("compute-r", "-l", "0"), "-l must be at least 1"),
    (("compute-r", "--block", "-1"), "--block must be nonnegative"),
    (("dims", "-n", "0", "-l", "2"), "-n must be at least 1"),
    (("dims", "-n", "2", "-l", "-3"), "-l must be at least 1"),
    (("fixed-points", "-k", "1", "-n", "0", "-l", "1"), "-n must be at least 1"),
    (("fixed-points", "-k", "2", "-n", "0", "-l", "2"), "-n must be at least 1"),
    (("fixed-points", "-k", "2", "-n", "2", "-l", "0"), "-l must be at least 1"),
    (("export", "--kind", "dims", "-n", "2", "-l", "0"), "-l must be at least 1"),
]


@pytest.mark.parametrize(
    "argv, message", BELOW_RANGE, ids=[" ".join(argv) for argv, _ in BELOW_RANGE]
)
def test_size_parameters_have_lower_bounds(capsys, monkeypatch, argv, message):
    # one range table decides every integer flag before any command starts
    _refuse_dispatch(monkeypatch)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


COMPUTE_R_ROUTES = [
    (("compute-r", "-l", "2", "--block", "1"), "compute-r --block does not read -l"),
    (("compute-r", "--block", "0", "--at-z", "1/2"), "compute-r --block does not read --at-z"),
    (("compute-r",), "compute-r requires -l"),
    (("compute-r", "--at-z", "2", "--seed", "1"), "compute-r requires -l"),
]


@pytest.mark.parametrize(
    "argv, message", COMPUTE_R_ROUTES, ids=[" ".join(argv) for argv, _ in COMPUTE_R_ROUTES]
)
def test_compute_r_routes_read_and_require_their_flags(capsys, monkeypatch, argv, message):
    def no_build(*args):
        raise AssertionError("compute-r built a matrix despite a usage error")

    monkeypatch.setattr(rmatrix, "assemble_full", no_build)
    monkeypatch.setattr(rmatrix, "rblock_closed", no_build)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_compute_r_block_needs_no_spin(capsys):
    # the block route writes what export --kind block writes, with no -l
    for fmt in ("json", "text", "csv", "latex"):
        direct = run(capsys, "compute-r", "--block", "2", "--format", fmt)
        exported = run(capsys, "export", "--kind", "block", "-k", "2", "--format", fmt)
        assert direct[0] == 0 and direct == exported, fmt


TAKE_NO_SAMPLING_FLAGS = [
    ("fixed-points", "-k", "1", "-n", "2", "-l", "1"),
    ("dims", "-n", "2", "-l", "2"),
    ("compute-s", "-k", "1"),
    ("export", "--kind", "s", "-k", "1"),
    ("export", "--kind", "block", "-k", "1"),
]


@pytest.mark.parametrize("argv", TAKE_NO_SAMPLING_FLAGS, ids=" ".join)
def test_quiet_jobs_and_seed_belong_to_the_commands_that_read_them(capsys, monkeypatch, argv):
    # --quiet is verify's alone; --jobs and --seed are verify's and compute-r's
    _refuse_dispatch(monkeypatch)
    for flag in (("-q",), ("--quiet",), ("-j", "2"), ("--jobs", "1"), ("--seed", "3")):
        code, out, err = run(capsys, *argv, *flag)
        assert code == 2 and out == "", flag
        assert "unrecognized arguments" in err, flag
    for flag in ("-q", "--quiet"):
        code, out, err = run(capsys, "compute-r", "-l", "1", flag)
        assert code == 2 and out == "" and "unrecognized arguments" in err


def test_upper_bounds_admit_their_limits():
    parser = cli.build_parser()
    for argv in (
        ["compute-r", "--block", "24"],
        ["compute-s", "-k", "24"],
        ["verify", "-l", "12", "-k", "24", "--trials", "10000"],
        ["export", "--kind", "r", "-l", "12"],
        ["export", "--kind", "block", "-k", "24"],
        ["fixed-points", "-k", "24", "-n", "6", "-l", "12"],
        ["dims", "-n", "6", "-l", "12"],
        ["export", "--kind", "fixed-points", "-k", "24", "-n", "6", "-l", "12"],
    ):
        cli._config_from_args(parser.parse_args(argv))


# sha256 of stdout for outputs that route through the common-denominator
# form of the assembled matrix: the lowest-terms printer, the evaluator, the
# oracle's commutation check and spectral decomposition on the int
# coefficient matrices, the unitarity suite (the factored block product
# and the per-sector check of the assembled matrix), and the Yang-Baxter
# suite just below and at its grid-proof threshold of (2l)^2 trials
OUTPUT_DIGESTS = {
    "compute-r -l 12": "4d77a5096f9646a7d7d8c1acdabb155834fa1d9e2fcd0edd63e45a2e9df01ed0",
    "compute-r -l 12 --at-z 2/3 --format text": "07f17adb313376d85d99b6f3caaae9e00872b47819f7998d39dc073f8ca2d080",
    "compute-r -l 3 --at-z 1/3": "f4d119dac9937e26a90cf035e307fdf0ffa6875f71f26b78980978edafda5a24",
    "compute-r -l 3 --format latex": "ede97409ab915abee985bfa813cb451b1d91ef42b976b5cba59b8e96056c4ae6",
    "compute-r -l 5 --format text": "899b386545bdd9e836e61eae13fe3a8e42209274463da6f0e9e180674fb9a761",
    "compute-r -l 6 --format latex": "f19c17530f8633026a884d9785b34e3d1fd73822aaa0009125a9c3541bcca366",
    "compute-r -l 8": "9b8ac5af052c8a90d854bbfdf4f72da7b4042b52f6decaa19e9b452c19849a05",
    "compute-r -l 8 --at-z -7/2 --format csv": "69d98e71ac76449b49bf0cf37667b3c2146345051d856e6febfff4bc55aa3424",
    "dims -n 2 -l 3 --format csv": "6ee4ce01de665475aa1cf4b9fd353e1e88ac9b23de621964ab2cab5a7e991869",
    "dims -n 2 -l 3 --format text": "19b26f68f72cbd637fe541d053c1e23ab5b8dce5a51908ed0096e2f5c430cc3d",
    "export --kind block -k 10": "ffc9cbec62bee6c3bd5ff7e504d1885fbbc866146a8f8c15dd2c1275f0f452dd",
    "export --kind s -k 8": "03e971bf55c375545a82a1cd32e5849d8470954810811b656d732771a6f4151e",
    "export --kind sinv -k 8 --format latex": "2f0753dbf78cb6e125a486205f9a26698d809fd1defb581b0d8301c39a881454",
    "fixed-points -k 2 -n 2 -l 2 --format text": "4fd56ea08a9dfc20efb77173d2bf40f8944438e32a33a43d871e15bf8dc993c9",
    "verify --suite golden --format json": "b96de2dc157a7370dae3adbc5b68fcb7452cd3ba0956639c01c81fca11e92752",
    "verify --suite linrel --format json": "f830f56dd11599ffb55bc1e389c0d64f4e4dbce1e6b546365e0b183f59fbb160",
    "verify --suite oracle -l 3 --format json": "318b396f97d9657c52ec622276c6b4f3e6a5d94bf620552d75787290b809945c",
    "verify --suite oracle -l 4 --format json": "8aa5486989f99b5034c15ea8b57b5419ec5111e2e68452c56eb70a56cd7c2d6a",
    "verify --suite oracle -l 5 --format json": "ccb4d40e28d3bb077d2a9ca21c02d73b5582297c7ef42d89fd1092a0656394e7",
    "verify --suite oracle -l 6 --format json": "3060769068c47185ee66e1692bc2afaeaa7c159abe0aaed9f4e7e6c5afb3f834",
    "verify --suite oracle -l 8 --format json": "0ef04b4b925e62b0cc33b03f8ce4c342b1418ef69215858eb92c2df5bd512087",
    "verify --suite oracle -l 10 --format json": "405a9e4a318c134e9985bd712fb91f0c378ba84decf512d6de1d4e67c6a48744",
    "verify --suite oracle -l 12 --format json": "9443180e9ab083a129bd750aefbe7b633a33ea5cf21ea13f8bc868ca4a7107b0",
    "verify --suite unitarity -k 7 --format json": "c3ce45a6d1b4a817cd406d23b1e6663868b50c60930c69bfaf1591523c650b90",
    "verify --suite unitarity -l 4 --format json": "f31513416f04f37fb3272ce1145341390cfcab5bb9173a16711fa2523beec329",
    "verify --suite unitarity -l 6 --format json": "6c4db0c4ad30a4cbc42afeae1eadb47616454e5e0b569e97d07041d4e11d1352",
    "verify --suite unitarity -l 10 --format json": "80f844f14ce04e9918a0c252159cc7c05aeee4745afcb9b935c1f7beac71fe38",
    "verify --suite ybe -l 2 --trials 15 --format json": "3dadbf8487bf5f9c58f3ab5c4108112862ea207299e0d8f17692d0d0feb9b27b",
    "verify --suite ybe -l 2 --trials 16 --format json": "f0494947ca33207b6f0c55d6b5a1611a9cbc33557896791155c2f60194da93a1",
    "verify --suite ybe -l 3 --trials 100 --seed 1 --format json": "d7e0757b65db789dbad8600d413d9119ce3bc88d026786229555cf37d8fb060b",
    "verify --suite ybe -l 4 --trials 3 --format json": "3c7908c39f3e70dce935e736975b2cf409e165d6360ca0052b5495274b72797f",
    "verify --suite ybe -l 4 --trials 64 --seed 3 --format json": "6afd0b79d123c877b173c2d2dbf7a558827e7568feb9e9112d0555f8fa525675",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_output_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTPUT_DIGESTS[command]
