"""What the benchmark harness relies on: traced names resolve, outputs stay pinned.

``perfbench/tracer.py`` patches the functions and methods in its ``TARGETS``
list by name, and ``perfbench/pins.json`` pins what the benchmark gates on:
the sha256 of the ``compute-r`` stdout and the case list of
``verify --suite all``.  Both files are only read here.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from spinr import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("_spinr_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    for name, module, path in _tracer_targets():
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, meth = path.split(".")
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, path, None)), name


@pytest.mark.parametrize("ell", ["2", "4"])
def test_compute_r_stdout_matches_pinned_digest(capsys, ell):
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    assert cli.main(["compute-r", "-l", ell]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == pins[f"compute_r_l{ell}_sha256"]


def test_verify_all_prints_the_pinned_case_list(capsys):
    # the benchmark gates verify-all on this text (perfbench/gates.verify_text)
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    assert cli.main(["verify", "--suite", "all", "--seed", "3"]) == 0
    lines = [f"{label.format(seed=3)}: pass" for label in pins["verify_all_cases"]]
    assert capsys.readouterr().out == "\n".join(lines + ["all checks passed"]) + "\n"
