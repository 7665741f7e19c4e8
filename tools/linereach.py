"""List the lines of ``src/spinr`` functions that no Tier-1 test executes.

Usage: python3 tools/linereach.py

Runs the Tier-1 suite (``pytest tests``) in this process under a
``sys.settrace`` line tracer, and counts every line of every non-module code
object in ``src/spinr`` (functions, methods, lambdas, comprehensions and
class bodies), less blank, comment, docstring and decorator lines.  A line
is reached when the tracer sees a line event or a call event on it.  Each
unreached line is printed as ``file:function: source text``, then the count.

Hypothesis runs derandomized, without its example database and without its
explain phase (which installs a tracer of its own), so two runs of the same
tree print the same lines.  A traced run takes 80-100 s on a 2-vCPU host
with Python 3.11.
The exit code is pytest's, so a count from a failing run is never mistaken
for a clean one.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinr"


def _code_objects(code: types.CodeType) -> list[types.CodeType]:
    """code and every code object nested in its constants, outermost first."""
    out = [code]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out += _code_objects(const)
    return out


def _skipped_lines(tree: ast.Module) -> set[int]:
    """The docstring and decorator lines of a parsed module."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                skipped.update(range(decorator.lineno, decorator.end_lineno + 1))
    return skipped


def countable_lines() -> dict[tuple[str, int], str]:
    """(file, line) -> the qualified name of the function it lies in, for every counted line."""
    out: dict[tuple[str, int], str] = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        skipped = _skipped_lines(ast.parse(text))
        module = compile(text, str(path), "exec")
        for code in _code_objects(module)[1:]:
            name = getattr(code, "co_qualname", code.co_name)
            for _, _, line in code.co_lines():
                if line is None or line in skipped:
                    continue
                source = lines[line - 1].strip()
                if not source or source.startswith("#"):
                    continue
                # a comprehension or lambda line keeps the name of its function
                if (str(path), line) not in out or not code.co_name.startswith("<"):
                    out[str(path), line] = name
    return out


class _HypothesisProfile:
    """A pytest plugin that makes Hypothesis repeatable and leaves the tracer alone."""

    @staticmethod
    def pytest_configure(config: object) -> None:
        import hypothesis

        hypothesis.settings.register_profile(
            "linereach",
            derandomize=True,
            database=None,
            phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.explain],
        )
        hypothesis.settings.load_profile("linereach")


def traced_run() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs of src/spinr that ran."""
    import pytest

    prefix = str(SRC) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame: types.FrameType, event: str, arg: object):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame: types.FrameType, event: str, arg: object):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    args, plugins = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], [_HypothesisProfile()]
    sys.settrace(global_trace)
    try:
        status = pytest.main(args, plugins=plugins)
    finally:
        sys.settrace(None)
    return int(status), reached


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    status, reached = traced_run()
    counted = countable_lines()
    unreached = sorted(set(counted) - reached)
    for path, line in unreached:
        source = Path(path).read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{Path(path).relative_to(ROOT)}:{counted[path, line]}: {source}")
    print(f"{len(unreached)} of {len(counted)} lines unreached")
    return status


if __name__ == "__main__":
    sys.exit(main())
