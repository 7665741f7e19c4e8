"""Output gates: decide whether one ``spinr`` invocation produced the right stdout.

Every gate is pinned to the output of the commit that added this benchmark
(``pins.json``, written by ``pin.py``).  ``check_spin_one`` ties the pinned
spin-1 matrix to ``golden.spin_one_full_matrix``, an independently written
reference, so the pins do not merely freeze whatever the program printed.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_text(case_labels: list[str], seed: int) -> bytes:
    """The exact text stdout of a passing ``spinr verify`` over these cases."""
    lines = [f"{label.format(seed=seed)}: pass" for label in case_labels]
    return ("\n".join(lines + ["all checks passed"]) + "\n").encode()


def gate(code: int, stdout: bytes, expected: bytes | None, digest: str | None) -> str | None:
    """None when the op passed; otherwise a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    if expected is not None and stdout != expected:
        return "stdout differs from the expected case list"
    if digest is not None and sha256(stdout) != digest:
        return "stdout digest differs from the pinned digest"
    return None


# -- independent check of the spin-1 matrix ---------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|(.))")


def _eval_entry(text: str, z: Fraction) -> Fraction:
    """Evaluate one canonical entry string ("(2 + z)/(...)") at a rational z."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek() -> tuple[str, str, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str, str]:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr() -> Fraction:
        value = term()
        while peek() and peek()[2] in "+-":
            value = value + term() if take()[2] == "+" else value - term()
        return value

    def term() -> Fraction:
        value = unary()
        while peek() and peek()[2] in "*/":
            value = value * unary() if take()[2] == "*" else value / unary()
        return value

    def unary() -> Fraction:
        if peek() and peek()[2] == "-":
            take()
            return -unary()
        base = atom()
        if peek() and peek()[2] == "^":
            take()
            return base ** int(take()[0])
        return base

    def atom() -> Fraction:
        number, name, sym = take()
        if number:
            return Fraction(int(number))
        if name == "z":
            return z
        if sym == "(":
            value = expr()
            if take()[2] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        raise ValueError(f"unexpected token in {text!r}")

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


def _max_z_degree(text: str) -> int:
    powers = [int(e) for e in re.findall(r"z\^(\d+)", text)]
    return max(powers + [1 if "z" in text else 0])


def check_spin_one(stdout: bytes, golden_matrix) -> str | None:
    """Compare ``spinr compute-r -l 2`` JSON with the golden spin-1 matrix.

    Both sides are quotients of polynomials in z with numerator and
    denominator degree at most d, so their cross difference has degree at
    most 2d; agreeing at 2d + 1 points that are poles of neither side proves
    the two rational functions equal.
    """
    entries = json.loads(stdout)["entries"]
    if len(entries) != golden_matrix.rows or any(len(r) != golden_matrix.cols for r in entries):
        return "spin-1 matrix has the wrong shape"
    for i, row in enumerate(entries):
        for j, text in enumerate(row):
            expected = golden_matrix.entries[i][j]
            d = max(_max_z_degree(text), expected.num.degree_in("z"), expected.den.degree_in("z"))
            # z = 1, 2, ... avoids every pole: spin-1 denominators are products of (z + c), c > 0.
            for z in range(1, 2 * d + 2):
                point = Fraction(z)
                try:
                    agree = _eval_entry(text, point) == expected.eval_rational({"z": point})
                except (ValueError, ZeroDivisionError):
                    agree = False
                if not agree:
                    return f"spin-1 entry ({i}, {j}) differs from golden at z = {z}"
    return None
