"""Verification reports: one named check, its parameters, and any witnesses."""

from __future__ import annotations


class Report:
    """Outcome of one verification; failures carry enough data to reproduce."""

    def __init__(self, check: str, params: dict[str, object]) -> None:
        self.check, self.params = check, params
        self.failures: list[dict[str, object]] = []
        self.details: dict[str, object] = {}

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, **witness: object) -> None:
        self.failures.append(witness)

    def to_json(self) -> dict:
        out: dict[str, object] = {
            "check": self.check,
            "params": self.params,
            "status": "pass" if self.passed else "fail",
        }
        if self.failures:
            out["witness"] = self.failures[0]
            out["failures"] = self.failures
        if self.details:
            out["details"] = self.details
        return out

    def summary(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.check}({args}): {tag}"
        if not self.passed:
            line += f"  witness: {self.failures[0]}"
        return line
