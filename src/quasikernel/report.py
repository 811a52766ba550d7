"""Check results: what every command reports, one result per check."""

from __future__ import annotations

from .kernel import Record


class CheckResult(Record):
    __slots__ = __match_args__ = ("name", "status", "detail")  # status: pass | fail | skip
    _defaults = {"detail": ""}

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", detail)
