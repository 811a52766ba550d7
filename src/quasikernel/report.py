"""Check results: what every command reports, one result per check."""

from __future__ import annotations

from .kernel import Record, set_field


class CheckResult(Record):
    __slots__ = __match_args__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):  # status: pass | fail | skip
        set_field(self, "name", name)
        set_field(self, "status", status)
        set_field(self, "detail", detail)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", detail)
