"""Pass/fail bookkeeping for axiom and identity verification."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: object = None

    def as_dict(self):
        d = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    """Ordered list of named checks; ``ok`` iff every check passed."""

    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, witness=None):
        self.checks.append(Check(name, bool(ok), witness))
        return ok

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.witness))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def as_dict(self):
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}
