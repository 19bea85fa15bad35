"""Structured pass/fail reports shared by all verification entry points."""

from __future__ import annotations

import json
import time


class Check:
    __slots__ = ("claim_id", "anchor", "ok", "witness", "elapsed_ms")

    def __init__(self, claim_id, anchor, ok, witness=None, elapsed_ms=None):
        self.claim_id = claim_id
        self.anchor = anchor
        self.ok = bool(ok)
        self.witness = witness
        self.elapsed_ms = elapsed_ms

    def as_dict(self, include_timings=False):
        return {
            "claim_id": self.claim_id,
            "paper_anchor": self.anchor,
            "status": "pass" if self.ok else "fail",
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms if include_timings else None,
        }

    def __repr__(self):
        state = "pass" if self.ok else f"FAIL witness={self.witness!r}"
        return f"<Check {self.claim_id}: {state}>"


class VerificationReport:
    """An ordered list of checks plus the configuration that produced them.

    A check's elapsed_ms is the time since the report's previous check, or
    since the report was made or last extended: the work that decided it.
    """

    def __init__(self, config=None):
        self.config = dict(config or {})
        self.checks: list[Check] = []
        self._since = time.perf_counter()

    def add(self, claim_id, anchor, ok, witness=None):
        now = time.perf_counter()
        self.checks.append(Check(claim_id, anchor, ok, witness,
                                 round((now - self._since) * 1000, 3)))
        self._since = now
        return ok

    def add_failures(self, claim_id, anchor, bad, plan=None):
        """A claim that passes when bad, its list of failures, is empty.
        The witness shows the first 5 failures as "elements" when they are
        basis labels, else the first 3 as "examples", with "failing", their
        count, and for a claim checked on a plan, "checked", its size."""
        witness = None
        if bad:
            witness = ({"elements": bad[:5]} if isinstance(bad[0], str)
                       else {"examples": bad[:3]})
            witness["failing"] = len(bad)
            if plan is not None:
                witness["checked"] = len(plan)
        return self.add(claim_id, anchor, not bad, witness)

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)
        self._since = time.perf_counter()
        return self

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> dict:
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in self.checks if c.ok),
            "failed": sum(1 for c in self.checks if not c.ok),
        }

    def as_dict(self, include_timings=False):
        return {
            "config": self.config,
            "claims": [c.as_dict(include_timings) for c in self.checks],
            "summary": self.summary(),
        }

    def as_text(self) -> str:
        lines = [f"PASS {c.claim_id}" if c.ok else
                 f"FAIL {c.claim_id} :: "
                 f"{json.dumps(c.witness, sort_keys=True, default=str)}"
                 for c in self.checks]
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines)

    def __repr__(self):
        s = self.summary()
        return f"<VerificationReport {s['passed']}/{s['total']} passed>"
