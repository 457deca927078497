"""Output gate: every operation's output is checked, and every failure counts.

Rules, by ``Op.check``:

* ``verify``: exit code 0, every verdict ``PASS``, and the sha256 of stdout
  equal to the digest recorded in ``expected.json``;
* ``tree``: stdout equals the benchmark's own tree DP answer;
* ``cograph``: stdout equals the answer for the same cograph queried as a
  cotree expression;
* ``recorded``: stdout equals the answer recorded for the pool graph;
* ``setup``: ``mean L`` prints ``1``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import workloads


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    def __init__(self, expected: dict, crosscheck: Callable[[list[str]], bytes | None]):
        self.expected = expected
        self.crosscheck = crosscheck

    def check(self, op: workloads.Op, code: int, out: bytes) -> str | None:
        """Return None if the output is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        rule = op.check
        if rule == "setup":
            return None if out == b"1\n" else f"mean L printed {out[:40]!r}"
        if rule == "verify":
            return self._verify(op, out)
        if rule == "tree":
            return None if out == op.expect.encode() else "differs from tree DP"
        if rule == "recorded":
            want = self.expected["pool"].get(op.expect)
            if want is None:
                return f"no recorded answer for {op.expect}"
            return None if out == want.encode() else "differs from recorded answer"
        if rule == "cograph":
            want = self.crosscheck(op.expect)
            if want is None:
                return "cotree cross-check query failed"
            return None if out == want else "differs from the cotree query"
        raise ValueError(f"unknown rule {rule!r}")

    def _verify(self, op: workloads.Op, out: bytes) -> str | None:
        try:
            payload = json.loads(out)
            suites = payload.get("suites", [payload])
            statuses = [v["status"] for s in suites for v in s["verdicts"]]
        except (ValueError, AttributeError, KeyError, TypeError):
            return "stdout is not a verify report"
        if not statuses or any(st != "PASS" for st in statuses):
            return f"verdicts {statuses}"
        want = self.expected["verify"].get(op.expect)
        if sha256(out) != want:
            return f"stdout digest differs from the one recorded for {op.expect}"
        return None
