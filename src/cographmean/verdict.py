"""The outcome record that every mechanical check returns.

It has a module of its own so that the extremal claims
(:mod:`cographmean.verify`) and the sweeps (:mod:`cographmean.sweeps`) can
both return it without either importing the other.
"""

from __future__ import annotations

from .graph import Value


class TheoremVerdict(Value):
    """PASS/FAIL outcome of one mechanical check, with a reproducible trail."""

    __slots__ = _fields = ("theorem", "parameter_range", "status", "witness", "log")

    def __init__(
        self, theorem: str, parameter_range: str, status: str,
        witness: dict | None = None, log: tuple[str, ...] = (),
    ):
        self._store(theorem, parameter_range, status, witness, log)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        return self._asdict() | {"log": list(self.log)}
