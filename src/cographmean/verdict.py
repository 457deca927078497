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
    _defaults = {"witness": None, "log": ()}

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        return self._asdict() | {"log": list(self.log)}
