"""The cumulative stats contract, written once.

Every stats dataclass in the library follows one accounting rule:
counters only grow as work happens, :meth:`CumulativeStats.snapshot`
takes an independent copy, :meth:`~CumulativeStats.delta` diffs against
an earlier snapshot, and :meth:`~CumulativeStats.reset` zeroes the
counters while returning the values cleared.  Nothing resets a stats
object behind its owner's back.

A stats type is a ``@dataclass`` of numeric counters that subclasses
:class:`CumulativeStats`.  A field holding another
:class:`CumulativeStats` (``SessionStats.wire``) is copied, diffed and
reset recursively, and reset *in place*, so references to it stay live.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, TypeVar

_S = TypeVar("_S", bound="CumulativeStats")


class CumulativeStats:
    """``snapshot``/``delta``/``reset``/``as_dict`` over ``fields()``."""

    def snapshot(self: _S) -> _S:
        """An independent copy of the current totals."""
        return type(self)(
            **{
                f.name: _nested_or(getattr(self, f.name), "snapshot")
                for f in fields(self)
            }
        )

    def delta(self: _S, since: _S) -> _S:
        """Counts accumulated after ``since`` (an earlier snapshot)."""
        values = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(since, f.name)
            if isinstance(now, CumulativeStats):
                values[f.name] = now.delta(then)
            else:
                values[f.name] = now - then
        return type(self)(**values)

    def reset(self: _S) -> _S:
        """Zero the counters; returns a snapshot of the values cleared."""
        cleared = self.snapshot()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CumulativeStats):
                value.reset()
            else:
                setattr(self, f.name, f.default)
        return cleared

    def as_dict(self) -> dict[str, Any]:
        return {
            f.name: _nested_or(getattr(self, f.name), "as_dict")
            for f in fields(self)
        }


def _nested_or(value: Any, method: str) -> Any:
    """``value.<method>()`` for nested stats, else the plain counter."""
    if isinstance(value, CumulativeStats):
        return getattr(value, method)()
    return value
