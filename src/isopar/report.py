"""One base class for every JSON report.

A report is a frozen dataclass.  ``Report.to_dict`` renders its fields, then
``ok`` when the class defines it, then the class-level ``citation`` when set.
Values render by type: a nested report through its own ``to_dict``, a
``ScalarQ3`` as its repr, a ``Fraction`` as "n/d" (an integer too, "-1/1"),
a polynomial as its term count, tuples as lists.  ``report_key`` renames a
field in the output or leaves it out.
"""

from __future__ import annotations

from dataclasses import field, fields
from fractions import Fraction
from typing import ClassVar

from .polyalg import Poly, ScalarQ3


def report_key(key: str | None, **kwargs):
    """A dataclass field rendered under ``key``; ``None`` leaves it out."""
    return field(metadata={"key": key}, **kwargs)


def _render(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, ScalarQ3):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Poly):
        return value.num_terms()
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return value


class Report:
    """Base of the dataclasses that end up in a JSON report."""

    citation: ClassVar[str | None] = None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = f.metadata.get("key", f.name)
            if key is not None:
                out[key] = _render(getattr(self, f.name))
        if hasattr(self, "ok"):
            out["ok"] = self.ok
        if self.citation is not None:
            out["citation"] = self.citation
        return out
