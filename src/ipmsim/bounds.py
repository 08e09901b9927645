"""Single-field bounds, declared once in dataclass field metadata.

A bounded field states its bound where it is declared, for example
``mu: float = field(default=0.6, metadata={"gt": 0, "lt": 1})``, with the
keys ``gt`` (>), ``ge`` (>=), ``lt`` (<) and ``le`` (<=).  ``check_bounds``
reads them and raises a ``BoundError`` naming the first field out of its
bound.  A rule over a whole section raises a ``BoundError`` with no field.
"""

from __future__ import annotations

import dataclasses
import operator

_COMPARISONS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
                "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


class BoundError(ValueError):
    """A value outside its field's bound, or a rule it breaks; ``field`` names the field, if any."""

    def __init__(self, field: str | None, requirement: str):
        super().__init__(f"'{field}' {requirement}" if field else requirement)
        self.field = field
        self.requirement = requirement


def check_bounds(obj) -> None:
    """Raise ``BoundError`` for the first field of ``obj`` outside its declared bound."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for key, bound in f.metadata.items():
            holds, symbol = _COMPARISONS[key]
            if not holds(value, bound):   # NaN fails every bound
                raise BoundError(f.name, f"must be {symbol} {bound}, got {value}")
