"""How numbers cross the text boundary: quantity parsing and rounding.

A quantity is a decimal number with an optional unit suffix, with or
without a space before it ("5um", "5 um", ".5e-2 mm").  Each dimension
has one table of unit -> SI factor; "scalar" takes no unit.  Every
printed number is rounded to 12 significant digits.
"""

from __future__ import annotations

import re
from math import isfinite

UNITS: dict[str, dict[str, float]] = {
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9},
    "capacitance": {"F": 1.0, "pF": 1e-12, "fF": 1e-15},
    "inductance": {"H": 1.0, "uH": 1e-6, "µH": 1e-6, "nH": 1e-9},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "area": {"m2": 1.0, "mm2": 1e-6, "um2": 1e-12, "µm2": 1e-12},
    "scalar": {},
}

_QUANTITY_GRAMMAR = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([^\s\d]\S*)?")


def parse_quantity(text: str, dimension: str) -> tuple[float, bool]:
    """(SI value, whether a unit was given) of a quantity of dimension.

    Raises ValueError when the text is not a number, its unit is not one
    of the dimension's, or the value is not finite (1e400 overflows).
    """
    m = _QUANTITY_GRAMMAR.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse {dimension} value {text!r}")
    number, unit = m.groups()
    factors = UNITS[dimension]
    if unit is not None and unit not in factors:
        raise ValueError(f"{dimension} has no unit {unit!r}")
    value = float(number) * factors.get(unit, 1.0)
    if not isfinite(value):
        raise ValueError(f"{dimension} value {text!r} is not finite")
    return value, unit is not None


def round12(x: float) -> float:
    """x at the 12 significant digits every report and table prints."""
    return float(f"{x:.12g}")
