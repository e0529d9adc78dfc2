"""How numbers cross the text boundary: quantity parsing and rounding.

A quantity is a decimal number with an optional unit suffix, with or
without a space before it ("5um", "5 um", ".5e-2 mm").  Each dimension
has one table of unit -> SI power of ten; "scalar" takes no unit.  A
quantity parses as the decimal it spells, rounded once: the unit's power
of ten joins the number's exponent, so "10um" is exactly 10e-6 (a float
product rounds twice, to 9.999999999999999e-06).  Every printed number
is rounded to 12 significant digits.
"""

from __future__ import annotations

import re
from math import isfinite

UNITS: dict[str, dict[str, int]] = {
    "length": {"m": 0, "mm": -3, "um": -6, "µm": -6, "nm": -9},
    "capacitance": {"F": 0, "pF": -12, "fF": -15},
    "inductance": {"H": 0, "uH": -6, "µH": -6, "nH": -9},
    "frequency": {"Hz": 0, "kHz": 3, "MHz": 6, "GHz": 9},
    "area": {"m2": 0, "mm2": -6, "um2": -12, "µm2": -12},
    "scalar": {},
}

# an exponent is capped below the 4300 digits that int() converts
_QUANTITY_GRAMMAR = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d{1,4000}))?\s*([^\s\d]\S*)?")


def parse_quantity(text: str, dimension: str) -> tuple[float, bool]:
    """(SI value, whether a unit was given) of a quantity of dimension.

    Raises ValueError when the text is not a number, its unit is not one
    of the dimension's, or the value is not finite (1e400 overflows).
    """
    m = _QUANTITY_GRAMMAR.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse {dimension} value {text!r}")
    mantissa, exponent, unit = m.groups()
    powers = UNITS[dimension]
    if unit is not None and unit not in powers:
        raise ValueError(f"{dimension} has no unit {unit!r}")
    value = float(f"{mantissa}e{int(exponent or 0) + powers.get(unit, 0)}")
    if not isfinite(value):
        raise ValueError(f"{dimension} value {text!r} is not finite")
    return value, unit is not None


def round12(x: float) -> float:
    """x at the 12 significant digits every report and table prints."""
    return float(f"{x:.12g}")
