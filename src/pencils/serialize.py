"""JSON-friendly dict representations of forms and syzygy tables.

Rationals are serialized as decimal-free strings ("p/q", plain integers
allowed), never floats.  On input an entry is a JSON integer or a string
of the form [-]digits[/digits]; exponents and decimals are refused.  A
table's index keys are read only as `table_to_dict` writes them, "i,j".
"""
from __future__ import annotations

import re
from fractions import Fraction

from .forms import BinaryForm, _shown, to_fraction
from .syzygy import SyzygyTable

_INDEX_KEY = re.compile(r"[1-9][0-9]*,[1-9][0-9]*")


def _read_rational(entry) -> Fraction:
    if isinstance(entry, (int, str)) and not isinstance(entry, bool):
        return to_fraction(entry)
    raise ValueError(f"coefficients must be integers or 'p/q' strings, got {_shown(entry)}")


def form_to_dict(form: BinaryForm) -> dict:
    return {"order": form.order, "coeffs": [str(c) for c in form.coeffs]}


def coeffs_from_dict(obj) -> list[Fraction]:
    """Coefficient list of a form dict, read before any form is built."""
    if not isinstance(obj, dict) or set(obj) != {"order", "coeffs"}:
        raise ValueError("expected an object with exactly 'order' and 'coeffs'")
    order = obj["order"]
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ValueError(f"'order' must be a nonnegative integer, got {_shown(order)}")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise ValueError(f"'coeffs' must be a list of {_shown(order + 1)} entries")
    return [_read_rational(c) for c in coeffs]


def form_from_dict(obj) -> BinaryForm:
    coeffs = coeffs_from_dict(obj)
    return BinaryForm(len(coeffs) - 1, coeffs)


def table_to_dict(table: SyzygyTable) -> dict:
    return {
        "d": table.d,
        "r": table.r,
        "alphas": {f"{i},{j}": str(v) for (i, j), v in table.items()},
    }


def table_from_dict(obj) -> SyzygyTable:
    if not isinstance(obj, dict) or set(obj) != {"d", "r", "alphas"}:
        raise ValueError("expected an object with exactly 'd', 'r' and 'alphas'")
    for name in ("d", "r"):
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"'{name}' must be an integer, got {_shown(value)}")
    if not isinstance(obj["alphas"], dict):
        raise ValueError("'alphas' must be an object")
    entries = {}
    for key, value in obj["alphas"].items():
        if not isinstance(key, str) or not _INDEX_KEY.fullmatch(key):
            raise ValueError(f"alpha keys must read 'i,j' with positive integers, got {_shown(key)}")
        i, j = (int(part) for part in key.split(","))
        entries[(i, j)] = _read_rational(value)
    return SyzygyTable(obj["d"], obj["r"], entries)
