"""Pencils of binary forms and their linear combinant sequence.

A pencil is spanned by two linearly independent forms A, B of the same
order d.  Its combinants are the odd transvectants C_{2r-1} = (A, B)_{2r-1}
for r = 1 .. floor((d+1)/2); up to scalar they depend only on span{A, B}.
A `Pencil` keeps the combinants it has computed, each batch of them from
one call of the transvectant kernel, and `combinant_sequence` returns all
of them as a tuple whose entry r-1 is C_{2r-1}.  The module
also provides the Wronskian membership test for the pencil and the
equivalent defect expression built from C1 and C3 alone.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import starmap

from .errors import DegeneratePencilError, DegreeMismatchError
from .forms import BinaryForm, _check_range, random_form
from .transvectant import _transvectants, transvectant


class Pencil:
    """Two linearly independent binary forms of equal order d >= 2.

    Independence is detected via the first combinant: C1 = (A, B)_1 is a
    scalar multiple of the Jacobian and vanishes exactly when A, B are
    dependent.  Every combinant, C1 included, comes from `combinants` and is
    kept once computed, so every weight evaluated on one pencil shares them.
    """

    __slots__ = ("a", "b", "order", "_combinants")

    def __init__(self, a: BinaryForm, b: BinaryForm):
        if a.order != b.order:
            raise DegreeMismatchError(
                f"pencil members must have equal orders, got {a.order} and {b.order}"
            )
        _check_range("pencil order", a.order, 2)
        self.a = a
        self.b = b
        self.order = a.order
        self._combinants = ()
        if self.combinant(1).is_zero():
            raise DegeneratePencilError("the two forms are linearly dependent")

    def max_combinant_index(self) -> int:
        return (self.order + 1) // 2

    def combinants(self, count: int) -> tuple:
        """C_1, C_3, ..., C_{2count-1}; C_{2r-1} = (A, B)_{2r-1} has order 2d - 4r + 2.

        Every combinant is computed once per pencil; a longer list extends
        the kept one, packing A and B once for all the missing orders, and
        replaces it whole so that concurrent callers never see a partial
        list.
        """
        _check_range("count", count, 1, self.max_combinant_index())
        kept = self._combinants
        if len(kept) < count:
            terms = [(0, 1, q) for q in range(2 * len(kept) + 1, 2 * count, 2)]
            kept += tuple(starmap(BinaryForm._raw, _transvectants((self.a, self.b), terms)))
            self._combinants = kept
        return kept[:count]

    def combinant(self, r: int) -> BinaryForm:
        """C_{2r-1} = (A, B)_{2r-1}, of order 2d - 4r + 2."""
        _check_range("r", r, 1, self.max_combinant_index())
        return self.combinants(r)[r - 1]

    def __repr__(self):
        return f"Pencil(order={self.order})"


def combinant_sequence(pencil: Pencil) -> tuple:
    """All combinants C_1, C_3, ..., C_{2*floor((d+1)/2)-1} of the pencil."""
    return pencil.combinants(pencil.max_combinant_index())


def wronskian(pencil: Pencil, form: BinaryForm) -> BinaryForm:
    """Determinant of the 3x3 matrix of second partials of A, B and `form`.

    Vanishes identically exactly when `form` lies in the pencil's span.
    Second partials are raw derivatives; only the vanishing locus matters.
    """
    if form.order != pencil.order:
        raise DegreeMismatchError(
            f"membership test needs a form of order {pencil.order}, got {form.order}"
        )
    rows = []
    for g in (pencil.a, pencil.b, form):
        rows.append((g.diff(1).diff(1), g.diff(1).diff(2), g.diff(2).diff(2)))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def membership_defect(pencil: Pencil, form: BinaryForm) -> BinaryForm:
    """(C1, F)_2 - (d-2)/(4d-6) * F * C3; the zero form iff F is in the pencil.

    The sign makes the expression vanish on members: for F = A at d = 3 one
    gets (C1, A)_2 = A*C3/6 by direct expansion, so the C3 term must be
    subtracted.  Needs d >= 3 so that C3 exists; at d = 2 only the Wronskian
    test applies.
    """
    d = pencil.order
    _check_range("pencil order", d, 3)
    if form.order != d:
        raise DegreeMismatchError(
            f"membership test needs a form of order {d}, got {form.order}"
        )
    c1 = pencil.combinant(1)
    c3 = pencil.combinant(2)
    return transvectant(c1, form, 2) - Fraction(d - 2, 4 * d - 6) * (form * c3)


def random_pencil(order: int, seed: int, coefficient_bound: int = 10) -> Pencil:
    """Deterministic random pencil; retries derived seeds until independent."""
    base = seed * 1_000_003
    attempt = 0
    while True:
        a = random_form(order, base + 2 * attempt, coefficient_bound)
        b = random_form(order, base + 2 * attempt + 1, coefficient_bound)
        try:
            return Pencil(a, b)
        except DegeneratePencilError:
            attempt += 1
