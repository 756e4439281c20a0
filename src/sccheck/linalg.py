"""Exact rank, determinant and minor machinery for matrices over F(z)(s).

Elimination is fraction-free: each call first scales the matrix once, row by
row, to integer polynomials (times the lcm of the row's entry denominators,
then of the coefficient denominators left), and Bareiss one-step elimination
runs with exact polynomial divisions.  Row scaling multiplies every minor by
a known nonzero s-free factor, so ranks are untouched, and a determinant is
the cleared matrix's determinant over the product of the row scales.

The minor gcd in s needs no determinant exactly, only up to such factors, so
``minors_gcd_in_s`` takes every minor of the cleared matrix, whose entries
have denominator 1: no minor divides a scale back out.  A minor that the
running gcd already divides in F(z)[s] cannot change it, and one
pseudo-division finds that without a gcd.  The enumeration is exponential in
the column count and has no cap of its own; the checker decides whether a
pencil is narrow enough to enumerate.

Pivoting is deterministic: elimination walks columns left to right and picks
the nonzero candidate in the lowest row, so determinant signs and every
downstream certificate are reproducible.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .expr import ExprSource, parse_expr
from .field import (
    ParamSpace,
    Polynomial,
    RationalFunction,
    SpaceMismatchError,
    divides_in_s,
    gcd_in_s,
    poly_divexact,
    poly_lcm,
)

__all__ = [
    "SymMatrix",
    "build_pencil",
    "rank",
    "det",
    "det_cofactor",
    "minors_gcd_in_s",
]


def _as_rf(space: ParamSpace, v) -> RationalFunction:
    if not isinstance(v, RationalFunction):
        raise TypeError(f"matrix entries must be RationalFunctions, got {v!r}")
    if v.space != space:
        raise SpaceMismatchError("entry from a different parameter space")
    return v


class SymMatrix:
    """Dense matrix of rational functions with labelled columns.  Entries
    must be RationalFunctions of the matrix's space: nothing is coerced."""

    __slots__ = ("space", "rows", "cols", "entries", "col_labels")

    def __init__(self, space: ParamSpace, entries: Sequence[Sequence], col_labels: Sequence[str] | None = None):
        rows = [[_as_rf(space, v) for v in row] for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        if col_labels is None:
            col_labels = tuple(f"a{j + 1}" for j in range(width))
        else:
            col_labels = tuple(col_labels)
        if len(col_labels) != width:
            raise ValueError(f"{len(col_labels)} labels for {width} columns")
        if len(set(col_labels)) != len(col_labels):
            raise ValueError("column labels must be unique")
        self.space = space
        self.rows = len(rows)
        self.cols = width
        self.entries = rows
        self.col_labels = col_labels

    @classmethod
    def parse(cls, space: ParamSpace, rows: Sequence[Sequence[str]],
              col_labels: Sequence[str] | None = None, origin: str = "<matrix>") -> SymMatrix:
        """Build a matrix from expression strings (used by the file loader)."""
        entries = []
        for i, row in enumerate(rows):
            entries.append([
                parse_expr(ExprSource(text, origin=f"{origin}[{i + 1}][{j + 1}]"), space)
                for j, text in enumerate(row)
            ])
        return cls(space, entries, col_labels)

    @classmethod
    def identity(cls, space: ParamSpace, n: int) -> SymMatrix:
        one = RationalFunction.from_const(space, 1)
        zero = RationalFunction.from_const(space, 0)
        return cls(space, [[one if i == j else zero for j in range(n)] for i in range(n)])

    # -- access ----------------------------------------------------------------

    def label_index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown column label {label!r}") from None

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> SymMatrix:
        row_indices = list(row_indices)
        col_indices = list(col_indices)
        return SymMatrix(
            self.space,
            [[self.entries[i][j] for j in col_indices] for i in row_indices],
            [self.col_labels[j] for j in col_indices],
        )

    def columns_by_labels(self, labels: Iterable[str]) -> SymMatrix:
        return self.submatrix(range(self.rows), [self.label_index(l) for l in labels])

    def row_block(self, row_indices: Iterable[int]) -> SymMatrix:
        return self.submatrix(row_indices, range(self.cols))

    def transpose(self) -> SymMatrix:
        return SymMatrix(
            self.space,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __matmul__(self, other: SymMatrix) -> SymMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RationalFunction.from_const(self.space, 0)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return SymMatrix(self.space, out)

    def involves_s(self) -> bool:
        """True iff some entry involves s (``RationalFunction.involves_s``)."""
        return any(v.involves_s() for row in self.entries for v in row)

    def evaluate(self, point: Mapping[str, int | Fraction]) -> SymMatrix:
        """Entrywise exact evaluation; the result is a constant matrix."""
        return SymMatrix(
            self.space,
            [[RationalFunction.from_const(self.space, v.evaluate(point)) for v in row]
             for row in self.entries],
            self.col_labels,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )


def build_pencil(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """[sI - A | B] with columns labelled a1..a_{n+m}, state columns first."""
    if A.rows != A.cols:
        raise ValueError(f"A must be square, got {A.rows}x{A.cols}")
    if B.rows != A.rows:
        raise ValueError(f"B has {B.rows} rows but A is {A.rows}x{A.rows}")
    if A.space != B.space:
        raise SpaceMismatchError("A and B live in different parameter spaces")
    if A.involves_s():
        raise ValueError(f"A must not contain the pencil indeterminate {A.space.s_name!r}")
    if B.involves_s():
        raise ValueError(f"B must not contain the pencil indeterminate {B.space.s_name!r}")
    space = A.space
    s = RationalFunction(space.s())
    n, m = A.rows, B.cols
    entries = [[s - a if i == j else -a for j, a in enumerate(A.entries[i])] + B.entries[i]
               for i in range(n)]
    return SymMatrix(space, entries, [f"a{j + 1}" for j in range(n + m)])


# -- fraction-free elimination ---------------------------------------------------


def _cleared_rows(M: SymMatrix) -> tuple[list[list[Polynomial]], list[Polynomial]]:
    """Integer polynomial rows plus each row's s-free scale: the lcm of the
    row's entry denominators times the lcm of the coefficient denominators
    that are left."""
    out_rows = []
    scales = []
    for row in M.entries:
        scale = M.space.one()
        for v in row:
            if not v.den.is_one():
                scale = poly_lcm(scale, v.den)
        # The scale is normalized, so a constant denominator other than 1
        # still leaves a factor 1/den on its numerator.
        cleared = [v.num if v.den == scale else v.num * poly_divexact(scale, v.den) for v in row]
        coeff_den = math.lcm(*(c.denominator for p in cleared for c in p.terms.values()))
        if coeff_den > 1:
            cleared, scale = [p * coeff_den for p in cleared], scale * coeff_den
        out_rows.append(cleared)
        scales.append(scale)
    return out_rows, scales


def _bareiss(rows: list[list[Polynomial]], ncols: int):
    """In-place Bareiss elimination.

    Returns (rank, sign, pivots) where pivots holds the successive pivot
    values; for a square full-rank matrix the last pivot is the determinant
    of the cleared matrix up to the row-swap sign.
    """
    nrows = len(rows)
    space = rows[0][0].space
    sign = 1
    prev = space.one()
    pivots: list[Polynomial] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                rows[i][j] = poly_divexact(piv * rows[i][j] - rows[i][c] * rows[r][j], prev)
            rows[i][c] = space.zero()
        prev = piv
        pivots.append(piv)
        r += 1
    return r, sign, pivots


def rank(M: SymMatrix) -> int:
    """Exact rank over F(z)(s)."""
    if M.rows == 0 or M.cols == 0:
        return 0
    rows, _ = _cleared_rows(M)
    r, _, _ = _bareiss(rows, M.cols)
    return r


def det(M: SymMatrix) -> RationalFunction:
    """Exact determinant via fraction-free elimination.

    The value is the cleared matrix's determinant over the product of the row
    scales, normalised once as a single RationalFunction.
    """
    if M.rows != M.cols:
        raise ValueError(f"determinant of a non-square {M.rows}x{M.cols} matrix")
    if M.rows == 0:
        return RationalFunction.from_const(M.space, 1)
    rows, scales = _cleared_rows(M)
    r, sign, pivots = _bareiss(rows, M.cols)
    if r < M.rows:
        return RationalFunction.from_const(M.space, 0)
    den = math.prod((s for s in scales if not s.is_one()), start=M.space.one())
    return RationalFunction(pivots[-1] * sign, den)


def det_cofactor(M: SymMatrix) -> RationalFunction:
    """Determinant by cofactor expansion; the independent cross-check route.

    The expansion walks down the rows, so a sub-minor is fixed by its column
    set.  Each is expanded once and kept for the length of the call: a k x k
    matrix takes at most k * 2^(k-1) products, not k!.
    """
    if M.rows != M.cols:
        raise ValueError(f"determinant of a non-square {M.rows}x{M.cols} matrix")
    memo: dict[tuple[int, ...], RationalFunction] = {}

    def minor(cols: tuple[int, ...]) -> RationalFunction:
        i = M.rows - len(cols)
        if len(cols) == 1:
            return M.entries[i][cols[0]]
        if cols not in memo:
            total = RationalFunction.from_const(M.space, 0)
            for k, j in enumerate(cols):
                a = M.entries[i][j]
                if a.is_zero():
                    continue
                term = a * minor(cols[:k] + cols[k + 1:])
                total = total + (term if k % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(M.cols))) if M.rows else RationalFunction.from_const(M.space, 1)


def minors_gcd_in_s(M: SymMatrix, k: int) -> Polynomial:
    """Gcd in F(z)[s] over all k x k minors of M, whose denominators are s-free.

    M's rows are cleared once, as ``rank`` and ``det`` clear them, to integer
    polynomial entries, and every minor is the determinant of a submatrix of
    that cleared matrix: each equals M's minor up to an s-free unit, which is
    exactly what the pencil test needs.  A minor that the
    running gcd divides in F(z)[s] is passed over without a gcd.  Returns the
    zero polynomial iff every minor vanishes; folding stops early once the
    running gcd is a unit.  Every minor may be enumerated, whatever the
    width: a caller that needs a bound checks M.cols first.
    """
    if k > min(M.rows, M.cols):
        raise ValueError(f"no {k}x{k} minors in a {M.rows}x{M.cols} matrix")
    rows = [[RationalFunction(p) for p in row] for row in _cleared_rows(M)[0]]
    cleared = SymMatrix(M.space, rows, M.col_labels)
    running = M.space.zero()
    for row_sel in itertools.combinations(range(M.rows), k):
        for col_sel in itertools.combinations(range(M.cols), k):
            minor = det(cleared.submatrix(row_sel, col_sel)).num
            if not running.is_zero() and divides_in_s(running, minor):
                continue
            running = gcd_in_s(running, minor)
            if running.is_one():
                return running
    return running
