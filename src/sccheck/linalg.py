"""Exact rank, determinant and minor machinery for matrices over F(z)(s).

Elimination is fraction-free: the matrix is first scaled row by row to a
polynomial matrix (each row times the lcm of its entry denominators), then
Bareiss one-step elimination runs with exact polynomial divisions.  Row
scaling multiplies every minor by a known nonzero s-free factor, so ranks
are untouched and determinants are recovered exactly by dividing the scale
back out.

Pivoting is deterministic: elimination walks columns left to right and picks
the nonzero candidate in the lowest row, so determinant signs and every
downstream certificate are reproducible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .expr import ExprSource, parse_expr
from .field import (
    ParamSpace,
    Polynomial,
    RationalFunction,
    SpaceMismatchError,
    gcd_in_s,
    poly_divexact,
    poly_lcm,
)

__all__ = [
    "SymMatrix",
    "ColumnLimitError",
    "build_pencil",
    "rank",
    "det",
    "det_cofactor",
    "minors_gcd_in_s",
    "DEFAULT_MAX_COLUMNS",
]

# Full minor enumeration is exponential; above this many columns the checker
# refuses to guess and reports the limit instead.
DEFAULT_MAX_COLUMNS = 12


class ColumnLimitError(RuntimeError):
    """Raised when full minor enumeration would exceed the column cap."""

    def __init__(self, cols: int, limit: int):
        self.cols = cols
        self.limit = limit
        super().__init__(
            f"matrix has {cols} columns; full minor enumeration is capped at {limit}"
        )


def _as_rf(space: ParamSpace, v) -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, Polynomial):
        return RationalFunction(v)
    if isinstance(v, (int, Fraction)):
        return RationalFunction.from_const(space, v)
    raise TypeError(f"cannot use {v!r} as a matrix entry")


class SymMatrix:
    """Dense matrix of rational functions with labelled columns."""

    __slots__ = ("space", "rows", "cols", "entries", "col_labels")

    def __init__(self, space: ParamSpace, entries: Sequence[Sequence], col_labels: Sequence[str] | None = None):
        rows = [[_as_rf(space, v) for v in row] for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        for row in rows:
            for v in row:
                if v.space != space:
                    raise SpaceMismatchError("entry from a different parameter space")
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

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.entries]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) if self.rows else 0
                  for j in range(self.cols)]
        lines = ["  ".join(f"{self.col_labels[j]:>{widths[j]}}" for j in range(self.cols))]
        for row in cells:
            lines.append("  ".join(f"{c:>{w}}" for c, w in zip(row, widths)))
        return "\n".join(lines)


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
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            v = -A.entries[i][j]
            if i == j:
                v = v + s
            row.append(v)
        row.extend(B.entries[i])
        entries.append(row)
    return SymMatrix(space, entries, [f"a{j + 1}" for j in range(n + m)])


# -- fraction-free elimination ---------------------------------------------------


def _cleared_rows(M: SymMatrix) -> tuple[list[list[Polynomial]], list[Polynomial]]:
    """Polynomial rows plus the per-row scale factor (lcm of denominators)."""
    out_rows = []
    scales = []
    for row in M.entries:
        scale = M.space.one()
        for v in row:
            scale = poly_lcm(scale, v.den)
        out_rows.append([v.num * poly_divexact(scale, v.den) for v in row])
        scales.append(scale)
    return out_rows, scales


def _bareiss(rows: list[list[Polynomial]], ncols: int):
    """In-place Bareiss elimination.

    Returns (rank, sign, pivots) where pivots holds the successive pivot
    values; for a square full-rank matrix the last pivot is the determinant
    of the cleared matrix up to the row-swap sign.
    """
    nrows = len(rows)
    space = rows[0][0].space if nrows else None
    sign = 1
    prev = space.one() if space else None
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
    """Exact determinant via fraction-free elimination."""
    if M.rows != M.cols:
        raise ValueError(f"determinant of a non-square {M.rows}x{M.cols} matrix")
    if M.rows == 0:
        return RationalFunction.from_const(M.space, 1)
    rows, scales = _cleared_rows(M)
    r, sign, pivots = _bareiss(rows, M.cols)
    if r < M.rows:
        return RationalFunction.from_const(M.space, 0)
    value = RationalFunction(pivots[-1] * sign)
    for s in scales:
        value = value / RationalFunction(s)
    return value


def det_cofactor(M: SymMatrix) -> RationalFunction:
    """Determinant by cofactor expansion; the independent cross-check route."""
    if M.rows != M.cols:
        raise ValueError(f"determinant of a non-square {M.rows}x{M.cols} matrix")
    return _cofactor(M.entries, list(range(M.rows)), list(range(M.cols)), M.space)


def _cofactor(entries, rows: list[int], cols: list[int], space: ParamSpace) -> RationalFunction:
    if not rows:
        return RationalFunction.from_const(space, 1)
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    i = rows[0]
    rest = rows[1:]
    total = RationalFunction.from_const(space, 0)
    for k, j in enumerate(cols):
        a = entries[i][j]
        if a.is_zero():
            continue
        minor = _cofactor(entries, rest, cols[:k] + cols[k + 1:], space)
        term = a * minor
        total = total + (term if k % 2 == 0 else -term)
    return total


def minors_gcd_in_s(M: SymMatrix, k: int, max_columns: int = DEFAULT_MAX_COLUMNS) -> Polynomial:
    """Gcd in F(z)[s] over all k x k minors of M.

    Minors are taken up to s-free unit factors (each minor's numerator after
    row clearing), which is exactly what the pencil test needs.  Returns the
    zero polynomial iff every minor vanishes; folding stops early once the
    running gcd is a unit.
    """
    if k > min(M.rows, M.cols):
        raise ValueError(f"no {k}x{k} minors in a {M.rows}x{M.cols} matrix")
    if M.cols > max_columns:
        raise ColumnLimitError(M.cols, max_columns)
    running = M.space.zero()
    for row_sel in itertools.combinations(range(M.rows), k):
        for col_sel in itertools.combinations(range(M.cols), k):
            minor = det(M.submatrix(row_sel, col_sel))
            running = gcd_in_s(running, minor.num)
            if running.is_one():
                return running
    return running
