"""Vector matroids over F(z)(s): rank oracles, bases, unions.

A vector matroid is the independence structure of a labelled symbolic
matrix's columns; the rank oracle is exact symbolic column rank, memoized per
label subset.  Enumeration orders are lexicographic in the column positions
so that every search result is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .field import RationalFunction
from .linalg import SymMatrix, det, rank

__all__ = [
    "VectorMatroid",
    "UnimodularBase",
    "BaseEnumeration",
    "union_rank",
    "max_union_of_bases",
    "DEFAULT_MAX_BASES",
]

DEFAULT_MAX_BASES = 10_000


@dataclass(frozen=True)
class UnimodularBase:
    """A base whose square-submatrix determinant is a unit of F(z)[s].

    ``witness`` is the exact determinant of the selected columns: nonzero and
    free of the pencil indeterminate, so the columns stay independent for
    every value of s.
    """

    labels: tuple[str, ...]
    witness: RationalFunction


@dataclass(frozen=True)
class BaseEnumeration:
    """Enumerated bases plus whether the cap cut the listing short."""

    bases: tuple
    truncated: bool


class VectorMatroid:
    """Matroid of linearly independent column subsets of a symbolic matrix."""

    def __init__(self, matrix: SymMatrix):
        self.matrix = matrix
        self.ground = matrix.col_labels
        self._rank_cache: dict[frozenset[str], int] = {}

    def _check_labels(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        for l in labels:
            if l not in self.ground:
                raise KeyError(f"label {l!r} not in ground set {self.ground}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels}")
        return labels

    def rank_of(self, labels: Iterable[str]) -> int:
        """Rank of the selected columns (maximal independent subset size)."""
        labels = self._check_labels(labels)
        key = frozenset(labels)
        cached = self._rank_cache.get(key)
        if cached is not None:
            return cached
        r = rank(self.matrix.columns_by_labels(labels)) if labels else 0
        self._rank_cache[key] = r
        return r

    def is_independent(self, labels: Iterable[str]) -> bool:
        labels = self._check_labels(labels)
        return self.rank_of(labels) == len(labels)

    def rank(self) -> int:
        return self.rank_of(self.ground)

    def enumerate_bases(self, cap: int = DEFAULT_MAX_BASES) -> BaseEnumeration:
        """All bases in lexicographic label order, truncated at ``cap``."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        r = self.rank()
        bases: list[tuple[str, ...]] = []
        for combo in itertools.combinations(self.ground, r):
            if self.is_independent(combo):
                if len(bases) == cap:
                    return BaseEnumeration(tuple(bases), True)
                bases.append(combo)
        return BaseEnumeration(tuple(bases), False)

    def enumerate_unimodular_bases(self, cap: int = DEFAULT_MAX_BASES) -> BaseEnumeration:
        """Bases with an s-free nonzero determinant witness, in stable order.

        Candidates are the row-count-sized column subsets, so every base
        selects a square submatrix with a determinant to witness.  The matrix
        needs full row rank, which holds exactly when some candidate's
        determinant is nonzero.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        found: list[UnimodularBase] = []
        full_row_rank = False
        for combo in itertools.combinations(self.ground, self.matrix.rows):
            witness = det(self.matrix.columns_by_labels(combo))
            if witness.is_zero():
                continue
            full_row_rank = True
            if witness.involves_s():
                continue
            if len(found) == cap:
                return BaseEnumeration(tuple(found), True)
            found.append(UnimodularBase(combo, witness))
        if not full_row_rank:
            raise ValueError(
                f"matrix has {self.matrix.rows} rows but rank {self.rank()}; "
                "unimodular witnesses need rank-many rows"
            )
        return BaseEnumeration(tuple(found), False)


def _common_ground(matroids: Sequence[VectorMatroid]) -> tuple[str, ...]:
    if not matroids:
        raise ValueError("need at least one matroid")
    ground = matroids[0].ground
    for m in matroids[1:]:
        if m.ground != ground:
            raise ValueError(f"ground sets differ: {ground} vs {m.ground}")
    return ground


def union_rank(matroids: Sequence[VectorMatroid], labels: Iterable[str]) -> int:
    """Rank of the matroid union on a label subset.

    Exact evaluation of min over Y subset of X of sum_i r_i(Y) + |X - Y|;
    exponential in |X| and meant for small ground sets.
    """
    ground = _common_ground(matroids)
    X = tuple(dict.fromkeys(labels))
    for l in X:
        if l not in ground:
            raise KeyError(f"label {l!r} not in ground set {ground}")
    best = len(X)  # Y = empty set
    for k in range(1, len(X) + 1):
        for Y in itertools.combinations(X, k):
            value = sum(m.rank_of(Y) for m in matroids) + len(X) - k
            if value < best:
                best = value
    return best


def max_union_of_bases(
    matroids: Sequence[VectorMatroid],
    sizes_wanted: Sequence[int],
    cap: int = DEFAULT_MAX_BASES,
) -> list[tuple[str, ...]] | None:
    """First pairwise-disjoint family of bases with the requested sizes.

    Candidate bases are taken in lexicographic order; returns None when no
    family exists among the enumerated bases.
    """
    _common_ground(matroids)
    if len(sizes_wanted) != len(matroids):
        raise ValueError("one size per matroid required")
    enumerations = []
    for m, want in zip(matroids, sizes_wanted):
        enum = m.enumerate_bases(cap)
        candidates = [b for b in enum.bases if len(b) == want]
        if not candidates:
            return None
        enumerations.append(candidates)
    return _first_disjoint_family(enumerations, lambda base: base)


def _first_disjoint_family(candidates: Sequence[Sequence], labels: Callable) -> list | None:
    """First choice of one candidate per block with pairwise-disjoint labels.

    Plain backtracking, blocks in ascending index and each block's candidates
    in the given order, so the family found is reproducible; None if none.
    """
    chosen: list = []
    used: set[str] = set()

    def backtrack(i: int) -> bool:
        if i == len(candidates):
            return True
        for base in candidates[i]:
            base_labels = labels(base)
            if used.isdisjoint(base_labels):
                chosen.append(base)
                used.update(base_labels)
                if backtrack(i + 1):
                    return True
                used.difference_update(base_labels)
                chosen.pop()
        return False

    return chosen if backtrack(0) else None
