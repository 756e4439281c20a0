"""Structural-controllability verdicts over F(z).

Two exact, necessary-and-sufficient tests:

* the pencil test — [sI - A | B] keeps full rank for every s exactly when
  the gcd in s of its maximal minors is a unit (the minor det(sI - A) is
  monic of degree n in s, so the rank over F(z)(s) is always n);
* the Kalman test — [B, AB, ..., A^(n-1)B] has full rank over F(z).  It
  first takes the rank over Q at one fixed, pole-free integer point: rank n
  there proves rank n over F(z), because specialising can only lower a rank.
  Any other outcome at the point decides nothing and runs the exact
  symbolic rank, which alone can say NOT_CONTROLLABLE.

And the certificate route: split the pencil's rows into blocks, find
pairwise-disjoint bases of the per-block column matroids whose determinant
witnesses are s-free units, then confirm with the exact unit-gcd test before
reporting CERTIFIED (the block-local family alone does not bound the rank at
every s; see certificate_search).  A failed, capped or unconfirmed search
proves nothing, so it reports INCONCLUSIVE and never NOT_CONTROLLABLE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .field import ParamSpace, PoleError, Polynomial, RationalFunction, SpaceMismatchError
from .linalg import SymMatrix, build_pencil, det_cofactor, minors_gcd_in_s, rank
from .matroid import DEFAULT_MAX_BASES, UnimodularBase, VectorMatroid, _first_disjoint_family

__all__ = [
    "ColumnLimitError",
    "DEFAULT_MAX_COLUMNS",
    "SystemDef",
    "RowPartition",
    "Certificate",
    "Status",
    "Verdict",
    "pbh_check",
    "kalman_check",
    "certificate_search",
    "compose_parallel",
    "composite_certificate_check",
    "verify_certificate",
    "certificate_failures",
    "controllability_failures",
    "controllability_matrix",
]

# Full minor enumeration is exponential; above this many pencil columns the
# checker refuses to guess and reports the limit instead.
DEFAULT_MAX_COLUMNS = 12


class ColumnLimitError(RuntimeError):
    """Raised when full minor enumeration would exceed the column cap."""

    def __init__(self, cols: int, limit: int):
        self.cols = cols
        self.limit = limit
        super().__init__(
            f"matrix has {cols} columns; full minor enumeration is capped at {limit}"
        )


@dataclass(frozen=True)
class SystemDef:
    """A linear system x' = Ax + Bu with entries over F(z)."""

    name: str
    space: ParamSpace
    A: SymMatrix
    B: SymMatrix

    def __post_init__(self):
        if self.A.rows != self.A.cols:
            raise ValueError(f"A must be square, got {self.A.rows}x{self.A.cols}")
        if self.B.rows != self.A.rows:
            raise ValueError(f"B has {self.B.rows} rows for an {self.A.rows}-state system")
        if self.A.space != self.space or self.B.space != self.space:
            raise SpaceMismatchError("A/B do not live in the declared parameter space")
        if self.A.involves_s() or self.B.involves_s():
            raise ValueError(
                f"system matrices must not contain the pencil indeterminate "
                f"{self.space.s_name!r}"
            )

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    def pencil(self) -> SymMatrix:
        """[sI - A | B], built on the first call; callers only read it."""
        return self._pencil

    @cached_property  # stored in the instance __dict__, past the frozen __setattr__
    def _pencil(self) -> SymMatrix:
        return build_pencil(self.A, self.B)

    @cached_property
    def _minor_gcd(self) -> Polynomial:
        # Read only through _pencil_gcd, which checks the column cap first.
        return minors_gcd_in_s(self.pencil(), self.n)


@dataclass(frozen=True)
class RowPartition:
    """Ordered disjoint row blocks covering all n rows (0-based indices)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty partition block")
            for i in block:
                if i in seen:
                    raise ValueError(f"row {i + 1} appears in two blocks")
                seen.add(i)
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("blocks must cover rows 1..n exactly")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def singletons(cls, n: int) -> RowPartition:
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def from_spec(cls, spec: str, n: int) -> RowPartition:
        """Parse a 1-based block spec like "1,2;3,4,5"."""
        blocks = []
        covered = 0
        for chunk in spec.split(";"):
            rows = []
            for piece in chunk.split(","):
                piece = piece.strip()
                if not piece.isdigit():
                    raise ValueError(f"bad row index {piece!r} in partition spec {spec!r}")
                idx = int(piece)
                if not 1 <= idx <= n:
                    raise ValueError(f"row {idx} out of range 1..{n} in partition spec")
                rows.append(idx - 1)
            covered += len(rows)
            blocks.append(tuple(rows))
        if covered != n:
            raise ValueError(f"partition spec {spec!r} covers {covered} rows, expected {n}")
        return cls(tuple(blocks))

    def describe(self) -> str:
        return ";".join(",".join(str(i + 1) for i in block) for block in self.blocks)


@dataclass(frozen=True)
class Certificate:
    """Row partition plus per-block disjoint unimodular bases totalling n."""

    partition: RowPartition
    bases: tuple[UnimodularBase, ...]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b.labels) for b in self.bases)


class Status(str, Enum):
    CONTROLLABLE = "CONTROLLABLE"
    NOT_CONTROLLABLE = "NOT_CONTROLLABLE"
    CERTIFIED = "CERTIFIED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    status: Status
    method: str
    evidence: str
    gcd: Polynomial | None = None
    certificate: Certificate | None = None

    def __str__(self) -> str:
        return f"[{self.method}] {self.status.value} - {self.evidence}"


def _pencil_gcd(sys: SystemDef, max_columns: int) -> Polynomial:
    """Gcd in s of the pencil's n x n minors, computed once per SystemDef.

    The column cap is checked on every call, before the stored gcd is read.
    """
    cols = sys.n + sys.m
    if cols > max_columns:
        raise ColumnLimitError(cols, max_columns)
    return sys._minor_gcd


def pbh_check(sys: SystemDef, max_columns: int = DEFAULT_MAX_COLUMNS) -> Verdict:
    """Exact pencil test: full rank of [sI - A | B] for every s.

    The rank over F(z)(s) is always n, because the minor det(sI - A) is monic
    of degree n in s.  Controllable exactly when the gcd in s of all n x n
    minors is a unit; a positive-s-degree gcd is returned as evidence, its
    s-factors being the uncontrollable modes.
    """
    n = sys.n
    try:
        g = _pencil_gcd(sys, max_columns)
    except ColumnLimitError as e:
        return Verdict(
            Status.INCONCLUSIVE, "pbh",
            f"minor enumeration skipped: {e}", gcd=None,
        )
    # det(sI - A) is a monic minor, so g is nonzero and the rank is n.
    if g.s_degree() > 0:
        return Verdict(
            Status.NOT_CONTROLLABLE, "pbh",
            f"pencil minors share the s-dependent factor gcd = {g}", gcd=g,
        )
    return Verdict(
        Status.CONTROLLABLE, "pbh",
        f"rank[sI - A | B] = {n} for all s (minor gcd = {g})", gcd=g,
    )


def controllability_matrix(sys: SystemDef) -> SymMatrix:
    """[B, AB, ..., A^(n-1)B] over F(z) in n - 1 products, columns c1..c_{n*m}."""
    block = sys.B
    rows = [list(row) for row in block.entries]
    for _ in range(sys.n - 1):
        block = sys.A @ block
        for row, tail in zip(rows, block.entries):
            row.extend(tail)
    return SymMatrix(sys.space, rows, [f"c{j + 1}" for j in range(sys.n * sys.m)])


# Wide, distinct integers for the Kalman test's evaluation points: one row
# per point, one coordinate per parameter.  Small or structured values sit on
# easy relations (2 + 3 = 5 is z1 + z2 = z3); a miss is only slower, never
# wrong.  Parameters past a row's width reuse it shifted by a wide stride.
_POINTS = (
    (7919, -6553, 4421, -3083, 8861, -2347, 5417, -9109),
    (-7541, 6089, -4729, 3331, -8429, 2671, -5849, 9343),
    (7211, -5903, 4003, -2857, 8147, -2111, 6263, -9781),
    (-6883, 5653, -4271, 3557, -8699, 2909, -5381, 9629),
)
_POINT_STRIDE = 10007


def _point(row: tuple[int, ...], params: tuple[str, ...]) -> dict[str, int]:
    w = len(row)
    return {name: row[i % w] + _POINT_STRIDE * (i // w) for i, name in enumerate(params)}


def _rank_over_q(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over Q; the rows are overwritten."""
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        r += 1
        if r == len(rows):
            break
    return r


def _kalman_rank_at_point(sys: SystemDef) -> int | None:
    """Rank over Q of [B0, A0 B0, ..., A0^(n-1) B0] at the first pole-free
    point of _POINTS, or None when every point is a pole of some entry.

    It never exceeds the rank over F(z): specialising can only lower a rank.
    """
    for row in _POINTS:
        point = _point(row, sys.space.params)
        try:
            a = [[e.evaluate(point) for e in r] for r in sys.A.entries]
            block = [[e.evaluate(point) for e in r] for r in sys.B.entries]
        except PoleError:
            continue
        krylov = [list(r) for r in block]
        for _ in range(sys.n - 1):
            block = [[sum(x * block[k][j] for k, x in enumerate(a_row) if x)
                      for j in range(sys.m)] for a_row in a]
            for k_row, tail in zip(krylov, block):
                k_row.extend(tail)
        return _rank_over_q(krylov)
    return None


def kalman_check(sys: SystemDef) -> Verdict:
    """Exact Kalman test: full rank of the controllability matrix over F(z).

    The rank is first taken over Q at the first pole-free point of the fixed
    table _POINTS.  Rank n there is a proof of rank n over F(z) (Schwartz
    1980; Zippel 1979), so CONTROLLABLE is returned at once.  A lower rank at
    the point, or a table of poles only, decides nothing: the symbolic
    controllability matrix and its exact rank then give the verdict, and
    NOT_CONTROLLABLE only ever comes from that exact rank.
    """
    if _kalman_rank_at_point(sys) == sys.n:
        r = sys.n
    else:
        r = rank(controllability_matrix(sys))
    if r == sys.n:
        return Verdict(
            Status.CONTROLLABLE, "kalman",
            f"controllability matrix has full rank {r}",
        )
    return Verdict(
        Status.NOT_CONTROLLABLE, "kalman",
        f"controllability matrix rank {r} < n = {sys.n}",
    )


def certificate_search(
    sys: SystemDef,
    partition: RowPartition | None = None,
    max_bases: int = DEFAULT_MAX_BASES,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> Verdict:
    """Search for disjoint unimodular bases of the partitioned pencil rows.

    The default partition is the finest one, single rows.  An exhausted or
    capped search proves nothing (the condition is one-directional) and is
    reported as INCONCLUSIVE.

    A found family alone does not pin the pencil's rank for every s: each
    witness constrains only its own block's rows, and the stacked square
    submatrix can still lose rank at specific s (take A = [[0, 1], [1, 0]]
    with B = 0: the singleton bases {a2}, {a1} are disjoint with unit
    witnesses, yet the inputless system is plainly uncontrollable).  CERTIFIED
    is therefore only issued once the exact unit-gcd confirmation of the
    pencil's maximal minors passes; a family that fails confirmation yields
    INCONCLUSIVE, never NOT_CONTROLLABLE.
    """
    n = sys.n
    if partition is None:
        partition = RowPartition.singletons(n)
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} rows but the system has {n}")
    # Each row block holds its own sI columns, so its rank is its size and
    # the block ranks always sum to n.
    pencil = sys.pencil()
    truncated = False
    per_block: list[tuple[UnimodularBase, ...]] = []
    for block in partition.blocks:
        enum = VectorMatroid(pencil.row_block(block)).enumerate_unimodular_bases(max_bases)
        truncated = truncated or enum.truncated
        per_block.append(enum.bases)

    chosen = _first_disjoint_family(per_block, lambda base: base.labels)
    if chosen is not None:
        cert = Certificate(partition, tuple(chosen))
        detail = ", ".join(f"{{{', '.join(b.labels)}}}" for b in cert.bases)
        try:
            g = _pencil_gcd(sys, max_columns)
        except ColumnLimitError as e:
            return Verdict(
                Status.INCONCLUSIVE, "matroid",
                f"disjoint unimodular bases {detail} found, but the exact "
                f"confirmation was skipped: {e}",
            )
        if g.s_degree() > 0:
            return Verdict(
                Status.INCONCLUSIVE, "matroid",
                f"disjoint unimodular bases {detail} found, but the pencil "
                f"minors still share the s-dependent factor {g}; the "
                f"block-local condition does not certify this system",
            )
        return Verdict(
            Status.CERTIFIED, "matroid",
            f"disjoint unimodular bases {detail} with sizes "
            f"{'+'.join(map(str, cert.block_sizes))} = {n}, confirmed by the "
            f"exact minor-gcd test",
            certificate=cert,
        )
    if truncated:
        return Verdict(
            Status.INCONCLUSIVE, "matroid",
            f"no certificate among the first {max_bases} bases per block "
            "(enumeration truncated)",
        )
    return Verdict(
        Status.INCONCLUSIVE, "matroid",
        "no disjoint family of unimodular bases exists for this partition "
        "(the condition is sufficient only)",
    )


def compose_parallel(subs: list[SystemDef]) -> SystemDef:
    """Parallel composite: block-diagonal A, vertically stacked B, shared input."""
    if not subs:
        raise ValueError("need at least one subsystem")
    if len(subs) == 1:
        return subs[0]
    space = subs[0].space
    m = subs[0].m
    for sub in subs[1:]:
        if sub.space != space:
            raise SpaceMismatchError(
                f"subsystem {sub.name!r} uses a different parameter space"
            )
        if sub.m != m:
            raise ValueError(
                f"input dimension mismatch: {subs[0].name!r} has m = {m}, "
                f"{sub.name!r} has m = {sub.m}"
            )
    n_total = sum(sub.n for sub in subs)
    zero = RationalFunction(space.zero())
    A_rows = []
    B_rows = []
    offset = 0
    for sub in subs:
        for i in range(sub.n):
            row = [zero] * n_total
            for j in range(sub.n):
                row[offset + j] = sub.A.entries[i][j]
            A_rows.append(row)
            B_rows.append(list(sub.B.entries[i]))
        offset += sub.n
    name = "+".join(sub.name for sub in subs)
    return SystemDef(name, space, SymMatrix(space, A_rows), SymMatrix(space, B_rows))


def composite_certificate_check(
    subs: list[SystemDef],
    max_bases: int = DEFAULT_MAX_BASES,
    max_columns: int = DEFAULT_MAX_COLUMNS,
) -> Verdict:
    """Certificate route for a parallel composite.

    Each subsystem must pass the exact pencil test (the theorem's
    hypothesis); the composite pencil's rows, padded with zero blocks by
    construction, are then partitioned per subsystem and searched for
    disjoint unimodular bases.
    """
    for idx, sub in enumerate(subs, start=1):
        v = pbh_check(sub, max_columns=max_columns)
        if v.status is Status.NOT_CONTROLLABLE:
            return Verdict(
                Status.NOT_CONTROLLABLE, "pbh",
                f"subsystem {idx} ({sub.name!r}) fails the exact pencil test: {v.evidence}",
                gcd=v.gcd,
            )
        if v.status is Status.INCONCLUSIVE:
            return Verdict(
                Status.INCONCLUSIVE, "pbh",
                f"subsystem {idx} ({sub.name!r}): {v.evidence}",
            )
    composite = compose_parallel(subs)
    blocks = []
    offset = 0
    for sub in subs:
        blocks.append(tuple(range(offset, offset + sub.n)))
        offset += sub.n
    return certificate_search(
        composite, RowPartition(tuple(blocks)),
        max_bases=max_bases, max_columns=max_columns,
    )


def certificate_failures(sys: SystemDef, cert: Certificate) -> list[str]:
    """Every block-local clause of the certificate that fails recomputation.

    Witnesses are recomputed by cofactor expansion (not by the elimination
    path that produced them), so this doubles as a third-party checker for
    exported certificates.  The clauses are block-local, so an empty list
    does not prove the system controllable (the swap system in
    certificate_search's docstring passes); controllability_failures adds
    that proof.  A shape or a label that does not fit raises ValueError.
    """
    n = sys.n
    if cert.partition.n != n:
        raise ValueError(
            f"certificate partition covers {cert.partition.n} rows, system has {n}"
        )
    if len(cert.bases) != len(cert.partition.blocks):
        raise ValueError(
            f"certificate has {len(cert.bases)} bases for "
            f"{len(cert.partition.blocks)} partition blocks"
        )
    pencil = sys.pencil()
    failures: list[str] = []

    used: dict[str, int] = {}
    for idx, base in enumerate(cert.bases, start=1):
        for label in base.labels:
            if label in used:
                failures.append(
                    f"bases are not disjoint: {label} appears in blocks "
                    f"{used[label]} and {idx}"
                )
            else:
                used[label] = idx

    total = sum(len(b.labels) for b in cert.bases)
    if total != n:
        failures.append(f"base sizes sum to {total}, expected n = {n}")

    for idx, (block, base) in enumerate(zip(cert.partition.blocks, cert.bases), start=1):
        block_matrix = pencil.row_block(block)
        try:
            columns = block_matrix.columns_by_labels(base.labels)
        except KeyError as e:
            raise ValueError(f"block {idx}: {e}") from None
        # The block holds its own sI columns, whose determinant is monic in s,
        # so the rank of a pencil row block is its row count: a base must
        # select a square submatrix.
        if columns.rows != columns.cols:
            failures.append(
                f"block {idx}: base of size {len(base.labels)} does not select "
                f"a square submatrix of the {columns.rows}-row block"
            )
            continue
        recomputed = det_cofactor(columns)
        if recomputed != base.witness:
            failures.append(
                f"block {idx}: stored witness {base.witness} differs from "
                f"recomputed determinant {recomputed}"
            )
        if recomputed.is_zero():
            failures.append(f"block {idx}: witness determinant is zero")
        elif recomputed.involves_s():
            failures.append(
                f"block {idx}: witness {recomputed} is not free of "
                f"{sys.space.s_name}, so the base is not unimodular"
            )
    return failures


def controllability_failures(sys: SystemDef) -> list[str]:
    """Empty once the system is proved controllable: by rank n at the Kalman
    test's point, or else by a pencil minor gcd free of s, read under
    DEFAULT_MAX_COLUMNS (past it, ColumnLimitError proves nothing)."""
    if _kalman_rank_at_point(sys) == sys.n:
        return []
    g = _pencil_gcd(sys, DEFAULT_MAX_COLUMNS)
    return [f"pencil minors share the s-dependent factor gcd = {g}"] if g.s_degree() > 0 else []


def verify_certificate(sys: SystemDef, cert: Certificate) -> bool:
    """``sccheck verify``'s answer: every clause holds and the system is proved
    controllable.  ColumnLimitError past the cap is verify's INCONCLUSIVE."""
    return not certificate_failures(sys, cert) and not controllability_failures(sys)
