"""Independent oracles for the benchmark, written against the text of the
inputs and nothing of sccheck.

Every check here works on expression strings in sccheck's entry grammar
(the system-file and certificate formats) and evaluates them with its own
recursive-descent evaluator over ``fractions.Fraction``.  Ranks and
determinants of the evaluated matrices come from plain Gaussian elimination
over Q.  No sccheck code runs inside an oracle, so an oracle cannot share a
fault with the code it checks.

Why a rank at a point decides what it decides:

* Specialising the parameters to a point z0 where no entry has a pole can
  only lower the rank of the Kalman matrix ``[B, AB, ..., A^(n-1)B]``.  So
  rank n at z0 proves the generic system controllable.
* The converse is probabilistic.  If the generic rank is n, some n x n minor
  of the Kalman matrix, with denominators cleared, is a nonzero polynomial of
  total degree at most ``D``.  By Schwartz-Zippel it vanishes at a point drawn
  uniformly from ``S^k`` with probability at most ``D / |S|``.  Rank < n at T
  independent points therefore wrongly confirms NOT_CONTROLLABLE with
  probability at most ``(D / |S|)^T``.  For the benchmark's systems (n <= 6,
  entries of degree at most 3 over denominators of degree at most 3) ``D``
  stays below ``10^4``; with ``|S| = 2 * 10^6 + 1`` and ``T = 3`` the bound is
  below ``2 * 10^-7`` per verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Points are drawn from [-WIDE, WIDE]; see the module docstring for the bound.
WIDE = 10**6
NEGATIVE_POINTS = 3
POSITIVE_TRIES = 4


class OracleError(AssertionError):
    """A program output that the oracles refute."""


class _Eval:
    """Evaluate one expression of the entry grammar at a Fraction point.

        expr  := term (('+' | '-') term)*
        term  := unary (('*' | '/') unary)*
        unary := '-' unary | power
        power := atom ('^' INT)*
        atom  := INT | IDENT | '(' expr ')'
    """

    def __init__(self, text: str, point: dict[str, Fraction]):
        self.toks = _tokens(text)
        self.pos = 0
        self.point = point

    def run(self) -> Fraction:
        value = self.expr()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing input at token {self.pos}")
        return value

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            value = value + self.term() if self.take() == "+" else value - self.term()
        return value

    def term(self) -> Fraction:
        value = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.unary()
            else:
                value = value / self.unary()  # ZeroDivisionError marks a pole
        return value

    def unary(self) -> Fraction:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Fraction:
        value = self.atom()
        while self.peek() == "^":
            self.take()
            value = value ** int(self.take())
        return value

    def atom(self) -> Fraction:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        return self.point[tok]


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(ch)
            i += 1
    return out


def evaluate(text: str, point: dict[str, Fraction]) -> Fraction:
    """Exact value of one entry string; ZeroDivisionError at a pole."""
    return _Eval(text, point).run()


def identifiers(text: str) -> set[str]:
    return {t for t in _tokens(text) if t[0].isalpha() or t[0] == "_"}


def evaluate_grid(grid: list[list[str]], point: dict[str, Fraction]) -> list[list[Fraction]]:
    return [[evaluate(cell, point) for cell in row] for row in grid]


# -- exact linear algebra over Q -------------------------------------------------


def rank_q(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over Q."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / p
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def det_q(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [list(r) for r in rows]
    n = len(m)
    value = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            value = -value
        p = m[c][c]
        value *= p
        for i in range(c + 1, n):
            f = m[i][c] / p
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return value


def kalman_rank_at(a: list[list[Fraction]], b: list[list[Fraction]]) -> int:
    """Rank of [B, AB, ..., A^(n-1)B] over Q."""
    n = len(a)
    block = [list(r) for r in b]
    cols = [list(r) for r in b]
    for _ in range(n - 1):
        block = [[sum(a[i][k] * block[k][j] for k in range(n)) for j in range(len(block[0]))]
                 for i in range(n)]
        cols = [cr + br for cr, br in zip(cols, block)]
    return rank_q(cols)


# -- systems as text ---------------------------------------------------------------


class TextSystem:
    """A system given by its entry strings, as in the system-file format."""

    def __init__(self, name: str, params: list[str], a: list[list[str]], b: list[list[str]]):
        self.name = name
        self.params = list(params)
        self.a = a
        self.b = b

    @property
    def n(self) -> int:
        return len(self.a)

    def to_doc(self) -> dict:
        return {"name": self.name, "parameters": self.params, "A": self.a, "B": self.b}

    def random_point(self, rng: random.Random) -> tuple[dict[str, Fraction], list, list]:
        """A point avoiding every pole, with A and B evaluated there."""
        while True:
            point = {p: Fraction(rng.randint(-WIDE, WIDE)) for p in self.params}
            try:
                return point, evaluate_grid(self.a, point), evaluate_grid(self.b, point)
            except ZeroDivisionError:
                continue

    def pencil_at(self, point: dict[str, Fraction], s: Fraction) -> list[list[Fraction]]:
        """[sI - A | B] at (point, s)."""
        a = evaluate_grid(self.a, point)
        b = evaluate_grid(self.b, point)
        n = self.n
        return [[(s if i == j else 0) - a[i][j] for j in range(n)] + b[i] for i in range(n)]


def compose_text(subs: list[TextSystem], name: str) -> TextSystem:
    """Parallel composite: block-diagonal A, stacked B, one shared input."""
    total = sum(s.n for s in subs)
    a: list[list[str]] = []
    b: list[list[str]] = []
    offset = 0
    for sub in subs:
        for i in range(sub.n):
            row = ["0"] * total
            row[offset:offset + sub.n] = sub.a[i]
            a.append(row)
            b.append(list(sub.b[i]))
        offset += sub.n
    return TextSystem(name, subs[0].params, a, b)


def proves_controllable(sys: TextSystem, rng: random.Random) -> bool:
    """True once a pole-free point gives Kalman rank n (a proof)."""
    for _ in range(POSITIVE_TRIES):
        _, a, b = sys.random_point(rng)
        if kalman_rank_at(a, b) == sys.n:
            return True
    return False


def rank_deficient_everywhere(sys: TextSystem, rng: random.Random) -> bool:
    """Kalman rank < n at NEGATIVE_POINTS independent wide points."""
    for _ in range(NEGATIVE_POINTS):
        _, a, b = sys.random_point(rng)
        if kalman_rank_at(a, b) == sys.n:
            return False
    return True


# -- verdict checks ----------------------------------------------------------------


def check_verdicts(sys: TextSystem, pbh: str, kalman: str, matroid: str,
                   rng: random.Random, uncontrollable_by_construction: bool = False) -> None:
    """Refute any verdict triple the oracles disagree with.

    ``pbh`` and ``kalman`` are CONTROLLABLE or NOT_CONTROLLABLE (or
    INCONCLUSIVE for pbh when a cap fires); ``matroid`` is CERTIFIED or
    INCONCLUSIVE, never NOT_CONTROLLABLE.
    """
    where = sys.name
    if matroid == "NOT_CONTROLLABLE":
        raise OracleError(f"{where}: matroid said NOT_CONTROLLABLE, which it may never say")
    if matroid not in ("CERTIFIED", "INCONCLUSIVE"):
        raise OracleError(f"{where}: unknown matroid status {matroid}")
    if kalman not in ("CONTROLLABLE", "NOT_CONTROLLABLE"):
        raise OracleError(f"{where}: unknown kalman status {kalman}")
    if pbh != "INCONCLUSIVE" and pbh != kalman:
        raise OracleError(f"{where}: pbh says {pbh} but kalman says {kalman}")
    if kalman == "CONTROLLABLE":
        if uncontrollable_by_construction:
            raise OracleError(f"{where}: duplicated composite reported CONTROLLABLE")
        if not proves_controllable(sys, rng):
            raise OracleError(f"{where}: CONTROLLABLE, but Kalman rank < n at "
                              f"{POSITIVE_TRIES} pole-free points")
    else:
        if matroid == "CERTIFIED":
            raise OracleError(f"{where}: CERTIFIED but the exact tests say NOT_CONTROLLABLE")
        if not uncontrollable_by_construction and not rank_deficient_everywhere(sys, rng):
            raise OracleError(f"{where}: NOT_CONTROLLABLE, but a point gives Kalman rank n")


def label_index(label: str, width: int) -> int:
    if not (label.startswith("a") and label[1:].isdigit()):
        raise OracleError(f"bad column label {label!r}")
    j = int(label[1:]) - 1
    if not 0 <= j < width:
        raise OracleError(f"column label {label!r} out of range")
    return j


def certificate_problems(sys: TextSystem, blocks: list[dict], rng: random.Random) -> list[str]:
    """Clauses of a certificate that fail recomputation at a random point.

    ``blocks`` are as in the certificate file: 1-based ``rows``, ``base``
    labels and a ``witness`` string.  Each witness must mention no ``s`` and
    equal the Fraction determinant of its block's selected pencil columns at
    ``size + 1`` distinct values of s; that pins the determinant, a
    polynomial in s of degree at most ``size``, to the s-free witness value.
    """
    n = sys.n
    width = n + len(sys.b[0])
    problems: list[str] = []
    seen: set[str] = set()
    rows_seen: set[int] = set()
    total = 0
    for blk in blocks:
        if seen & set(blk["base"]):
            problems.append(f"bases overlap on {sorted(seen & set(blk['base']))}")
        seen |= set(blk["base"])
        rows_seen |= set(blk["rows"])
        total += len(blk["base"])
    if total != n:
        problems.append(f"base sizes total {total}, not n = {n}")
    if rows_seen != set(range(1, n + 1)):
        problems.append(f"blocks cover rows {sorted(rows_seen)}, not 1..{n}")
    point, _, _ = sys.random_point(rng)
    for idx, blk in enumerate(blocks, start=1):
        rows = [r - 1 for r in blk["rows"]]
        cols = [label_index(l, width) for l in blk["base"]]
        if len(rows) != len(cols):
            problems.append(f"block {idx}: base does not select a square submatrix")
            continue
        if "s" in identifiers(blk["witness"]):
            problems.append(f"block {idx}: witness {blk['witness']} involves s")
            continue
        try:
            stored = evaluate(blk["witness"], point)
        except ZeroDivisionError:
            problems.append(f"block {idx}: witness has a pole at the test point")
            continue
        if stored == 0:
            problems.append(f"block {idx}: witness is zero at the test point")
        for k in range(len(rows) + 1):
            s = Fraction(rng.randint(-WIDE, WIDE) * (len(rows) + 1) + k)
            pencil = sys.pencil_at(point, s)
            value = det_q([[pencil[i][j] for j in cols] for i in rows])
            if value != stored:
                problems.append(f"block {idx}: determinant {value} at s = {s} differs "
                                f"from the stored witness value {stored}")
                break
    return problems
