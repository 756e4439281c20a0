"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: determinants
come from permanent-style expansion over the field operations, univariate
gcds from textbook Euclid over Q, independence from minor enumeration.
"""

import itertools
from fractions import Fraction

from sccheck import Polynomial, RationalFunction, SymMatrix, SystemDef


def rand_poly(space, rng, max_terms=4, max_exp=2, allow_s=True, nonzero=False):
    nvars = space.nvars
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            mono = [0] * nvars
            for _ in range(rng.randint(0, 2)):
                limit = nvars if allow_s else nvars - 1
                mono[rng.randrange(limit)] += rng.randint(1, max_exp)
            coeff = rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)])
            mono = tuple(mono)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        p = Polynomial(space, terms)
        if not nonzero or not p.is_zero():
            return p


def rand_rf(space, rng, allow_s=True):
    num = rand_poly(space, rng, allow_s=allow_s)
    den = rand_poly(space, rng, max_terms=2, allow_s=allow_s, nonzero=True)
    return RationalFunction(num, den)


def rand_point(space, rng, lo=-9, hi=9):
    while True:
        point = {name: Fraction(rng.randint(lo, hi)) for name in space.variables}
        if all(v != 0 for v in point.values()):
            return point


def sparse_entry(space, rng):
    """An s-free entry from {0, 1, -1, z_i, products}, mostly zero."""
    roll = rng.random()
    if roll < 0.45:
        return "0"
    if roll < 0.60:
        return rng.choice(["1", "-1"])
    z = rng.choice(space.params)
    if roll < 0.90:
        return z
    return f"{z}*{rng.choice(space.params)}"


def rand_system(space, rng, max_n=4, max_m=2):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    A = SymMatrix.parse(space, [[sparse_entry(space, rng) for _ in range(n)] for _ in range(n)])
    B = SymMatrix.parse(space, [[sparse_entry(space, rng) for _ in range(m)] for _ in range(n)])
    return SystemDef(f"random-{n}x{m}", space, A, B)


def chain_system(space, k, spring, name=None):
    """A k-chain: k unit masses in a row between two walls, joined by the
    springs spring1..spring(k+1).  2k states, positions then velocities, and
    one force input on the first mass."""
    ks = [f"{spring}{i}" for i in range(1, k + 2)]
    A = [["0"] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        A[i][k + i] = "1"
        A[k + i][i] = f"-({ks[i]}+{ks[i + 1]})"
        if i > 0:
            A[k + i][i - 1] = ks[i]
        if i < k - 1:
            A[k + i][i + 1] = ks[i + 1]
    B = [["1" if i == k else "0"] for i in range(2 * k)]
    return SystemDef(name or f"{spring}-chain{k}", space,
                     SymMatrix.parse(space, A), SymMatrix.parse(space, B))


def rand_matrix(space, rng, rows, cols, allow_s=False):
    return SymMatrix.parse(
        space,
        [[sparse_entry(space, rng) if not allow_s or rng.random() < 0.8 else space.s_name
          for _ in range(cols)] for _ in range(rows)],
    )


# -- independent oracles -------------------------------------------------------


def det_permutation(M: SymMatrix) -> RationalFunction:
    """Leibniz-formula determinant: sum over permutations, sign by parity."""
    n = M.rows
    assert n == M.cols
    total = RationalFunction.from_const(M.space, 0)
    for perm in itertools.permutations(range(n)):
        sign = _parity(perm)
        term = RationalFunction.from_const(M.space, sign)
        for i in range(n):
            term = term * M.entries[i][perm[i]]
        total = total + term
    return total


def _parity(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def univariate_in_s(p: Polynomial, point) -> list[Fraction]:
    """Coefficient list (low to high s power) of p evaluated at a z-point."""
    coeffs = [Fraction(0)] * (max(p.s_degree(), 0) + 1)
    for e, c in p.coeffs_in(p.space.s_index).items():
        coeffs[e] = c.evaluate(point)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def euclid_gcd_degree(polys: list[list[Fraction]]) -> int:
    """Degree of the monic gcd of univariate rational polynomials."""
    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while len(a) > 1 and a[-1] == 0:
                a.pop()
            if not any(a):
                return [Fraction(0)]
        return a

    g = [Fraction(0)]
    for p in polys:
        p = p[:]
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        if not any(p):
            continue
        if not any(g):
            g = p
            continue
        a, b = g, p
        while any(b):
            a, b = b, rem(a, b)
        g = a
        if len(g) == 1:
            break
    return len(g) - 1 if any(g) else -1


def pseudo_rem_in_s(f: Polynomial, g: Polynomial) -> Polynomial:
    """Textbook pseudo-remainder of f by g, univariate in s; zero iff g | f
    over F(z)[s]."""
    space = f.space
    s_idx = space.s_index
    dg = g.degree_in(s_idx)
    lc_g = g.coeffs_in(s_idx)[dg]
    r = f
    while not r.is_zero() and r.degree_in(s_idx) >= dg:
        dr = r.degree_in(s_idx)
        lc_r = r.coeffs_in(s_idx)[dr]
        shift = [0] * space.nvars
        shift[s_idx] = dr - dg
        r = lc_g * r - lc_r * Polynomial(space, {tuple(shift): Fraction(1)}) * g
    return r


def to_sympy(sympy, value):
    """A Polynomial or RationalFunction as a sympy expression, through its
    text; the caller passes the sympy module, which stays optional."""
    return sympy.sympify(str(value).replace("^", "**"))


def brute_force_rank(M: SymMatrix, labels) -> int:
    """Rank of the selected columns by exhaustive minor enumeration."""
    sub = M.columns_by_labels(labels)
    upper = min(sub.rows, sub.cols)
    for k in range(upper, 0, -1):
        for rows in itertools.combinations(range(sub.rows), k):
            for cols in itertools.combinations(range(sub.cols), k):
                if not det_permutation(sub.submatrix(rows, cols)).is_zero():
                    return k
    return 0


def brute_force_bases(M: SymMatrix):
    """All bases of the column matroid, straight from the definition."""
    ground = M.col_labels
    r = brute_force_rank(M, ground)
    return [
        combo
        for combo in itertools.combinations(ground, r)
        if brute_force_rank(M, combo) == r
    ]
