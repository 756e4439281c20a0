"""Exact arithmetic in Q[z1..zq, s] and its fraction field.

Polynomials are stored sparsely as a map from exponent vectors to nonzero
Fraction coefficients, so two polynomials are equal exactly when their term
maps are equal (canonical form).  The monomial order is graded lexicographic
over the declared parameter order with the pencil indeterminate s last; all
leading-term and sign conventions below refer to that order.

Rational functions keep a numerator/denominator pair.  Normalization removes
the common rational content and makes the denominator's leading coefficient
positive; the full multivariate gcd reduction is deferred until a term count
threshold is exceeded (``REDUCTION_THRESHOLD``), because equality is decided
by cross multiplication and is exact regardless of how far a value has been
reduced.  A constant denominator needs no gcd: the content step reduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "ParamSpace",
    "Polynomial",
    "RationalFunction",
    "PoleError",
    "SpaceMismatchError",
    "poly_gcd",
    "poly_lcm",
    "poly_divexact",
    "gcd_in_s",
    "divides_in_s",
    "REDUCTION_THRESHOLD",
]

# Full gcd reduction of a rational function is only attempted once numerator
# or denominator exceed this many terms; smaller values stay as produced.
REDUCTION_THRESHOLD = 64


class SpaceMismatchError(ValueError):
    """Raised when operands belong to different parameter spaces."""


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a denominator root."""


@dataclass(frozen=True)
class ParamSpace:
    """Ordered parameter names plus the distinguished pencil indeterminate.

    The parameter order is fixed at construction; the monomial order (and so
    every canonical form) depends on it.  The pencil indeterminate always
    sorts last.
    """

    params: tuple[str, ...]
    s_name: str = "s"

    def __init__(self, params: Iterable[str], s_name: str = "s"):
        params = tuple(params)
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        if s_name in params:
            raise ValueError(f"pencil indeterminate {s_name!r} clashes with a parameter")
        for name in (*params, s_name):
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "s_name", s_name)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.params + (self.s_name,)

    @property
    def nvars(self) -> int:
        return len(self.params) + 1

    @property
    def s_index(self) -> int:
        return len(self.params)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in space {self.variables}") from None

    # -- element constructors ------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.const(1)

    def const(self, c: int | Fraction) -> Polynomial:
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> Polynomial:
        i = self.index(name)
        expt = [0] * self.nvars
        expt[i] = 1
        return Polynomial(self, {tuple(expt): Fraction(1)})

    def s(self) -> Polynomial:
        return self.var(self.s_name)


def _mono_key(mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # Graded lex: total degree first, then lexicographic with the first
    # parameter most significant and s least significant.
    return (sum(mono), mono)


class Polynomial:
    """Sparse exact multivariate polynomial over Q.

    ``terms`` maps exponent tuples (one entry per space variable, s last) to
    nonzero exact coefficients, Fractions or ints, stored as given.  Instances
    are immutable; every operation returns a fresh canonical value.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: ParamSpace, terms: Mapping[tuple[int, ...], Fraction]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            if coeff:
                clean[mono] = coeff
        self.space = space
        self.terms = clean

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.space.nvars: Fraction(1)}

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, var_index: int) -> int:
        """Largest exponent of the given variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m[var_index] for m in self.terms)

    def s_degree(self) -> int:
        """Degree in the pencil indeterminate; -1 stands in for -inf on zero."""
        return self.degree_in(self.space.s_index)

    def involves_s(self) -> bool:
        return self.s_degree() > 0

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_mono_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def content(self) -> Fraction:
        """Positive gcd of all coefficients (0 for the zero polynomial).

        For rational coefficients this is gcd(numerators) / lcm(denominators),
        so dividing by it leaves coprime integer coefficients.
        """
        if not self.terms:
            return Fraction(0)
        lcm_den = 1
        for c in self.terms.values():
            lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
        gcd_num = 0
        for c in self.terms.values():
            gcd_num = math.gcd(gcd_num, abs(c.numerator * (lcm_den // c.denominator)))
        return Fraction(gcd_num, lcm_den)

    # -- ring operations -----------------------------------------------------

    def _check_space(self, other: Polynomial) -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"operands live in different spaces: {self.space.variables} vs {other.space.variables}"
            )

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(self.space, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.space, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Polynomial | int | Fraction) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return self.space.zero()
            return Polynomial(self.space, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Polynomial(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.space.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    # -- structure helpers ---------------------------------------------------

    def coeffs_in(self, var_index: int) -> dict[int, Polynomial]:
        """Split into coefficient polynomials of powers of one variable."""
        buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for mono, coeff in self.terms.items():
            e = mono[var_index]
            rest = list(mono)
            rest[var_index] = 0
            buckets.setdefault(e, {})[tuple(rest)] = coeff
        return {e: Polynomial(self.space, t) for e, t in buckets.items()}

    def leading_coeff_in(self, var_index: int) -> Polynomial:
        d = self.degree_in(var_index)
        if d < 0:
            raise ValueError("zero polynomial")
        return self.coeffs_in(var_index)[d]

    def occurring_variables(self) -> set[int]:
        occ: set[int] = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    occ.add(i)
        return occ

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        """Exact value at a rational point covering every occurring variable."""
        values: dict[int, Fraction] = {}
        for name, v in point.items():
            values[self.space.index(name)] = Fraction(v)
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    if i not in values:
                        raise KeyError(
                            f"point does not assign {self.space.variables[i]!r}"
                        )
                    term *= values[i] ** e
            total += term
        return total

    # -- rendering (matches the expression grammar of sccheck.expr) -----------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self.terms, key=_mono_key, reverse=True):
            coeff = self.terms[mono]
            body = self._term_str(mono, abs(coeff))
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def _term_str(self, mono: tuple[int, ...], coeff: Fraction) -> str:
        factors: list[str] = []
        for name, e in zip(self.space.variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coeff)
        if coeff != 1:
            factors.insert(0, str(coeff))
        return "*".join(factors)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- exact division and gcd machinery -----------------------------------------


def poly_divexact(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact quotient p/d; raises ValueError if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    if d.is_constant():
        return p * Fraction(1, d.constant_value())
    space = p.space
    quot: dict[tuple[int, ...], Fraction] = {}
    rem = p
    lm_d = d.leading_monomial()
    lc_d = d.terms[lm_d]
    while not rem.is_zero():
        lm_r = rem.leading_monomial()
        diff = tuple(a - b for a, b in zip(lm_r, lm_d))
        if any(e < 0 for e in diff):
            raise ValueError("inexact polynomial division")
        c = Fraction(rem.terms[lm_r], lc_d)
        quot[diff] = quot.get(diff, Fraction(0)) + c
        rem = rem - Polynomial(space, {diff: c}) * d
    return Polynomial(space, quot)


def _pseudo_rem(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Pseudo-remainder of f by g in the given variable (deg f >= deg g)."""
    df = f.degree_in(var)
    dg = g.degree_in(var)
    lc_g = g.leading_coeff_in(var)
    r = f
    e = df - dg + 1
    space = f.space
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lc_r = r.leading_coeff_in(var)
        shift = [0] * space.nvars
        shift[var] = dr - dg
        r = lc_g * r - lc_r * Polynomial(space, {tuple(shift): Fraction(1)}) * g
        e -= 1
    if e > 0 and not r.is_zero():
        r = (lc_g ** e) * r
    return r


def _subresultant_last(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Last nonzero member of the subresultant PRS of f, g in one variable,
    where deg f >= deg g in `var`.

    Knuth's Algorithm C: pseudo-remainders divided by g*h**delta keep the
    coefficients as small as a fraction-free scheme allows.
    """
    u, v = f, g
    space = u.space
    gg = space.one()
    h = space.one()
    while True:
        delta = u.degree_in(var) - v.degree_in(var)
        r = _pseudo_rem(u, v, var)
        if r.is_zero():
            return v
        u, v = v, poly_divexact(r, gg * h ** delta)
        gg = u.leading_coeff_in(var)
        if delta == 1:
            h = gg
        elif delta > 1:
            h = poly_divexact(gg ** delta, h ** (delta - 1))


def _normalized(p: Polynomial) -> Polynomial:
    """Canonical associate: integer-coprime coefficients, positive leading one."""
    if p.is_zero():
        return p
    c = p.content()
    if p.leading_coeff() < 0:
        c = -c
    return p * (1 / c)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd in Q[z1..zq, s], returned as the normalized primitive associate.

    Recursive subresultant scheme: pick the highest occurring variable as the
    main one, split off contents (gcds of the coefficient polynomials), and
    run the PRS on the primitive parts.
    """
    if p.is_zero():
        return _normalized(q)
    if q.is_zero():
        return _normalized(p)
    occ = p.occurring_variables() | q.occurring_variables()
    if not occ:
        return p.space.one()
    var = max(occ)
    cont_p, prim_p = _content_and_primitive(p, var)
    cont_q, prim_q = _content_and_primitive(q, var)
    cont = poly_gcd(cont_p, cont_q)
    if prim_p.degree_in(var) < prim_q.degree_in(var):
        prim_p, prim_q = prim_q, prim_p
    last = _subresultant_last(prim_p, prim_q, var)
    _, gcd_prim = _content_and_primitive(last, var)
    return _normalized(cont * gcd_prim)


def _content_and_primitive(p: Polynomial, var: int) -> tuple[Polynomial, Polynomial]:
    """Content (gcd of coefficients in `var`) and the primitive part."""
    coeffs = list(p.coeffs_in(var).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = poly_gcd(cont, c)
        if cont.is_one():
            break
    if cont.is_one():
        return cont, p
    return cont, poly_divexact(p, cont)


def poly_lcm(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero() or q.is_zero():
        return p.space.zero()
    return _normalized(poly_divexact(p * q, poly_gcd(p, q)))


def gcd_in_s(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd of p and q viewed in F(z)[s], where s-free factors are units.

    The representative returned is monic in s whenever the leading
    s-coefficient is a rational constant; otherwise it is the primitive
    integer-coprime associate with positive leading coefficient.  Any nonzero
    s-free gcd normalizes to 1, and gcd(0, 0) = 0.
    """
    space = p.space
    if p.is_zero() and q.is_zero():
        return space.zero()
    s_idx = space.s_index
    if p.is_zero() or q.is_zero():
        g = q if p.is_zero() else p
        return _normalize_in_s(_s_primitive(g, s_idx))
    pp = _s_primitive(p, s_idx)
    qq = _s_primitive(q, s_idx)
    if pp.degree_in(s_idx) == 0 or qq.degree_in(s_idx) == 0:
        return space.one()
    if pp.degree_in(s_idx) < qq.degree_in(s_idx):
        pp, qq = qq, pp
    last = _subresultant_last(pp, qq, s_idx)
    return _normalize_in_s(_s_primitive(last, s_idx))


def divides_in_s(g: Polynomial, p: Polynomial) -> bool:
    """True iff the nonzero g divides p in F(z)[s].

    The test is one pseudo-division in s: the remainder over F(z)[s] vanishes
    exactly when the pseudo-remainder does, since they differ by a power of
    g's leading s-coefficient.
    """
    if p.is_zero():
        return True
    s_idx = g.space.s_index
    if p.degree_in(s_idx) < g.degree_in(s_idx):
        return False
    return _pseudo_rem(p, g, s_idx).is_zero()


def _s_primitive(p: Polynomial, s_idx: int) -> Polynomial:
    _, prim = _content_and_primitive(p, s_idx)
    return prim


def _normalize_in_s(g: Polynomial) -> Polynomial:
    s_idx = g.space.s_index
    if g.degree_in(s_idx) == 0:
        return g.space.one()
    lc = g.leading_coeff_in(s_idx)
    if lc.is_constant():
        return g * Fraction(1, lc.constant_value())
    return _normalized(g)


# -- rational functions --------------------------------------------------------


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


class RationalFunction:
    """Element of F(z)(s) as a reduced-enough quotient of two polynomials.

    Equality is decided by cross multiplication (num1*den2 - num2*den1 == 0),
    which is exact no matter how far either side happens to be reduced.
    Instances are immutable and therefore not hashable by identity of value.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = num.space.one()
        if num.space != den.space:
            raise SpaceMismatchError("numerator and denominator in different spaces")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _normalize_pair(num, den)
        self.num = num
        self.den = den

    @property
    def space(self) -> ParamSpace:
        return self.num.space

    @classmethod
    def from_const(cls, space: ParamSpace, c: int | Fraction) -> RationalFunction:
        return cls(space.const(c))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def involves_s(self) -> bool:
        """True iff the value, fully reduced, still contains s."""
        if not self.den.involves_s():
            return self.num.involves_s()
        r = self.reduced()
        return r.num.involves_s() or r.den.involves_s()

    def reduced(self) -> RationalFunction:
        """Fully gcd-reduced copy (num and den coprime)."""
        if self.num.is_zero() or self.den.is_one():
            return self
        g = poly_gcd(self.num, self.den)
        if g.is_one():
            return self
        return RationalFunction(poly_divexact(self.num, g), poly_divexact(self.den, g))

    # -- field operations --------------------------------------------------------

    def _coerce(self, other: object) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_const(self.space, other)
        return None

    def __add__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = self.num * o.den
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(num, self.den * o.num)

    def __rtruediv__(self, other: object) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> RationalFunction:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return RationalFunction(self.num ** k, self.den ** k)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.space != o.space:
            return False
        return (self.num * o.den - o.num * self.den).is_zero()

    # Cross-multiplicative equality has no cheap consistent hash.
    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        den_val = self.den.evaluate(point)
        if den_val == 0:
            raise PoleError(f"denominator {self.den} vanishes at {dict(point)}")
        return self.num.evaluate(point) / den_val

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        if self.den.is_constant():
            return str(self.num * Fraction(1, self.den.constant_value()))
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _normalize_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if num.is_zero():
        return num, den.space.one()
    if max(len(num.terms), len(den.terms)) > REDUCTION_THRESHOLD and not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_one():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    common = _fraction_gcd(num.content(), den.content())
    if den.leading_coeff() < 0:
        common = -common
    return num * (1 / common), den * (1 / common)
