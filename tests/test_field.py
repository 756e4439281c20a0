import math
import operator
import random
from fractions import Fraction

import pytest

from sccheck import (
    ParamSpace,
    PoleError,
    Polynomial,
    RationalFunction,
    SpaceMismatchError,
    gcd_in_s,
    parse_expr,
    poly_gcd,
)
from sccheck.field import divides_in_s, poly_divexact

from conftest import K12, K13, K22, K23
from helpers import pseudo_rem_in_s, rand_point, rand_poly, to_sympy

SP = ParamSpace(["z1", "z2", "z3"])
Z1, Z2, Z3, S = SP.var("z1"), SP.var("z2"), SP.var("z3"), SP.s()


def test_param_space_rejects_bad_names():
    with pytest.raises(ValueError):
        ParamSpace(["z1", "z1"])
    with pytest.raises(ValueError):
        ParamSpace(["z1", "s"])
    with pytest.raises(ValueError):
        ParamSpace(["not an identifier"])


def test_additive_identity():
    x = RationalFunction(Z1)
    zero = RationalFunction.from_const(SP, 0)
    assert x + zero == x
    assert (x - x).is_zero()


def test_multiplicative_inverse_pair():
    sp = ParamSpace(["R1", "R2"])
    denom = sp.var("R1") + sp.var("R2")
    product = RationalFunction(sp.one(), denom) * RationalFunction(denom)
    assert product.is_one()
    assert product == RationalFunction.from_const(sp, 1)


def test_commutator_is_zero():
    assert (Z1 * Z2 - Z2 * Z1).is_zero()
    assert RationalFunction(Z1 * Z2 - Z2 * Z1).is_zero()


def test_space_mismatch_is_an_error():
    other = ParamSpace(["w"])
    w = RationalFunction(other.var("w"))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(SpaceMismatchError, match="operands live in different spaces"):
            op(RationalFunction(Z1), w)
    # The space is checked before the zero divisor.
    with pytest.raises(SpaceMismatchError):
        RationalFunction(Z1) / RationalFunction(other.zero())


def test_integer_coefficients_stay_exact():
    # A library caller may build a Polynomial from ints; divisions stay in Q.
    p = Polynomial(SP, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 3})
    half = poly_divexact(p, Polynomial(SP, {(0, 0, 0, 0): 2}))
    assert all(type(c) is Fraction for c in half.terms.values())
    assert half == p * Fraction(1, 2)
    assert str(half) == "1/2*z1 + 3/2"
    assert str(RationalFunction(p, Polynomial(SP, {(0, 0, 0, 0): 3}))) == "1/3*z1 + 1"
    assert str(poly_divexact(p * p, p)) == "z1 + 3"


def test_equality_is_independent_of_reduction_depth():
    # (z1+z2)/(z1+z2) is stored unreduced below the threshold, yet equals 1.
    q = RationalFunction(Z1 + Z2, Z1 + Z2)
    assert len(q.num.terms) == 2
    assert q == RationalFunction.from_const(SP, 1)


def test_primitive_integer_pair_is_kept_as_given(monkeypatch):
    # Its content is 1, so normalising scales nothing and shares the operand.
    scalar_factors = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        if isinstance(other, (int, Fraction)):
            scalar_factors.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    p = Polynomial(SP, {(1, 0, 0, 0): 2, (0, 0, 0, 1): -3, (0, 0, 0, 0): 4})
    x = RationalFunction(p)
    assert scalar_factors == []
    assert x.num is p and x.den.is_one()
    assert RationalFunction(p * 2, SP.const(2)).num == p
    assert scalar_factors == [2, Fraction(1, 2), Fraction(1, 2)]


def test_involves_s_reads_numerator_and_denominator():
    # Free of s means that neither side mentions s; nothing is reduced first.
    assert RationalFunction(S * Z1, S).involves_s()
    assert RationalFunction(Z1, S - Z2).involves_s()
    assert RationalFunction(S - Z1).involves_s()
    assert not RationalFunction(Z1 * Z2, Z3 + SP.one()).involves_s()
    assert not RationalFunction(S - S, S).involves_s()


def test_denominator_leading_coefficient_is_positive():
    q = RationalFunction(Z1, -Z2 + Z3)
    assert q.den.leading_coeff() > 0
    assert q == RationalFunction(-Z1, Z2 - Z3)


def test_stiffness_determinant_regression():
    """K12*K23 - K13*K22 collapses to one frozen rational function."""
    sp = ParamSpace(["z1", "z2", "z3", "z4", "z5", "g"])
    k12, k13, k22, k23 = (parse_expr(t, sp) for t in (K12, K13, K22, K23))
    value = k12 * k23 - k13 * k22
    frozen = parse_expr(
        "-(9*g^2*(z1+2*z2+2*z3)*(4*z1+21*z2+12*z3))/(4*z4*z5*(4*z1+3*z2+12*z3)^2)", sp
    )
    assert value == frozen
    # Independent numeric spot check straight from the defining fractions.
    z1, z2, z3, z4, z5, g = (Fraction(v) for v in (2, 3, 5, 7, 11, 13))
    D = 4 * z1 + 3 * z2 + 12 * z3
    k12n = 3 * g * (z1 + 2 * z2 + 2 * z3) / (z4 * D)
    k13n = -(9 * z2 * g) / (2 * z4 * D)
    k22n = -(9 * g * (z1 + 2 * z2 + 2 * z3)) / (2 * z5 * D)
    k23n = -(3 * g * (z1 + 3 * z2 + 3 * z3)) / (z5 * D)
    point = {"z1": z1, "z2": z2, "z3": z3, "z4": z4, "z5": z5, "g": g}
    assert value.evaluate(point) == k12n * k23n - k13n * k22n


def test_evaluate_simple_substitution():
    sp = ParamSpace(["R3", "R4"])
    q = parse_expr("R4/(R3+R4)", sp)
    assert q.evaluate({"R3": 1, "R4": 1}) == Fraction(1, 2)


def test_evaluate_balanced_bridge_entry():
    # Second row of [b, Ab] for the bridge: vanishes exactly on balance.
    sp = ParamSpace(["R1", "R2", "R3", "R4", "L", "C"])
    entry = parse_expr("-(R4/(R3+R4) - R2/(R1+R2))/(L*C)", sp)
    balanced = {"R1": 1, "R2": 1, "R3": 1, "R4": 1, "L": 1, "C": 1}
    assert entry.evaluate(balanced) == 0
    unbalanced = {"R1": 1, "R2": 2, "R3": 1, "R4": 1, "L": 1, "C": 1}
    # Direct-substitution oracle, frozen: -(1/2 - 2/3) = 1/6.
    oracle = -(Fraction(1, 2) - Fraction(2, 3))
    assert oracle == Fraction(1, 6)
    assert entry.evaluate(unbalanced) == Fraction(1, 6)


def test_evaluate_pole_raises():
    q = RationalFunction(SP.one(), Z1 - Z2)
    with pytest.raises(PoleError):
        q.evaluate({"z1": 3, "z2": 3, "z3": 0})


def test_evaluate_requires_occurring_variables():
    with pytest.raises(KeyError):
        (Z1 * Z2).evaluate({"z1": 1})


def _assert_no_zero_terms(*polys):
    for p in polys:
        assert all(c != 0 for c in p.terms.values()), p.terms


def _assert_normal_pair(*values):
    """num and den have integer coefficients of joint gcd 1, and den's
    leading coefficient is positive."""
    for x in values:
        _assert_no_zero_terms(x.num, x.den)
        coeffs = [*x.num.terms.values(), *x.den.terms.values()]
        assert all(Fraction(c).denominator == 1 for c in coeffs), x
        assert math.gcd(*(int(c) for c in coeffs)) == 1, x
        assert x.den.leading_coeff() > 0, x


def test_ring_laws_on_random_polynomials():
    rng = random.Random(20240801)
    for _ in range(500):
        p = rand_poly(SP, rng)
        q = rand_poly(SP, rng)
        r = rand_poly(SP, rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        _assert_no_zero_terms(p + q, p - p, p * q, p * (q - q), p * 0, p * Fraction(-2, 3),
                              -p, p ** 2)


def test_product_of_nonzero_is_nonzero():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(SP, rng, nonzero=True)
        q = rand_poly(SP, rng, nonzero=True)
        assert (p * q - q * p).is_zero()
        assert not (p * q).is_zero()


def test_evaluate_is_a_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        p = rand_poly(SP, rng)
        q = rand_poly(SP, rng)
        point = rand_point(SP, rng)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_gcd_in_s_units_and_shared_factors():
    assert gcd_in_s(S - Z1, SP.one()).is_one()
    assert gcd_in_s(S * (S - SP.one()), S) == S
    assert gcd_in_s((S - Z1) ** 2, (S - Z1) * Z3) == S - Z1
    assert gcd_in_s(SP.zero(), SP.zero()).is_zero()
    # gcd with 0 is the other argument, normalized.
    g = gcd_in_s(SP.zero(), (S - Z1) * 2)
    assert g == S - Z1


def test_gcd_in_s_divides_both_arguments():
    rng = random.Random(31337)
    for _ in range(60):
        p = rand_poly(SP, rng, nonzero=True)
        q = rand_poly(SP, rng, nonzero=True)
        g = gcd_in_s(p, q)
        assert pseudo_rem_in_s(p, g).is_zero()
        assert pseudo_rem_in_s(q, g).is_zero()


def test_gcd_in_s_finds_planted_common_factor():
    rng = random.Random(314)
    planted = S - Z1
    for _ in range(25):
        p = rand_poly(SP, rng, nonzero=True) * planted
        q = rand_poly(SP, rng, nonzero=True) * planted
        g = gcd_in_s(p, q)
        assert g.s_degree() >= 1
        assert pseudo_rem_in_s(g, planted).is_zero()


def _divides(p, d):
    try:
        poly_divexact(p, d)
        return True
    except ValueError:
        return False


def test_poly_gcd_recovers_common_factor():
    rng = random.Random(4242)
    for _ in range(40):
        common = rand_poly(SP, rng, max_terms=2, nonzero=True)
        p = rand_poly(SP, rng, nonzero=True) * common
        q = rand_poly(SP, rng, nonzero=True) * common
        g = poly_gcd(p, q)
        assert _divides(p, g) and _divides(q, g)
        assert _divides(g, common)


def test_s_degree_conventions():
    assert SP.zero().s_degree() == -1
    assert Z1.s_degree() == 0
    assert (S ** 3 * Z2 + S).s_degree() == 3


def test_poly_divexact_by_a_constant_multiplies_by_its_inverse():
    rng = random.Random(2718)
    for c in (1, 2, -3, Fraction(1, 2), Fraction(-5, 3)):
        for _ in range(10):
            p = rand_poly(SP, rng)
            inverse = p * (1 / Fraction(c))
            q = poly_divexact(p, SP.const(c))
            assert q == inverse
            assert str(q) == str(inverse)
            assert q * c == p


def test_poly_divexact_errors():
    with pytest.raises(ZeroDivisionError):
        poly_divexact(Z1 + SP.one(), SP.zero())
    with pytest.raises(ZeroDivisionError):
        poly_divexact(SP.zero(), SP.zero())
    with pytest.raises(ValueError):
        poly_divexact(Z1 + SP.one(), Z2)
    with pytest.raises(ValueError):
        poly_divexact(S ** 2 + Z1, S + Z1)


def test_divides_in_s_agrees_with_the_pseudo_remainder():
    rng = random.Random(1618)
    for _ in range(40):
        g = rand_poly(SP, rng, nonzero=True)
        p = rand_poly(SP, rng)
        assert divides_in_s(g, p) == pseudo_rem_in_s(p, g).is_zero()
        assert divides_in_s(g, p * g * Z3)
        if g.s_degree() > 0:
            assert not divides_in_s(g, g + Z1 * S ** (g.s_degree() - 1) + SP.one())


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5772)
    for _ in range(20):
        common = rand_poly(SP, rng, max_terms=2, nonzero=True)
        p = rand_poly(SP, rng, nonzero=True) * common
        q = rand_poly(SP, rng, nonzero=True) * common
        theirs = sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q))
        ratio = sympy.cancel(to_sympy(sympy, poly_gcd(p, q)) / theirs)
        assert ratio.is_Rational and ratio != 0


def test_gcd_in_s_matches_sympy_up_to_an_s_free_factor():
    # gcd_in_s works in F(z)[s], where s-free factors are units; sympy.gcd
    # works in Q[z, s].  The two agree up to a nonzero s-free factor.
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol(SP.s_name)
    rng = random.Random(1618)
    shared = 0
    for _ in range(20):
        common = rand_poly(SP, rng, max_terms=3, nonzero=True)
        p = rand_poly(SP, rng, nonzero=True) * common
        q = rand_poly(SP, rng, nonzero=True) * common
        ours = gcd_in_s(p, q)
        theirs = sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q))
        ratio = sympy.cancel(to_sympy(sympy, ours) / theirs)
        assert ratio != 0 and not ratio.has(s), (p, q)
        shared += ours.s_degree() > 0
    assert shared >= 5


def _rational_functions(min_den_terms=1):
    """A hypothesis strategy for elements of Q(z1, z2)(s) with up to three
    terms above and below the bar."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    space = ParamSpace(["z1", "z2"])
    monomials = st.tuples(*[st.integers(0, 2)] * space.nvars)
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)

    def polynomials(min_size):
        return st.dictionaries(monomials, coefficients, min_size=min_size, max_size=3).map(
            lambda terms: Polynomial(space, terms))

    return st.builds(RationalFunction, polynomials(0), polynomials(min_den_terms))


_PROPERTY_SETTINGS = dict(max_examples=60, deadline=None, database=None, derandomize=True)


def test_field_axioms_property():
    hypothesis = pytest.importorskip("hypothesis")
    values = _rational_functions()

    @hypothesis.settings(**_PROPERTY_SETTINGS)
    @hypothesis.given(values, values, values)
    def axioms(x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x
        if not x.is_zero():
            assert (x / x).is_one()

    axioms()

    # One operation on at most two values stays below REDUCTION_THRESHOLD,
    # so these checks never wait on a multivariate gcd.
    @hypothesis.settings(**_PROPERTY_SETTINGS)
    @hypothesis.given(values, values)
    def normal_forms(x, y):
        _assert_normal_pair(x, x + y, x - y, x - x, x * y, -x, x ** 2, x * 0)
        if not x.is_zero():
            _assert_normal_pair(y / x, x / x)

    normal_forms()


def test_parse_round_trip_with_multi_term_denominators_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(**_PROPERTY_SETTINGS)
    @hypothesis.given(_rational_functions(min_den_terms=2))
    def round_trip(x):
        hypothesis.assume(len(x.den.terms) >= 2)  # a zero numerator makes it 1
        assert parse_expr(str(x), x.space) == x

    round_trip()
