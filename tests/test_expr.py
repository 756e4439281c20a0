import random
from fractions import Fraction

import pytest

from sccheck import ParamSpace, Polynomial, RationalFunction, parse_expr, render
from sccheck.expr import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_TERMS,
    ExprSource,
    ParseError,
    UnknownIdentifierError,
    ZeroDivisorError,
)

from conftest import K12
from helpers import rand_rf

SP = ParamSpace(["z1", "z2", "z3", "z4", "z5", "g"])


def test_zero_literal():
    assert parse_expr("0", SP).is_zero()


def test_stiffness_entry_matches_hand_built_value():
    parsed = parse_expr(K12, SP)
    z1, z2, z3, z4 = (RationalFunction(SP.var(n)) for n in ("z1", "z2", "z3", "z4"))
    g = RationalFunction(SP.var("g"))
    hand = 3 * g * (z1 + 2 * z2 + 2 * z3) / (z4 * (4 * z1 + 3 * z2 + 12 * z3))
    assert parsed == hand


def test_binomial_expansion_cancels():
    assert parse_expr("(z1+z2)^2 - z1^2 - 2*z1*z2 - z2^2", SP).is_zero()
    # expansion oracle: same identity built from the field operations
    z1 = RationalFunction(SP.var("z1"))
    z2 = RationalFunction(SP.var("z2"))
    assert ((z1 + z2) ** 2 - z1 ** 2 - 2 * z1 * z2 - z2 ** 2).is_zero()


@pytest.mark.parametrize("left,right", [
    ("z1+z2*z3", "z1+(z2*z3)"),
    ("z1*z2+z3", "(z1*z2)+z3"),
    ("z1-z2-z3", "(z1-z2)-z3"),
    ("z1/z2/z3", "(z1/z2)/z3"),
    ("z1/z2*z3", "(z1/z2)*z3"),
    ("-z1^2", "-(z1^2)"),
    ("2^3", "8"),
    ("-2^2", "-4"),
    ("z1^2^3", "(z1^2)^3"),
    ("9/2", "4+1/2"),
])
def test_fixed_precedence(left, right):
    assert parse_expr(left, SP) == parse_expr(right, SP)


def test_unknown_identifier_is_named_with_position():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expr("z1 + bogus", SP)
    assert "bogus" in str(err.value)
    assert err.value.column == 6


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expr("2z1", SP)


def test_zero_divisor_is_rejected():
    with pytest.raises(ZeroDivisorError):
        parse_expr("1/(z1-z1)", SP)
    with pytest.raises(ZeroDivisorError):
        parse_expr("z2/0", SP)


def test_exponent_must_be_a_literal():
    with pytest.raises(ParseError):
        parse_expr("z1^z2", SP)
    with pytest.raises(ParseError):
        parse_expr("z1^-1", SP)


@pytest.mark.parametrize("text, column, message", [
    ("(z1+1)^1000", 7, f"exponent 1000 is above the bound {MAX_EXPONENT}"),
    ("(z1+1)^3000", 7, f"exponent 3000 is above the bound {MAX_EXPONENT}"),
    # C(3 + 30 - 1, 30) = 496 monomials of degree 30 in three terms
    ("(z1+z2+1)^30", 10, f"'^' could give 496 terms, above the bound {MAX_TERMS}"),
    ("(z1+z2)^15*(z1+z2)^16", 11, f"'*' could give 272 terms, above the bound {MAX_TERMS}"),
    ("1/(z1+z2)^16/(z1+z2)^16", 13, f"'/' could give 289 terms, above the bound {MAX_TERMS}"),
    # Nested powers: every exponent is 100, but the sizes multiply.
    ("((2^100)^100)^100", 9,
     f"'^' could give 10100-bit coefficients, above the bound {MAX_COEFF_BITS}"),
    ("((z1^100)^100)^100", 10, f"'^' could give degree 10000, above the bound {MAX_DEGREE}"),
    ("(2^64)^64", 7, f"'^' could give 4160-bit coefficients, above the bound {MAX_COEFF_BITS}"),
    ("(1/(z1*z2)^10)^60", 15, f"'^' could give degree 1200, above the bound {MAX_DEGREE}"),
])
def test_parse_work_is_bounded_at_the_operator(text, column, message):
    with pytest.raises(ParseError) as err:
        parse_expr(ExprSource(text, origin="A[1][1]"), SP)
    assert str(err.value) == f"A[1][1]:1:{column}: {message}"


def test_expressions_at_the_parse_bounds_still_parse():
    assert len(parse_expr(f"z1^{MAX_EXPONENT}", SP).num.terms) == 1
    assert len(parse_expr("(z1+1)^100", SP).num.terms) == 101
    assert len(parse_expr("(z1+z2)^15*(z1+z2)^15", SP).num.terms) == 31  # bound 16 * 16 = 256
    assert parse_expr("(z1^10)^100", SP).num.degree_in(0) == MAX_DEGREE
    assert parse_expr("(2^63)^64", SP).num.constant_value() == 2 ** (63 * 64)  # 64 * 64 bits


@pytest.mark.parametrize("bad", [
    "", "(", "(z1", "z1+", "z1 z2", "*z1", "z1+*z2", "z1)", "1..2", "a$b", "²", "z1^²",
])
def test_rejected_inputs_carry_a_position(bad):
    with pytest.raises(ParseError) as err:
        parse_expr(bad, SP)
    assert err.value.line >= 1
    assert 1 <= err.value.column <= len(bad) + 1


def test_origin_offsets_flow_into_diagnostics():
    src = ExprSource("z1 + qq", origin="B[2][1]", line=4, column=10)
    with pytest.raises(ParseError) as err:
        parse_expr(src, SP)
    assert "B[2][1]" in str(err.value)
    assert err.value.line == 4
    assert err.value.column == 15


def test_render_round_trip_on_random_trees():
    rng = random.Random(1806)
    for _ in range(300):
        value = rand_rf(SP, rng)
        text = render(value)
        assert parse_expr(text, SP) == value


def test_render_round_trip_on_awkward_values():
    cases = [
        RationalFunction.from_const(SP, Fraction(-9, 2)),
        RationalFunction(SP.zero()),
        RationalFunction(-SP.var("z1") - SP.one(), SP.var("z2") * 2),
        parse_expr(K12, SP),
        RationalFunction(SP.s() ** 3 - SP.var("z1"), SP.var("z4")),
    ]
    for value in cases:
        assert parse_expr(render(value), SP) == value


def test_str_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    space = ParamSpace(["z1", "z2", "z3"])
    monomials = st.tuples(*[st.integers(0, 3)] * space.nvars)
    coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)

    def polynomials(min_size=0):
        return st.dictionaries(monomials, coefficients, min_size=min_size, max_size=5).map(
            lambda terms: Polynomial(space, terms))

    nonzero = polynomials(min_size=1).filter(lambda p: not p.is_zero())
    values = st.one_of(
        polynomials(),
        st.builds(RationalFunction, polynomials(), nonzero),
    )

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(values)
    def round_trip(x):
        text = str(x)
        parsed = parse_expr(text, space)
        assert parsed == (x if isinstance(x, RationalFunction) else RationalFunction(x))
        assert str(parsed) == text

    round_trip()
