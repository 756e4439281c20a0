import itertools
import math
import random
from fractions import Fraction

import pytest

import sccheck.field
import sccheck.linalg
from sccheck import (
    ParamSpace,
    RationalFunction,
    SymMatrix,
    SystemDef,
    build_pencil,
    compose_parallel,
    det,
    det_cofactor,
    minors_gcd_in_s,
    parse_expr,
    rank,
)
from sccheck.field import REDUCTION_THRESHOLD, gcd_in_s
from sccheck.linalg import _cleared_rows

from conftest import K12, K13, K17, K22, K23, K27
from helpers import (
    det_permutation,
    euclid_gcd_degree,
    pseudo_rem_in_s,
    rand_matrix,
    rand_point,
    rand_poly,
    rand_system,
    to_sympy,
    univariate_in_s,
)

SP = ParamSpace(["z1", "z2", "z3"])


@pytest.fixture(scope="module")
def bench_pencil(example1):
    return example1.pencil()


def test_build_pencil_scalar():
    A = SymMatrix.parse(SP, [["0"]])
    B = SymMatrix.parse(SP, [["1"]])
    p = build_pencil(A, B)
    assert p.rows == 1 and p.cols == 2
    assert p.entries[0][0] == parse_expr("s", SP)
    assert p.entries[0][1] == parse_expr("1", SP)
    assert p.col_labels == ("a1", "a2")


def test_build_pencil_matches_example1_composite(example1):
    expected = SymMatrix.parse(SP, [
        ["s - z1", "-1", "0", "0", "0", "0", "0"],
        ["0", "s - z2", "0", "0", "0", "z3", "1"],
        ["0", "0", "s - 1", "-1", "0", "z1", "0"],
        ["0", "0", "0", "s", "-1", "0", "1"],
        ["0", "0", "-1", "0", "s", "0", "0"],
    ])
    assert example1.pencil() == expected


def test_build_pencil_matches_example2_pendulum(pendulum, ex2_space):
    expected = SymMatrix.parse(ex2_space, [
        ["s", "0", "0", "-1", "0", "0", "0"],
        ["0", "s", "0", "0", "-1", "0", "0"],
        ["0", "0", "s", "0", "0", "-1", "0"],
        ["0", "0", "0", "s", "0", "0", "1"],
        ["0", f"-({K12})", f"-({K13})", "0", "s", "0", K17],
        ["0", f"-({K22})", f"-({K23})", "0", "0", "s", K27],
    ])
    assert pendulum.pencil() == expected


def test_build_pencil_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_pencil(SymMatrix.parse(SP, [["0", "1"]]), SymMatrix.parse(SP, [["1"]]))
    with pytest.raises(ValueError):
        build_pencil(SymMatrix.parse(SP, [["0"]]), SymMatrix.parse(SP, [["1"], ["0"]]))
    with pytest.raises(ValueError):
        build_pencil(SymMatrix.parse(SP, [["s"]]), SymMatrix.parse(SP, [["1"]]))
    with pytest.raises(ValueError):
        build_pencil(SymMatrix.parse(SP, [["z1"]]), SymMatrix.parse(SP, [["s"]]))


def test_rank_identity():
    assert rank(SymMatrix.identity(SP, 3)) == 3


def test_rank_of_subsystem_controllability_matrices(sigma1, sigma2):
    from sccheck import controllability_matrix

    K1 = controllability_matrix(sigma1)
    expected1 = SymMatrix.parse(SP, [
        ["0", "0", "z3", "1"],
        ["z3", "1", "z2*z3", "z2"],
    ])
    assert [row for row in K1.entries] == [row for row in expected1.entries]
    assert rank(K1) == 2
    assert rank(controllability_matrix(sigma2)) == 3


def test_det_unimodular_witnesses(bench_pencil):
    w = det(bench_pencil.submatrix([0, 1], [1, 5]))  # columns a2, a6 of rows 1-2
    assert w == parse_expr("-z3", SP)
    w2 = det(bench_pencil.submatrix([0, 1], [1, 6]))  # columns a2, a7
    assert w2 == parse_expr("-1", SP)


def test_det_of_printed_bench_base_is_not_unimodular(bench_pencil):
    """Columns a3, a5, a7 of the lower block have determinant -s^2 + s."""
    sub = bench_pencil.submatrix([2, 3, 4], [2, 4, 6])
    value = det(sub)
    assert value == parse_expr("-s^2 + s", SP)
    assert det_cofactor(sub) == value
    assert det_permutation(sub) == value
    assert value.involves_s()


def test_det_of_stiffness_block_is_s_free(pendulum, ex2_space):
    pencil = pendulum.pencil()
    sub = pencil.submatrix([4, 5], [1, 2])  # columns a2, a3 of rows 5-6
    value = det(sub)
    expected = parse_expr(f"({K12})*({K23}) - ({K13})*({K22})", ex2_space)
    assert value == expected
    assert not value.is_zero()
    assert not value.involves_s()


@pytest.mark.parametrize("rows, text", [
    ([["1/(z1 + 1)", "z2/(z2 - z3)"], ["z3/(2*z1)", "1/(z1 + 1)"]],
     "(-z1^2*z2*z3 - 2*z1*z2*z3 + 2*z1*z2 - 2*z1*z3 - z2*z3)"
     "/(2*z1^3*z2 - 2*z1^3*z3 + 4*z1^2*z2 - 4*z1^2*z3 + 2*z1*z2 - 2*z1*z3)"),
    ([["s/(z1 + 1)", "1/(z2 - z3)"], ["z2/(2*z1)", "(s - z3)/(z1 + 1)"]],
     "(-2*z1*z2*z3*s + 2*z1*z2*s^2 + 2*z1*z3^2*s - 2*z1*z3*s^2 - z1^2*z2 - 2*z1*z2 - z2)"
     "/(2*z1^3*z2 - 2*z1^3*z3 + 4*z1^2*z2 - 4*z1^2*z3 + 2*z1*z2 - 2*z1*z3)"),
    ([["1/(z1 + 1)", "0", "z2"], ["0", "z3/(z2 - z3)", "1"], ["1/(2*z1)", "1", "0"]],
     "(-z1*z2*z3 - 2*z1*z2 + 2*z1*z3 - z2*z3)/(2*z1^2*z2 - 2*z1^2*z3 + 2*z1*z2 - 2*z1*z3)"),
], ids=["2x2", "2x2-in-s", "3x3"])
def test_det_printed_form_over_several_row_denominators(rows, text):
    # The printed form, not just the value: certificates print det's text.
    M = SymMatrix.parse(SP, rows)
    assert str(det(M)) == text
    assert det(M) == det_cofactor(M)


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(SymMatrix.parse(SP, [["1", "0"]]))


def test_bareiss_det_equals_cofactor_det_on_randoms():
    rng = random.Random(808)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        M = rand_matrix(SP, rng, n, n, allow_s=True)
        assert det(M) == det_cofactor(M)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(909)
    for _ in range(25):
        M = rand_matrix(SP, rng, rng.randint(1, 4), rng.randint(1, 5), allow_s=True)
        assert rank(M) == rank(M.transpose())


def test_full_rank_iff_some_maximal_minor_is_nonzero():
    rng = random.Random(117)
    for _ in range(25):
        n = rng.randint(1, 4)
        cols = rng.randint(n, n + 2)
        M = rand_matrix(SP, rng, n, cols, allow_s=True)
        has_nonzero_minor = any(
            not det_permutation(M.submatrix(range(n), sel)).is_zero()
            for sel in itertools.combinations(range(cols), n)
        )
        assert (rank(M) == n) == has_nonzero_minor


def test_pencil_evaluation_commutes_with_construction(sigma1):
    rng = random.Random(55)
    point = rand_point(SP, rng)
    pencil = build_pencil(sigma1.A, sigma1.B)
    evaluated = pencil.evaluate(point)
    n = sigma1.n
    s_val = point[SP.s_name]
    for i in range(n):
        for j in range(n):
            direct = -sigma1.A.entries[i][j].evaluate(point)
            if i == j:
                direct += s_val
            assert evaluated.entries[i][j].evaluate(point) == direct
        for k in range(sigma1.m):
            assert (
                evaluated.entries[i][n + k].evaluate(point)
                == sigma1.B.entries[i][k].evaluate(point)
            )


def test_minors_gcd_trivial_unit():
    M = SymMatrix.parse(SP, [["s", "1"]])
    g = minors_gcd_in_s(M, 1)
    assert g.is_one()


def test_minors_gcd_of_bench_pencil_is_a_unit(bench_pencil):
    g = minors_gcd_in_s(bench_pencil, 5)
    assert not g.is_zero()
    assert g.s_degree() == 0
    # numeric oracle: specialize z and take the gcd of the univariate minors
    rng = random.Random(2)
    for _ in range(3):
        point = rand_point(SP, rng)
        point.pop(SP.s_name)
        minors = []
        for sel in itertools.combinations(range(7), 5):
            minor = det_permutation(bench_pencil.submatrix(range(5), sel))
            minors.append(univariate_in_s(minor.num, point))
        assert euclid_gcd_degree(minors) == 0


def test_minors_gcd_detects_uncontrollable_mode():
    A = SymMatrix.parse(SP, [["z1", "0"], ["0", "z1"]])
    B = SymMatrix.parse(SP, [["1"], ["0"]])
    pencil = build_pencil(A, B)
    g = minors_gcd_in_s(pencil, 2)
    assert g == parse_expr("s - z1", SP).num
    # numeric oracle at a random parameter point: gcd degree 1 with root z1
    point = {"z1": Fraction(7), "z2": Fraction(1), "z3": Fraction(1)}
    minors = [
        univariate_in_s(det_permutation(pencil.submatrix([0, 1], sel)).num, point)
        for sel in itertools.combinations(range(3), 2)
    ]
    assert euclid_gcd_degree(minors) == 1


def test_minors_gcd_divides_individual_minors(bench_pencil):
    g = minors_gcd_in_s(bench_pencil, 4)
    rng = random.Random(33)
    selections = list(itertools.combinations(range(5), 4))
    col_selections = list(itertools.combinations(range(7), 4))
    for _ in range(10):
        rows = rng.choice(selections)
        cols = rng.choice(col_selections)
        minor = det(bench_pencil.submatrix(rows, cols))
        if minor.is_zero():
            continue
        assert pseudo_rem_in_s(minor.num, g).is_zero()


def test_minors_gcd_zero_when_all_minors_vanish():
    M = SymMatrix.parse(SP, [["0", "0"], ["0", "0"]])
    assert minors_gcd_in_s(M, 2).is_zero()


def test_minors_gcd_respects_column_cap():
    # The column cap is the checker's; the enumeration itself takes any width.
    wide = SymMatrix.parse(SP, [["1"] * 13])
    assert minors_gcd_in_s(wide, 1).is_one()


def test_s_gcd_of_minor_numerators_ignores_s_free_scaling(bench_pencil):
    g1 = minors_gcd_in_s(bench_pencil, 5)
    scaled_rows = [
        [v * parse_expr("z3", SP) for v in bench_pencil.entries[0]],
        *bench_pencil.entries[1:],
    ]
    scaled = SymMatrix(SP, scaled_rows, bench_pencil.col_labels)
    g2 = minors_gcd_in_s(scaled, 5)
    assert gcd_in_s(g1, g2) == g1 == g2


def test_cleared_rows_scale_every_entry_by_its_row_scale():
    # Constant denominators normalize out of the row scale, so an entry is
    # taken as its bare numerator only when its denominator is the scale.
    M = SymMatrix.parse(SP, [
        ["1/2", "z1/3", "s - 1/4"],
        ["1/(z1+1)", "1/2", "z1/3"],
        ["s - 1/4", "z2", "1/(z1+1)"],
        ["z1/(z1+1)", "1/(2*z1+2)", "s"],
    ])
    rows, scales = _cleared_rows(M)
    for entries, cleared, scale in zip(M.entries, rows, scales):
        for v, p in zip(entries, cleared):
            assert p * v.den == v.num * scale
            assert all(c.denominator == 1 for c in p.terms.values())


def test_det_over_constant_row_denominators_takes_no_gcd(monkeypatch):
    # Each row clears to integers under a constant scale, so the 70-term
    # numerator sits over a constant, which the content step reduces: a
    # multivariate gcd with it would be wasted work.
    rng = random.Random(5)
    M = SymMatrix.parse(SP, [[
        f"({rng.randint(1, 5)}*z1 - {rng.randint(1, 5)}*z2 + {rng.randint(1, 5)}*z3"
        f" + {rng.randint(1, 5)}*s + {rng.randint(1, 5)})/{rng.choice([2, 3, 5])}"
        for _ in range(4)] for _ in range(4)])
    gcd_args = []
    original = sccheck.field.poly_gcd
    monkeypatch.setattr(sccheck.field, "poly_gcd",
                        lambda p, q: gcd_args.append(p) or original(p, q))
    value = det(M)
    assert len(value.num.terms) > REDUCTION_THRESHOLD and value.den.is_constant()
    assert all(len(p.terms) <= REDUCTION_THRESHOLD for p in gcd_args)
    monkeypatch.undo()
    assert value == det_cofactor(M)


def test_cofactor_expands_each_minor_once(monkeypatch):
    # Dense 7 x 7: each sub-minor on k >= 2 columns costs k products, so
    # 7 * 2^6 - 7 = 441 in all, where the plain expansion took 8,659.
    rng = random.Random(77)
    M = SymMatrix.parse(SP, [[rng.choice(["1", "-2", "3", "z1", "z1 - 1"])
                              for _ in range(7)] for _ in range(7)])
    products = []
    original = RationalFunction.__mul__
    monkeypatch.setattr(RationalFunction, "__mul__",
                        lambda a, b: products.append(1) or original(a, b))
    value = det_cofactor(M)
    assert len(products) <= 7 * 2 ** 6
    monkeypatch.undo()
    assert value == det(M) == det_permutation(M)


def test_minor_gcd_makes_one_det_call_per_minor_visited(
        monkeypatch, duplicated_modes, sigma1, example1):
    # The benchmark's tracer counts minors as det calls under minors_gcd_in_s.
    # An uncontrollable system visits every minor; Example 1 stops at its 16th.
    calls = []
    original = sccheck.linalg.det
    monkeypatch.setattr(sccheck.linalg, "det", lambda sub: calls.append(sub) or original(sub))

    def det_calls(sys_def):
        calls.clear()
        minors_gcd_in_s(sys_def.pencil(), sys_def.n)
        return len(calls)

    for sys_def in (duplicated_modes, compose_parallel([sigma1, sigma1])):
        assert det_calls(sys_def) == math.comb(sys_def.n + sys_def.m, sys_def.n)
    assert det_calls(example1) == 16


def _reference_minor_gcd(M, k):
    """Plain fold of gcd_in_s over every k x k minor, by the Leibniz formula."""
    g = M.space.zero()
    for rows in itertools.combinations(range(M.rows), k):
        for cols in itertools.combinations(range(M.cols), k):
            g = gcd_in_s(g, det_permutation(M.submatrix(rows, cols)).num)
    return g


def test_minor_gcd_equals_plain_fold_over_every_minor(sigma1, unit_system):
    rng = random.Random(6060)
    systems = [rand_system(SP, rng, max_n=3) for _ in range(60)]
    # rows with constant and parameter denominators exercise the clearing
    rational = SystemDef(
        "rational", SP,
        SymMatrix.parse(SP, [["z1/(z2+1)", "1/2"], ["0", "z3/3"]]),
        SymMatrix.parse(SP, [["1"], ["1/(z1+1)"]]),
    )
    systems += [compose_parallel([sigma1, sigma1]), compose_parallel([unit_system] * 3),
                compose_parallel([rational, rational])]
    for sys_def in systems:
        pencil = sys_def.pencil()
        assert minors_gcd_in_s(pencil, sys_def.n) == _reference_minor_gcd(pencil, sys_def.n)


def test_det_matches_sympy_on_rational_function_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3131)
    denominators = [parse_expr(d, SP)
                    for d in ("1", "2", "z1", "z1 + 1", "z2*z3", "3*z2 - 1", "s - z3")]
    for _ in range(12):
        M = SymMatrix(SP, [
            [RationalFunction(rand_poly(SP, rng, max_terms=3)) / rng.choice(denominators)
             for _ in range(3)]
            for _ in range(3)
        ])
        expected = sympy.Matrix(
            [[to_sympy(sympy, v) for v in row] for row in M.entries]
        ).det(method="berkowitz")
        assert sympy.cancel(to_sympy(sympy, det(M)) - expected) == 0


def test_rank_matches_sympy_on_rational_function_matrices():
    # Every odd draw gains a row that combines two others with
    # rational-function multipliers, so its rank stays below its row count.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1729)
    denominators = [parse_expr(d, SP)
                    for d in ("1", "2", "z1", "z1 + 1", "z2*z3", "3*z2 - 1", "s - z3")]

    def entry():
        return RationalFunction(rand_poly(SP, rng, max_terms=2)) / rng.choice(denominators)

    deficient = 0
    for k in range(12):
        n_rows = rng.randint(1, 2)
        n_cols = rng.randint(n_rows + 1, 4)
        rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
        if k % 2:
            f, g = (RationalFunction(rand_poly(SP, rng, max_terms=2, nonzero=True))
                    / rng.choice(denominators) for _ in range(2))
            rows.insert(1, [f * a + g * b for a, b in zip(rows[0], rows[-1])])
        M = SymMatrix(SP, rows)
        expected = sympy.Matrix(
            [[to_sympy(sympy, v) for v in row] for row in M.entries]
        ).rank(iszerofunc=lambda e: sympy.cancel(e) == 0)
        assert rank(M) == expected, M.entries
        deficient += expected < M.rows
    assert deficient >= 6
