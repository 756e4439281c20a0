"""Tests of the benchmark's own oracles; they need nothing of sccheck."""

import itertools
import random
from fractions import Fraction

import pytest

import inputs
from oracles import (
    OracleError,
    TextSystem,
    certificate_problems,
    check_verdicts,
    det_q,
    evaluate,
    evaluate_grid,
    kalman_rank_at,
    rank_q,
)

F = Fraction


def test_evaluate_follows_the_entry_grammar():
    point = {"z1": F(4), "s": F(3)}
    assert evaluate("-2^2", point) == -4          # ^ binds tighter than unary minus
    assert evaluate("2^2^3", point) == 64         # ^ is left associative
    assert evaluate("8/2/2", point) == 2
    assert evaluate("1/2*z1", point) == 2
    assert evaluate("(z1 + 1)^2 - s", point) == 22
    assert evaluate("-s^2 + s", point) == -6
    with pytest.raises(ZeroDivisionError):
        evaluate("1/(z1 - 4)", point)


def _leibniz(m):
    total = F(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_det_and_rank_match_the_definitions():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            assert det_q(m) == _leibniz(m)
            assert (rank_q(m) == n) == (det_q(m) != 0)
    assert rank_q([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_q([[F(0), F(0)]]) == 0


def test_kalman_rank_at_a_point():
    double_integrator = ([[F(0), F(1)], [F(0), F(0)]], [[F(0)], [F(1)]])
    assert kalman_rank_at(*double_integrator) == 2
    duplicated = ([[F(5), F(0)], [F(0), F(5)]], [[F(1)], [F(1)]])
    assert kalman_rank_at(*duplicated) == 1


def test_bridge_rank_drops_at_balanced_values():
    bridge = inputs.BRIDGE
    balanced = {p: F(1) for p in bridge.params}
    assert kalman_rank_at(evaluate_grid(bridge.a, balanced),
                          evaluate_grid(bridge.b, balanced)) == 1
    _, a, b = bridge.random_point(random.Random(3))
    assert kalman_rank_at(a, b) == 2


PENDULUM_BLOCKS = [
    {"rows": [1, 2], "base": ["a4", "a5"], "witness": "1"},
    {"rows": [3, 4], "base": ["a6", "a7"], "witness": "-1"},
    {"rows": [5, 6], "base": ["a2", "a3"],
     "witness": f"({inputs._K12})*({inputs._K23}) - ({inputs._K13})*({inputs._K22})"},
]


def test_certificate_problems_accepts_the_pendulum_certificate():
    assert certificate_problems(inputs.PENDULUM, PENDULUM_BLOCKS, random.Random(1)) == []


@pytest.mark.parametrize("mutate, clause", [
    (lambda b: b[0].update(witness="2"), "differs"),
    (lambda b: b[1].update(base=["a5", "a7"]), "overlap"),
    (lambda b: b[2].update(base=["a2"]), "square"),
])
def test_certificate_problems_finds_each_broken_clause(mutate, clause):
    blocks = [dict(b) for b in PENDULUM_BLOCKS]
    mutate(blocks)
    problems = certificate_problems(inputs.PENDULUM, blocks, random.Random(1))
    assert any(clause in p for p in problems), problems


def test_printed_example1_certificate_is_refuted():
    problems = certificate_problems(inputs.EXAMPLE1, inputs.PRINTED_EXAMPLE1_CERT["blocks"],
                                    random.Random(1))
    assert any("involves s" in p for p in problems)


def test_check_verdicts_refutes_impossible_triples():
    rng = random.Random(5)
    ok = inputs.SIGMA1
    check_verdicts(ok, "CONTROLLABLE", "CONTROLLABLE", "CERTIFIED", rng)
    check_verdicts(inputs.DUP, "NOT_CONTROLLABLE", "NOT_CONTROLLABLE", "INCONCLUSIVE", rng,
                   uncontrollable_by_construction=True)
    check_verdicts(inputs.DUP, "NOT_CONTROLLABLE", "NOT_CONTROLLABLE", "INCONCLUSIVE", rng)
    bad = [
        (ok, "CONTROLLABLE", "CONTROLLABLE", "NOT_CONTROLLABLE", False),
        (ok, "CONTROLLABLE", "NOT_CONTROLLABLE", "INCONCLUSIVE", False),
        (ok, "NOT_CONTROLLABLE", "NOT_CONTROLLABLE", "INCONCLUSIVE", False),
        (inputs.DUP, "CONTROLLABLE", "CONTROLLABLE", "INCONCLUSIVE", True),
        (inputs.DUP, "CONTROLLABLE", "CONTROLLABLE", "INCONCLUSIVE", False),
        (inputs.DUP, "NOT_CONTROLLABLE", "NOT_CONTROLLABLE", "CERTIFIED", True),
    ]
    for sys, pbh, kalman, matroid, dup in bad:
        with pytest.raises(OracleError):
            check_verdicts(sys, pbh, kalman, matroid, rng, uncontrollable_by_construction=dup)


def test_random_inputs_repeat_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [inputs.random_system(rng, 3, 2, "x").to_doc() for _ in range(5)]
    assert draw(11) == draw(11)
    assert draw(11) != draw(12)


def test_text_composite_is_block_diagonal():
    composite = inputs.EXAMPLE1
    assert composite.n == 5
    assert composite.a[0][2:] == ["0", "0", "0"]
    assert composite.a[2][:2] == ["0", "0"]
    assert composite.b == inputs.SIGMA1.b + inputs.SIGMA2.b
    assert isinstance(composite, TextSystem)
