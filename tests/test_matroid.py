import itertools
import random

import pytest

import sccheck.matroid
from sccheck import (
    ParamSpace,
    SymMatrix,
    VectorMatroid,
    max_union_of_bases,
    parse_expr,
    rank,
    union_rank,
)
from sccheck.linalg import det_cofactor

from helpers import brute_force_bases, brute_force_rank, rand_matrix, rand_system

SP = ParamSpace(["z1", "z2", "z3"])


@pytest.fixture(scope="module")
def bench_matroids(example1):
    pencil = example1.pencil()
    return VectorMatroid(pencil.row_block([0, 1])), VectorMatroid(pencil.row_block([2, 3, 4]))


def test_empty_set_is_independent(bench_matroids):
    m1, _ = bench_matroids
    assert m1.is_independent([])
    assert m1.rank_of([]) == 0


def test_paper_base_of_upper_block_is_independent(bench_matroids):
    m1, _ = bench_matroids
    assert m1.is_independent(["a2", "a6"])


def test_no_independent_triple_in_a_two_row_block(bench_matroids):
    m1, _ = bench_matroids
    for extra in m1.ground:
        if extra in ("a1", "a2"):
            continue
        assert not m1.is_independent(["a1", "a2", extra])


def test_unknown_label_raises(bench_matroids):
    m1, _ = bench_matroids
    with pytest.raises(KeyError):
        m1.rank_of(["nope"])


def test_block_ranks_match_state_counts(
    bench_matroids, example1, pendulum, bridge, duplicated_modes, unit_system,
):
    m1, m2 = bench_matroids
    assert m1.rank() == 2
    assert m2.rank() == 3
    # Every row block of [sI - A | B] holds its own sI columns, so its rank is
    # its size and the whole pencil has rank n, controllable or not.
    rng = random.Random(4)
    systems = [example1, pendulum, bridge, duplicated_modes, unit_system]
    systems += [rand_system(SP, rng) for _ in range(30)]
    for sys_def in systems:
        pencil = sys_def.pencil()
        assert rank(pencil) == sys_def.n
        rows = list(range(sys_def.n))
        rng.shuffle(rows)
        cut = rng.randint(1, sys_def.n)
        for block in [[i] for i in rows] + [rows[:cut], rows[cut:]]:
            if block:
                assert VectorMatroid(pencil.row_block(block)).rank() == len(block)


def test_zero_column_has_rank_zero(bench_matroids):
    _, m2 = bench_matroids
    assert m2.rank_of(["a1"]) == 0


def test_enumerate_bases_single_base_matroid():
    M = SymMatrix.parse(SP, [["1", "0"], ["0", "1"]])
    enum = VectorMatroid(M).enumerate_bases()
    assert enum.bases == (("a1", "a2"),)
    assert not enum.truncated


def test_enumerate_bases_matches_brute_force(bench_matroids, example1):
    m1, _ = bench_matroids
    enum = m1.enumerate_bases()
    assert not enum.truncated
    expected = tuple(brute_force_bases(example1.pencil().row_block([0, 1])))
    assert enum.bases == expected


def test_enumeration_cap_sets_truncation_flag(bench_matroids):
    m1, _ = bench_matroids
    enum = m1.enumerate_bases(cap=2)
    assert enum.truncated
    assert len(enum.bases) == 2


def test_base_exchange_axiom_on_fixture_matroids(bench_matroids):
    for m in bench_matroids:
        bases = [set(b) for b in m.enumerate_bases().bases]
        for b1, b2 in itertools.permutations(bases, 2):
            for x in b1 - b2:
                assert any(
                    (b1 - {x}) | {y} in bases for y in b2 - b1
                ), f"exchange fails for {b1}, {b2}, {x}"


def test_unimodular_bases_of_bench_blocks(bench_matroids):
    m1, m2 = bench_matroids
    u1 = {b.labels: b.witness for b in m1.enumerate_unimodular_bases().bases}
    assert u1[("a2", "a6")] == parse_expr("-z3", SP)
    assert u1[("a2", "a7")] == parse_expr("-1", SP)
    assert ("a1", "a6") not in u1  # witness (s - z1) * z3 involves s
    u2 = {b.labels for b in m2.enumerate_unimodular_bases().bases}
    assert ("a3", "a5", "a7") not in u2  # witness -s^2 + s (printed base fails)


def test_unimodular_candidates_come_from_the_nonzero_columns(bench_matroids, monkeypatch):
    # Example 1's blocks are nonzero on 4 and 5 of the 7 pencil columns, so
    # C(4, 2) = 6 and C(5, 3) = 10 determinants, where all columns gave 21 and 35.
    calls = []
    original = sccheck.matroid.det
    monkeypatch.setattr(sccheck.matroid, "det", lambda sub: calls.append(sub) or original(sub))
    m1, m2 = bench_matroids
    u1 = {b.labels: b.witness for b in m1.enumerate_unimodular_bases().bases}
    assert len(calls) == 6
    u2 = {b.labels for b in m2.enumerate_unimodular_bases().bases}
    assert len(calls) == 6 + 10
    assert u1[("a2", "a6")] == parse_expr("-z3", SP)
    assert u1[("a2", "a7")] == parse_expr("-1", SP)
    assert ("a1", "a6") not in u1
    assert ("a3", "a5", "a7") not in u2


def test_unimodular_bases_of_stiffness_block(pendulum, ex2_space):
    block = VectorMatroid(pendulum.pencil().row_block([4, 5]))
    found = {b.labels: b.witness for b in block.enumerate_unimodular_bases().bases}
    assert ("a2", "a3") in found
    from conftest import K12, K13, K22, K23

    expected = parse_expr(f"({K12})*({K23}) - ({K13})*({K22})", ex2_space)
    assert found[("a2", "a3")] == expected


def test_unimodular_witnesses_recompute_by_cofactor(bench_matroids):
    for m in bench_matroids:
        for base in m.enumerate_unimodular_bases().bases:
            recomputed = det_cofactor(m.matrix.columns_by_labels(base.labels))
            assert recomputed == base.witness
            assert not recomputed.is_zero()
            assert not recomputed.involves_s()


def test_unimodular_enumeration_requires_rank_many_rows():
    rank_deficient = SymMatrix.parse(SP, [["1", "0"], ["1", "0"]])  # rank 1, two rows
    tall = SymMatrix.parse(SP, [["1"], ["z1"]])  # more rows than columns
    for M in (rank_deficient, tall):
        with pytest.raises(ValueError, match="matrix has 2 rows but rank 1"):
            VectorMatroid(M).enumerate_unimodular_bases()


def test_union_rank_of_single_matroid_is_rank():
    rng = random.Random(21)
    for _ in range(10):
        m = VectorMatroid(rand_matrix(SP, rng, rng.randint(1, 3), rng.randint(2, 5)))
        for k in range(len(m.ground) + 1):
            for X in itertools.combinations(m.ground, k):
                assert union_rank([m], X) == m.rank_of(X)


def test_union_rank_of_parallel_columns():
    M = SymMatrix.parse(SP, [["z1", "2*z1"]])  # two parallel nonzero columns
    m = VectorMatroid(M)
    assert m.rank() == 1
    assert union_rank([m, m], m.ground) == 2


def test_union_rank_of_bench_blocks_is_five(bench_matroids):
    m1, m2 = bench_matroids
    assert union_rank([m1, m2], m1.ground) == 5


def test_union_rank_bounds(bench_matroids):
    m1, m2 = bench_matroids
    for k in (0, 2, 4, 7):
        for X in itertools.islice(itertools.combinations(m1.ground, k), 5):
            u = union_rank([m1, m2], X)
            assert u <= m1.rank() + m2.rank()
            assert u <= len(X)


def test_union_rank_rejects_mismatched_grounds():
    a = VectorMatroid(SymMatrix.parse(SP, [["1", "0"]]))
    b = VectorMatroid(SymMatrix.parse(SP, [["1", "0"]], col_labels=["b1", "b2"]))
    with pytest.raises(ValueError):
        union_rank([a, b], a.ground)


def test_max_union_none_when_bases_always_overlap():
    M = SymMatrix.parse(SP, [["1", "0", "0"], ["0", "0", "0"]])  # single base {a1}
    m = VectorMatroid(M)
    assert max_union_of_bases([m, m], [1, 1]) is None


def test_max_union_on_bench_blocks(bench_matroids):
    m1, m2 = bench_matroids
    family = max_union_of_bases([m1, m2], [2, 3])
    assert family is not None
    b1, b2 = family
    assert len(b1) == 2 and len(b2) == 3
    assert not set(b1) & set(b2)


def test_max_union_on_pendulum_blocks_is_deterministic(pendulum):
    pencil = pendulum.pencil()
    matroids = [
        VectorMatroid(pencil.row_block([0, 1])),
        VectorMatroid(pencil.row_block([2, 3])),
        VectorMatroid(pencil.row_block([4, 5])),
    ]
    family = max_union_of_bases(matroids, [2, 2, 2])
    # first-found family under lex order; plain bases, so s-dependent
    # determinants are allowed here (unlike the unimodular search)
    assert family == [("a1", "a2"), ("a3", "a4"), ("a5", "a6")]
    used = set()
    for base in family:
        assert not used & set(base)
        used.update(base)


def test_rank_axioms_on_random_matroids():
    rng = random.Random(616)
    for _ in range(50):
        M = rand_matrix(SP, rng, rng.randint(1, 3), rng.randint(2, 6), allow_s=True)
        m = VectorMatroid(M)
        ground = m.ground
        subsets = [tuple(c) for k in range(len(ground) + 1)
                   for c in itertools.combinations(ground, k)]
        ranks = {X: m.rank_of(X) for X in subsets}
        for X in subsets:
            assert 0 <= ranks[X] <= len(X)
        for X in subsets:
            for Y in subsets:
                if set(X) <= set(Y):
                    assert ranks[X] <= ranks[Y]
        for X in subsets:
            for Y in subsets:
                union = tuple(sorted(set(X) | set(Y)))
                inter = tuple(sorted(set(X) & set(Y)))
                union = tuple(l for l in ground if l in set(union))
                inter = tuple(l for l in ground if l in set(inter))
                assert ranks[X] + ranks[Y] >= m.rank_of(union) + m.rank_of(inter)


def test_union_rank_matches_best_union_of_bases():
    rng = random.Random(747)
    for _ in range(10):
        cols = rng.randint(3, 6)
        m1 = VectorMatroid(rand_matrix(SP, rng, rng.randint(1, 2), cols))
        m2 = VectorMatroid(SymMatrix(SP, rand_matrix(SP, rng, rng.randint(1, 2), cols).entries,
                                     m1.ground))
        best = 0
        for b1 in m1.enumerate_bases().bases:
            for b2 in m2.enumerate_bases().bases:
                best = max(best, len(set(b1) | set(b2)))
        assert union_rank([m1, m2], m1.ground) == best
        # when a fully disjoint family exists the union rank is the size sum
        family = max_union_of_bases([m1, m2], [m1.rank(), m2.rank()])
        if family is not None:
            assert union_rank([m1, m2], m1.ground) == m1.rank() + m2.rank()


def test_rank_oracle_agrees_with_brute_force():
    rng = random.Random(1234)
    for _ in range(10):
        M = rand_matrix(SP, rng, rng.randint(1, 3), rng.randint(2, 5), allow_s=True)
        m = VectorMatroid(M)
        for k in range(len(m.ground) + 1):
            for X in itertools.combinations(m.ground, k):
                assert m.rank_of(X) == brute_force_rank(M, X)
