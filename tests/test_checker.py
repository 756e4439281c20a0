import random
from fractions import Fraction

import pytest

import sccheck.checker
import sccheck.linalg
import sccheck.matroid
from sccheck import (
    Certificate,
    ColumnLimitError,
    ParamSpace,
    RowPartition,
    Status,
    SymMatrix,
    SystemDef,
    UnimodularBase,
    certificate_failures,
    certificate_search,
    composite_certificate_check,
    compose_parallel,
    controllability_matrix,
    kalman_check,
    parse_expr,
    pbh_check,
    rank,
    verify_certificate,
)

from helpers import chain_system, rand_system

SP = ParamSpace(["z1", "z2", "z3"])


# -- row partitions -------------------------------------------------------------


def test_partition_parsing_and_validation():
    p = RowPartition.from_spec("1,2;3,4,5", 5)
    assert p.blocks == ((0, 1), (2, 3, 4))
    assert p.describe() == "1,2;3,4,5"
    with pytest.raises(ValueError):
        RowPartition.from_spec("1,2;2,3", 3)  # overlap
    with pytest.raises(ValueError):
        RowPartition.from_spec("1,2", 3)  # not covering
    with pytest.raises(ValueError):
        RowPartition.from_spec("1,2;4", 4)  # hole
    with pytest.raises(ValueError):
        RowPartition.from_spec("0,1", 2)  # out of range
    assert RowPartition.singletons(3).blocks == ((0,), (1,), (2,))


# -- exact tests ------------------------------------------------------------------


def test_pbh_on_example1_composite(example1):
    v = pbh_check(example1)
    assert v.status is Status.CONTROLLABLE
    assert v.method == "pbh"


def test_pbh_detects_duplicated_mode(duplicated_modes):
    v = pbh_check(duplicated_modes)
    assert v.status is Status.NOT_CONTROLLABLE
    assert v.gcd == parse_expr("s - z1", SP).num
    assert "s" in v.evidence


def test_pbh_scalar_system(unit_system):
    assert pbh_check(unit_system).status is Status.CONTROLLABLE


def test_pbh_column_cap_gives_inconclusive(example1):
    v = pbh_check(example1, max_columns=5)
    assert v.status is Status.INCONCLUSIVE
    assert "5" in v.evidence


def test_column_cap_decides_before_the_stored_gcd(sigma1, sigma2):
    # A fresh SystemDef: the session-scoped example1 may already hold a gcd.
    sys_def = compose_parallel([sigma1, sigma2])
    assert pbh_check(sys_def).status is Status.CONTROLLABLE
    assert pbh_check(sys_def, max_columns=5).status is Status.INCONCLUSIVE
    v = certificate_search(sys_def, max_columns=5)
    assert v.status is Status.INCONCLUSIVE
    assert "confirmation was skipped" in v.evidence


def test_kalman_on_subsystems(sigma1, sigma2):
    assert kalman_check(sigma1).status is Status.CONTROLLABLE
    assert kalman_check(sigma2).status is Status.CONTROLLABLE


def test_kalman_on_bridge_symbolic_vs_balanced(bridge):
    v = kalman_check(bridge)
    assert v.status is Status.CONTROLLABLE
    K = controllability_matrix(bridge)
    balanced = {name: Fraction(1) for name in bridge.space.variables}
    assert rank(K.evaluate(balanced)) == 1
    unbalanced = dict(balanced, R2=Fraction(2))
    assert rank(K.evaluate(unbalanced)) == 2


def test_controllability_matrix_equals_direct_products(example1, bridge):
    # Example 1 has m = 2 inputs; the bridge has rational-function entries.
    for sys_def in (example1, bridge):
        n, m = sys_def.n, sys_def.m
        powers = [sys_def.B]
        for _ in range(n - 1):
            powers.append(sys_def.A @ powers[-1])
        K = controllability_matrix(sys_def)
        assert (K.rows, K.cols) == (n, n * m)
        assert K.col_labels == tuple(f"c{j + 1}" for j in range(n * m))
        for i in range(n):
            for j in range(n * m):
                assert K.entries[i][j] == powers[j // m].entries[i][j % m]


def test_controllability_matrix_takes_n_minus_1_products(example1, bridge, unit_system,
                                                         monkeypatch):
    calls = []
    original = SymMatrix.__matmul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(SymMatrix, "__matmul__", counted)
    for sys_def in (example1, bridge, unit_system):
        calls.clear()
        controllability_matrix(sys_def)
        assert len(calls) == sys_def.n - 1


def test_each_system_builds_its_pencil_once(sigma1, sigma2, monkeypatch):
    calls = []
    original = sccheck.checker.build_pencil

    def counted(A, B):
        calls.append(A)
        return original(A, B)

    monkeypatch.setattr(sccheck.checker, "build_pencil", counted)
    # A fresh SystemDef: the session-scoped example1 may already hold a pencil.
    sys_def = compose_parallel([sigma1, sigma2])
    assert pbh_check(sys_def).status is Status.CONTROLLABLE
    v = certificate_search(sys_def, RowPartition.from_spec("1,2;3,4,5", 5))
    assert v.status is Status.CERTIFIED
    assert certificate_failures(sys_def, v.certificate) == []
    assert len(calls) == 1


def _counting_rank(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M)
        return rank(M)

    monkeypatch.setattr(sccheck.checker, "rank", counted)
    return calls


def _swap_system():
    return SystemDef(
        "swap", SP,
        SymMatrix.parse(SP, [["0", "1"], ["1", "0"]]),
        SymMatrix.parse(SP, [["0"], ["0"]]),
    )


def test_point_rank_never_exceeds_the_exact_rank(duplicated_modes, sigma1):
    rng = random.Random(6180)
    uncontrollable = [duplicated_modes, _swap_system(), compose_parallel([sigma1, sigma1])]
    for sys_def in uncontrollable + [rand_system(SP, rng) for _ in range(60)]:
        at_point = sccheck.checker._kalman_rank_at_point(sys_def)
        exact = rank(controllability_matrix(sys_def))
        assert at_point is not None and at_point <= exact, sys_def


def test_kalman_point_proof_makes_no_rank_call(example1, bridge, sigma1, sigma2,
                                               duplicated_modes, monkeypatch):
    calls = _counting_rank(monkeypatch)
    for sys_def in (example1, bridge, sigma1, sigma2):
        v = kalman_check(sys_def)
        assert v.status is Status.CONTROLLABLE
        assert v.evidence == f"controllability matrix has full rank {sys_def.n}"
    assert calls == []
    v = kalman_check(duplicated_modes)
    assert v.status is Status.NOT_CONTROLLABLE
    assert v.evidence == "controllability matrix rank 1 < n = 2"
    assert len(calls) == 1


def _scalar_system(b_entry: str) -> SystemDef:
    return SystemDef("scalar", SP, SymMatrix.parse(SP, [["z2"]]),
                     SymMatrix.parse(SP, [[b_entry]]))


def test_kalman_rank_deficient_point_falls_back_to_the_exact_rank(monkeypatch):
    # B vanishes at the first point, so the rank there is 0.  Only the first
    # pole-free point is tried: the exact rank decides.
    c = sccheck.checker._POINTS[0][0]
    calls = _counting_rank(monkeypatch)
    v = kalman_check(_scalar_system(f"z1 - {c}"))
    assert v.status is Status.CONTROLLABLE
    assert v.evidence == "controllability matrix has full rank 1"
    assert len(calls) == 1


def test_kalman_pole_moves_to_the_next_point(monkeypatch):
    c = sccheck.checker._POINTS[0][0]
    calls = _counting_rank(monkeypatch)
    v = kalman_check(_scalar_system(f"1/(z1 - {c})"))
    assert v.status is Status.CONTROLLABLE
    assert calls == []


def test_kalman_all_poles_falls_back_to_the_exact_rank(monkeypatch):
    den = "*".join(f"(z1 - {row[0]})" for row in sccheck.checker._POINTS)
    calls = _counting_rank(monkeypatch)
    v = kalman_check(_scalar_system(f"1/({den})"))
    assert v.status is Status.CONTROLLABLE
    assert len(calls) == 1


def test_point_table_extends_to_more_parameters(monkeypatch):
    # More parameters than a table row holds: every coordinate stays distinct,
    # and a controllable chain that uses all of them is proved at the point.
    space = ParamSpace([f"p{i}" for i in range(20)])
    for row in sccheck.checker._POINTS:
        point = sccheck.checker._point(row, space.params)
        assert list(point) == list(space.params)
        assert len(set(point.values())) == len(point)
    n = 10
    A = [["0"] * n for _ in range(n)]
    for i in range(n - 1):
        A[i + 1][i] = f"p{2 * i} - p{2 * i + 1}"
    B = [[f"p{2 * n - 2} + p{2 * n - 1}"]] + [["0"]] * (n - 1)
    sys_def = SystemDef("chain", space, SymMatrix.parse(space, A), SymMatrix.parse(space, B))
    calls = _counting_rank(monkeypatch)
    assert kalman_check(sys_def).status is Status.CONTROLLABLE
    assert calls == []


def test_exact_kalman_route_agrees_with_default_and_pbh(example1, bridge, sigma1, sigma2,
                                                        duplicated_modes, monkeypatch):
    # The same 40 samples as test_soundness_and_agreement_on_random_sample.
    rng = random.Random(1945)
    systems = [example1, bridge, sigma1, sigma2, duplicated_modes]
    systems += [rand_system(SP, rng) for _ in range(40)]
    default = [kalman_check(sys_def) for sys_def in systems]
    monkeypatch.setattr(sccheck.checker, "_kalman_rank_at_point", lambda sys_def: None)
    calls = _counting_rank(monkeypatch)
    for sys_def, fast in zip(systems, default):
        exact = kalman_check(sys_def)
        assert (exact.status, exact.evidence) == (fast.status, fast.evidence)
        assert exact.status == pbh_check(sys_def).status
    assert len(calls) == len(systems)


def test_exact_tests_agree_on_fixtures(example1, duplicated_modes, unit_system):
    for sys_def in (example1, duplicated_modes, unit_system):
        assert pbh_check(sys_def).status == kalman_check(sys_def).status


# -- certificate search -----------------------------------------------------------


def test_certificate_search_on_example1(example1):
    v = certificate_search(example1, RowPartition.from_spec("1,2;3,4,5", 5))
    assert v.status is Status.CERTIFIED
    cert = v.certificate
    assert cert.block_sizes == (2, 3)
    assert sum(cert.block_sizes) == 5
    labels = [set(b.labels) for b in cert.bases]
    assert not labels[0] & labels[1]
    for base in cert.bases:
        assert not base.witness.is_zero()
        assert not base.witness.involves_s()
    assert verify_certificate(example1, cert)


def test_certificate_search_on_pendulum_finds_printed_bases(pendulum):
    v = certificate_search(pendulum, RowPartition.from_spec("1,2;3,4;5,6", 6))
    assert v.status is Status.CERTIFIED
    assert tuple(b.labels for b in v.certificate.bases) == (
        ("a4", "a5"), ("a6", "a7"), ("a2", "a3"),
    )
    assert v.certificate.block_sizes == (2, 2, 2)


def test_certificate_search_default_partition_is_singletons(example1):
    v = certificate_search(example1)
    assert v.status is Status.CERTIFIED
    assert len(v.certificate.partition.blocks) == example1.n


def test_certificate_search_zero_input_is_inconclusive():
    sys_def = SystemDef(
        "noinput", SP,
        SymMatrix.parse(SP, [["z1", "0"], ["0", "z2"]]),
        SymMatrix.parse(SP, [["0"], ["0"]]),
    )
    v = certificate_search(sys_def)
    assert v.status is Status.INCONCLUSIVE


def test_certificate_search_never_not_controllable(duplicated_modes):
    v = certificate_search(duplicated_modes)
    assert v.status is Status.INCONCLUSIVE


def test_certificate_search_rejects_wrong_partition(example1):
    with pytest.raises(ValueError):
        certificate_search(example1, RowPartition.from_spec("1,2;3", 3))


def test_certified_round_trip_on_random_systems():
    rng = random.Random(2718)
    checked = 0
    for _ in range(40):
        sys_def = rand_system(SP, rng)
        v = certificate_search(sys_def)
        if v.status is Status.CERTIFIED:
            checked += 1
            assert verify_certificate(sys_def, v.certificate)
    assert checked > 0


# -- composition --------------------------------------------------------------------


def test_compose_single_subsystem_is_identity(sigma1):
    assert compose_parallel([sigma1]) is sigma1


def test_compose_matches_directly_entered_composite(sigma1, sigma2, example1):
    direct = SystemDef(
        "direct", SP,
        SymMatrix.parse(SP, [
            ["z1", "1", "0", "0", "0"],
            ["0", "z2", "0", "0", "0"],
            ["0", "0", "1", "1", "0"],
            ["0", "0", "0", "0", "1"],
            ["0", "0", "1", "0", "0"],
        ]),
        SymMatrix.parse(SP, [
            ["0", "0"], ["z3", "1"], ["z1", "0"], ["0", "1"], ["0", "0"],
        ]),
    )
    assert example1.A == direct.A
    assert example1.B == direct.B
    assert pbh_check(example1).status == pbh_check(direct).status
    assert example1.pencil() == direct.pencil()


def test_compose_three_scalar_copies(unit_system):
    composite = compose_parallel([unit_system] * 3)
    assert composite.n == 3 and composite.m == 1
    one = parse_expr("1", SP)
    zero = parse_expr("0", SP)
    z1 = parse_expr("z1", SP)
    for i in range(3):
        assert composite.B.entries[i][0] == one
        for j in range(3):
            assert composite.A.entries[i][j] == (z1 if i == j else zero)


def test_compose_rejects_input_dimension_mismatch(sigma1, unit_system):
    with pytest.raises(ValueError) as err:
        compose_parallel([sigma1, unit_system])
    assert "m = 2" in str(err.value) and "m = 1" in str(err.value)


def test_compose_rejects_space_mismatch(sigma1):
    other_space = ParamSpace(["w1"])
    other = SystemDef(
        "other", other_space,
        SymMatrix.parse(other_space, [["w1", "0"], ["0", "w1"]]),
        SymMatrix.parse(other_space, [["1", "0"], ["0", "1"]]),
    )
    with pytest.raises(ValueError):
        compose_parallel([sigma1, other])


def test_composite_certificate_check_needs_a_subsystem():
    with pytest.raises(ValueError, match="^need at least one subsystem$"):
        composite_certificate_check([])


def test_composite_certificate_check_on_example1(sigma1, sigma2):
    v = composite_certificate_check([sigma1, sigma2])
    assert v.status is Status.CERTIFIED
    assert v.certificate.block_sizes == (2, 3)
    assert v.certificate.partition.blocks == ((0, 1), (2, 3, 4))


def test_composite_certificate_check_duplicated_subsystem(unit_system):
    # each copy is controllable, but the composite shares one mode: the
    # exact test refuses it while the sufficient search only abstains
    v = composite_certificate_check([unit_system, unit_system])
    assert v.status is Status.INCONCLUSIVE
    composite = compose_parallel([unit_system, unit_system])
    exact = pbh_check(composite)
    assert exact.status is Status.NOT_CONTROLLABLE
    assert exact.gcd == parse_expr("s - z1", SP).num


def test_composite_certificate_check_flags_bad_subsystem(duplicated_modes, sigma1):
    v = composite_certificate_check([duplicated_modes, sigma1])
    assert v.status is Status.NOT_CONTROLLABLE
    assert "subsystem 1" in v.evidence


def test_chain_composite_makes_a_determinant_per_nonzero_candidate(monkeypatch):
    # Two different 3-chains (n = 12): each 6-row block is nonzero on its own
    # 6 state columns and the input, so C(7, 6) = 7 candidates per block,
    # plus two minors per subsystem's pencil test; all 13 columns gave 3,436.
    calls = []
    original = sccheck.linalg.det
    counting = lambda sub: calls.append(sub) or original(sub)
    monkeypatch.setattr(sccheck.linalg, "det", counting)
    monkeypatch.setattr(sccheck.matroid, "det", counting)
    space = ParamSpace([f"k{i}" for i in range(1, 5)] + [f"c{i}" for i in range(1, 5)])
    v = composite_certificate_check([chain_system(space, 3, "k"), chain_system(space, 3, "c")])
    assert len(calls) <= 18
    assert v.status is Status.INCONCLUSIVE
    assert v.evidence == ("no disjoint family of unimodular bases exists for this "
                          "partition (the condition is sufficient only)")


# -- certificate verification ---------------------------------------------------------


def test_verify_rejects_printed_bench_certificate(example1):
    """The printed lower-block base has witness -s^2 + s: not unimodular."""
    partition = RowPartition.from_spec("1,2;3,4,5", 5)
    pencil = example1.pencil()
    from sccheck.linalg import det_cofactor

    w1 = det_cofactor(pencil.submatrix([0, 1], [1, 5]))
    w2 = det_cofactor(pencil.submatrix([2, 3, 4], [2, 4, 6]))
    assert w2 == parse_expr("-s^2 + s", SP)
    cert = Certificate(partition, (
        UnimodularBase(("a2", "a6"), w1),
        UnimodularBase(("a3", "a5", "a7"), w2),
    ))
    assert not verify_certificate(example1, cert)
    failures = certificate_failures(example1, cert)
    assert any("-s^2 + s" in f for f in failures)
    assert any("not unimodular" in f or "not free of" in f for f in failures)


def test_verify_accepts_pendulum_certificate(pendulum):
    v = certificate_search(pendulum, RowPartition.from_spec("1,2;3,4;5,6", 6))
    assert verify_certificate(pendulum, v.certificate)


def _cycle(n: int) -> tuple[SystemDef, Certificate]:
    """The inputless cyclic shift on n states, with its singleton certificate:
    every block clause holds, yet the system is uncontrollable."""
    space = ParamSpace([])
    A = [["1" if j == (i + 1) % n else "0" for j in range(n)] for i in range(n)]
    sys_def = SystemDef(f"cycle{n}", space, SymMatrix.parse(space, A),
                        SymMatrix.parse(space, [["0"]] * n))
    witness = parse_expr("-1", space)
    cert = Certificate(RowPartition.singletons(n), tuple(
        UnimodularBase((f"a{(i + 1) % n + 1}",), witness) for i in range(n)))
    return sys_def, cert


def test_verify_certificate_rejects_the_swap_certificate():
    # The two-state cycle is the swap system: its clauses hold, the proof fails.
    # The pendulum and Example-1 certificates still pass (tests above).
    swap, cert = _cycle(2)
    assert certificate_failures(swap, cert) == []
    assert not verify_certificate(swap, cert)


def test_verify_certificate_past_the_column_cap_raises(monkeypatch):
    cycle, cert = _cycle(13)

    def no_gcd(*args, **kwargs):
        raise AssertionError("the minor gcd was computed past the column cap")

    monkeypatch.setattr(sccheck.checker, "minors_gcd_in_s", no_gcd)
    assert certificate_failures(cycle, cert) == []
    with pytest.raises(ColumnLimitError, match="capped at 12"):
        verify_certificate(cycle, cert)


def test_verify_rejects_overlapping_bases(example1):
    partition = RowPartition.from_spec("1,2;3,4,5", 5)
    one = parse_expr("1", SP)
    cert = Certificate(partition, (
        UnimodularBase(("a2", "a7"), one),
        UnimodularBase(("a3", "a4", "a7"), one),
    ))
    failures = certificate_failures(example1, cert)
    assert any("not disjoint" in f for f in failures)


def test_verify_rejects_wrong_witness_value(example1):
    partition = RowPartition.from_spec("1,2;3,4,5", 5)
    cert = Certificate(partition, (
        UnimodularBase(("a2", "a6"), parse_expr("1", SP)),  # true witness is -z3
        UnimodularBase(("a3", "a4", "a7"), parse_expr("1", SP)),
    ))
    failures = certificate_failures(example1, cert)
    assert any("differs from recomputed" in f for f in failures)


def test_verify_rejects_shape_mismatch(example1):
    cert = Certificate(RowPartition.from_spec("1,2;3", 3), (
        UnimodularBase(("a2",), parse_expr("1", SP)),
        UnimodularBase(("a3",), parse_expr("1", SP)),
    ))
    with pytest.raises(ValueError):
        certificate_failures(example1, cert)


def test_certificate_route_computes_no_rank(pendulum, example1, bridge, monkeypatch):
    # Every pencil row block holds its own sI columns, so its rank is its size;
    # the search and the verifier take it from the partition, not from Bareiss.
    calls = []

    def counted(M):
        calls.append(M)
        return rank(M)

    monkeypatch.setattr(sccheck.checker, "rank", counted)
    monkeypatch.setattr(sccheck.matroid, "rank", counted)
    for sys_def, spec in ((pendulum, "1,2;3,4;5,6"), (example1, "1,2;3,4,5"), (bridge, None)):
        partition = None if spec is None else RowPartition.from_spec(spec, sys_def.n)
        v = certificate_search(sys_def, partition)
        assert v.status is Status.CERTIFIED
        assert certificate_failures(sys_def, v.certificate) == []
    assert calls == []


# -- verdict invariance properties ------------------------------------------------------


def test_row_scaling_of_b_preserves_verdicts(example1, duplicated_modes):
    for sys_def in (example1, duplicated_modes):
        z2 = parse_expr("z2", SP)
        scaled_b_rows = [list(row) for row in sys_def.B.entries]
        scaled_b_rows[0] = [v * z2 for v in scaled_b_rows[0]]
        scaled = SystemDef(
            sys_def.name + "-scaled", SP, sys_def.A, SymMatrix(SP, scaled_b_rows)
        )
        assert pbh_check(scaled).status == pbh_check(sys_def).status
        assert kalman_check(scaled).status == kalman_check(sys_def).status
        assert certificate_search(scaled).status == certificate_search(sys_def).status


def test_soundness_and_agreement_on_random_sample():
    rng = random.Random(1945)
    for _ in range(40):
        sys_def = rand_system(SP, rng)
        exact = pbh_check(sys_def)
        assert kalman_check(sys_def).status == exact.status
        cert = certificate_search(sys_def)
        assert cert.status in (Status.CERTIFIED, Status.INCONCLUSIVE)
        if cert.status is Status.CERTIFIED:
            assert exact.status is Status.CONTROLLABLE
