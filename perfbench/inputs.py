"""Seeded inputs for the benchmark, kept apart from the test suite so that a
later edit to the tests cannot move the benchmark's distribution.

Systems are produced as text (``oracles.TextSystem``); the workloads hand the
same strings to sccheck, either as JSON files or through ``SymMatrix.parse``.
"""

from __future__ import annotations

import random

from oracles import TextSystem, compose_text, proves_controllable

RANDOM_PARAMS = ["z1", "z2", "z3"]

# The paper's systems.  Entries are copied from the paper's examples (double
# pendulum, Example 1's subsystems, the RLC bridge, a one-state integrator).
_K12 = "3*g*(z1+2*z2+2*z3)/(z4*(4*z1+3*z2+12*z3))"
_K13 = "-(9*z2*g)/(2*z4*(4*z1+3*z2+12*z3))"
_K22 = "-(9*g*(z1+2*z2+2*z3))/(2*z5*(4*z1+3*z2+12*z3))"
_K23 = "-(3*g*(z1+3*z2+3*z3))/(z5*(4*z1+3*z2+12*z3))"
_K17 = "3*(2*z1+z2+4*z3)/(2*z4*(4*z1+3*z2+12*z3))"
_K27 = "-(3*z1)/(2*z5*(4*z1+3*z2+12*z3))"

PENDULUM = TextSystem(
    "pendulum", ["z1", "z2", "z3", "z4", "z5", "g"],
    [["0", "0", "0", "1", "0", "0"],
     ["0", "0", "0", "0", "1", "0"],
     ["0", "0", "0", "0", "0", "1"],
     ["0", "0", "0", "0", "0", "0"],
     ["0", _K12, _K13, "0", "0", "0"],
     ["0", _K22, _K23, "0", "0", "0"]],
    [["0"], ["0"], ["0"], ["1"], [_K17], [_K27]],
)
PENDULUM_PARTITION = "1,2;3,4;5,6"
PENDULUM_BASES = [["a4", "a5"], ["a6", "a7"], ["a2", "a3"]]

SIGMA1 = TextSystem("sigma1", ["z1", "z2", "z3"],
                    [["z1", "1"], ["0", "z2"]], [["0", "0"], ["z3", "1"]])
SIGMA2 = TextSystem("sigma2", ["z1", "z2", "z3"],
                    [["1", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
                    [["z1", "0"], ["0", "1"], ["0", "0"]])
EXAMPLE1 = compose_text([SIGMA1, SIGMA2], "sigma1+sigma2")
EXAMPLE1_PARTITION = "1,2;3,4,5"
EXAMPLE1_BLOCK_SIZES = [2, 3]

# The certificate printed for Example 1: the lower block's witness -s^2 + s
# depends on s, so the base {a3, a5, a7} is not unimodular.
PRINTED_EXAMPLE1_CERT = {
    "system": "sigma1+sigma2",
    "blocks": [
        {"rows": [1, 2], "base": ["a2", "a6"], "witness": "-z3"},
        {"rows": [3, 4, 5], "base": ["a3", "a5", "a7"], "witness": "-s^2 + s"},
    ],
}

BRIDGE = TextSystem(
    "bridge", ["R1", "R2", "R3", "R4", "L", "C"],
    [["-(R1*R2/(R1+R2) + R3*R4/(R3+R4))/L", "(R1/(R1+R2) - R3/(R3+R4))/L"],
     ["(R2/(R1+R2) - R4/(R3+R4))/C", "-(1/(R1+R2) - 1/(R3+R4))/C"]],
    [["1/L"], ["0"]],
)

UNIT = TextSystem("unit", ["z1", "z2", "z3"], [["z1"]], [["1"]])
DUP = compose_text([UNIT, UNIT], "unit+unit")


# -- random systems ----------------------------------------------------------------
#
# The entry distribution of the test suite's rand_system: an s-free entry is
# 0 (45 %), +-1 (15 %), a parameter (30 %) or a product of two (10 %).


def sparse_entry(params: list[str], rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return "0"
    if roll < 0.60:
        return rng.choice(["1", "-1"])
    z = rng.choice(params)
    if roll < 0.90:
        return z
    return f"{z}*{rng.choice(params)}"


def random_system(rng: random.Random, n: int, m: int, name: str) -> TextSystem:
    a = [[sparse_entry(RANDOM_PARAMS, rng) for _ in range(n)] for _ in range(n)]
    b = [[sparse_entry(RANDOM_PARAMS, rng) for _ in range(m)] for _ in range(n)]
    return TextSystem(name, RANDOM_PARAMS, a, b)


def composite_subsystem(rng: random.Random, i: int, n: int, k: int, name: str) -> TextSystem:
    """Subsystem i of k for a parallel composite with k + 1 shared inputs.

    It drives its own input i and the last input, which every subsystem
    shares; its other input columns are zero.  Redrawn until a point proves
    it controllable.
    """
    m = k + 1
    while True:
        a = [[sparse_entry(RANDOM_PARAMS, rng) for _ in range(n)] for _ in range(n)]
        b = [[sparse_entry(RANDOM_PARAMS, rng) if j in (i, k) else "0" for j in range(m)]
             for _ in range(n)]
        sys = TextSystem(name, RANDOM_PARAMS, a, b)
        if proves_controllable(sys, rng):
            return sys
