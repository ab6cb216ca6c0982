import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from exfold.exactmath import (
    DuplicateNodes,
    VandermondeSystem,
    factorial,
    rat_to_str,
    solve_vandermonde,
)


@pytest.mark.parametrize("n,expected", [(0, 1), (4, 24), (10, 3628800)])
def test_factorial(n, expected):
    assert factorial(n) == expected


def test_factorial_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_rational_serialization_roundtrip():
    for q in (F(3, 7), F(-12, 5), F(0), F(24)):
        assert F(rat_to_str(q)) == q
    assert rat_to_str(F(24)) == "24/1"


def test_vandermonde_2x2():
    sol = solve_vandermonde(VandermondeSystem((F(2), F(4)), (F(10), F(36))))
    assert sol == (F(1), F(2))


def test_vandermonde_3x3_structure_counts():
    # moments of the pair-count histogram of a 4-base strand at base 2
    sol = solve_vandermonde(VandermondeSystem((F(1), F(2), F(4)), (F(9), F(25), F(81))))
    assert sol == (F(1), F(2), F(1))


def test_vandermonde_1x1():
    c, v = F(5, 3), F(-7, 2)
    assert solve_vandermonde(VandermondeSystem((c,), (c * v,))) == (v,)


def test_vandermonde_duplicate_nodes_rejected():
    with pytest.raises(DuplicateNodes):
        VandermondeSystem((F(2), F(2)), (F(1), F(1)))


@pytest.mark.parametrize("nodes, rhs, message", [
    ((F(2), F(3)), (F(1),), "nodes and rhs must have the same length"),
    ((F(2), F(0)), (F(1), F(1)), "nodes must be positive"),
    ((F(2), F(-1, 2)), (F(1), F(1)), "nodes must be positive"),
], ids=["length-mismatch", "zero-node", "negative-node"])
def test_vandermonde_refused(nodes, rhs, message):
    with pytest.raises(ValueError) as raised:
        VandermondeSystem(nodes, rhs)
    assert str(raised.value) == message


def test_vandermonde_roundtrip_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 8)
        nodes = set()
        while len(nodes) < n:
            nodes.add(F(rng.randint(1, 40), rng.randint(1, 12)))
        nodes = tuple(nodes)
        x = tuple(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n))
        rhs = tuple(sum(x[i] * nodes[i] ** j for i in range(n)) for j in range(1, n + 1))
        sol = solve_vandermonde(VandermondeSystem(nodes, rhs))
        assert sol == x
        # substitute back: bit-exact reproduction of the right-hand side
        for j in range(1, n + 1):
            assert sum(sol[i] * nodes[i] ** j for i in range(n)) == rhs[j - 1]


@st.composite
def dual_systems(draw):
    """Distinct positive rational nodes on both sides of 1 and a rational
    solution of any sign."""
    n = draw(st.integers(1, 24))
    nodes = draw(st.lists(st.builds(F, st.integers(1, 40), st.integers(1, 12)),
                          min_size=n, max_size=n, unique=True))
    x = draw(st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
                      min_size=n, max_size=n))
    return tuple(nodes), tuple(x)


class TestDualVandermondeProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dual_systems())
    def test_roundtrip(self, case):
        nodes, x = case
        n = len(nodes)
        rhs = tuple(sum(x[i] * nodes[i] ** j for i in range(n)) for j in range(1, n + 1))
        sol = solve_vandermonde(VandermondeSystem(nodes, rhs))
        assert sol == x
        for j in range(1, n + 1):
            assert sum(sol[i] * nodes[i] ** j for i in range(n)) == rhs[j - 1]

    @pytest.mark.parametrize("base", [F(2), F(1, 2), F(3), F(3, 2)])
    def test_n80_ladder(self, base):
        # the count-reconstruction shape: nodes base**-g on 80 consecutive
        # levels, counts of the partial matchings of 79 C with 79 G
        levels = range(0, -80, -1)
        counts = [comb(79, -g) ** 2 * factorial(-g) for g in levels]
        nodes = [base ** -g for g in levels]
        rhs = tuple(sum(c * v ** j for c, v in zip(counts, nodes)) for j in range(1, 81))
        assert solve_vandermonde(VandermondeSystem(tuple(nodes), rhs)) == tuple(counts)
