"""Exact big-integer / rational arithmetic helpers.

Everything in this package that carries a numeric answer is either a Python
int or a ``fractions.Fraction``; floats never enter a computed result.  This
module adds the two pieces the rest of the code needs on top of the stdlib:
"num/den" serialization and an O(N**2) integer solver for the transposed
Vandermonde systems produced by the count-reconstruction reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm  # factorial: imported from here by the acceptance tests


class DuplicateNodes(ValueError):
    """Vandermonde nodes must be pairwise distinct."""


def rat_to_str(q: Fraction) -> str:
    """Canonical "num/den" form used by every external format."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class VandermondeSystem:
    """Moment equations sum_i x_i * node_i**j = rhs_j for j = 1..N."""

    nodes: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        nodes = tuple(Fraction(v) for v in self.nodes)
        rhs = tuple(Fraction(v) for v in self.rhs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "rhs", rhs)
        if len(nodes) != len(rhs):
            raise ValueError("nodes and rhs must have the same length")
        if len(set(nodes)) != len(nodes):
            raise DuplicateNodes(f"duplicate nodes in {nodes}")
        if any(v <= 0 for v in nodes):
            raise ValueError("nodes must be positive")


def solve_vandermonde(system: VandermondeSystem) -> tuple[Fraction, ...]:
    """Solve the system exactly; returns the unique solution vector.

    The matrix is a transposed Vandermonde matrix, which the master
    polynomial inverts in O(N**2) operations (Bjorck & Pereyra, Math. Comp.
    24, 1970): with P(z) = prod_i (z - v_i) and q_i = P / (z - v_i) =
    sum_k q_ik z**k, sum_k q_ik rhs_(k+1) = x_i v_i q_i(v_i), since q_i
    vanishes at every other node.  Scaling the nodes by the lcm d of their
    denominators (a_i = v_i d) and the rhs to r_j = rhs_j d**j D (D the lcm
    of the rhs denominators) keeps that form in ints; one Horner pass per
    node gives q_i, the numerator sum_k q_ik r_(k+1) and the nonzero
    denominator q_i(a_i) a_i, and x_i = num / (D den) is the only Fraction.
    """
    n = len(system.nodes)
    d = lcm(*(v.denominator for v in system.nodes))
    big_d = lcm(*(q.denominator for q in system.rhs))
    nodes = [v.numerator * (d // v.denominator) for v in system.nodes]
    rhs = [q.numerator * (big_d // q.denominator) * d**j
           for j, q in enumerate(system.rhs, start=1)]

    # P(z) = prod (z - a_i), p[k] the coefficient of z**k
    p = [1]
    for a in nodes:
        p = [0] + p
        for k in range(len(p) - 1):
            p[k] -= a * p[k + 1]

    sol = []
    for a in nodes:
        # q_(N-1) = 1, q_(k-1) = p_k + a q_k; h accumulates q(a) by Horner
        q = h = 1
        num = rhs[n - 1]
        for k in range(n - 1, 0, -1):
            q = p[k] + a * q
            h = h * a + q
            num += q * rhs[k - 1]
        sol.append(Fraction(num, big_d * h * a))
    return tuple(sol)
