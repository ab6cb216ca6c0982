"""Exact big-integer / rational arithmetic helpers.

Everything in this package that carries a numeric answer is either a Python
int or a ``fractions.Fraction``; floats never enter a computed result.  This
module adds the few pieces the rest of the code needs on top of the stdlib:
"num/den" serialization, exponentiation with sign checks, and a fraction-free
solver for the Vandermonde systems produced by the count-reconstruction
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial as _factorial, lcm


class DuplicateNodes(ValueError):
    """Vandermonde nodes must be pairwise distinct."""


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return _factorial(n)


def rat_pow(base: Fraction, exp: int) -> Fraction:
    """Exact ``base ** exp`` for integer exp, refusing 0 ** negative."""
    if exp < 0 and base == 0:
        raise ZeroDivisionError("zero to a negative power")
    return Fraction(base) ** exp


def rat_to_str(q: Fraction) -> str:
    """Canonical "num/den" form used by every external format."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s.strip())


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

    Rows are scaled to integers and eliminated with Bareiss' fraction-free
    scheme, so every intermediate value stays an integer (minors of the
    scaled matrix) instead of a fraction with compounding denominators.
    """
    n = len(system.nodes)
    if n == 0:
        return ()
    rows: list[list[int]] = []
    for j in range(1, n + 1):
        row_q = [rat_pow(x, j) for x in system.nodes] + [system.rhs[j - 1]]
        scale = lcm(*(q.denominator for q in row_q))
        rows.append([int(q * scale) for q in row_q])

    prev_pivot = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            # cannot happen: leading minors of a positive-node Vandermonde
            # matrix are nonzero
            raise ArithmeticError("zero pivot in fraction-free elimination")
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev_pivot
            rows[i][k] = 0
        prev_pivot = rows[k][k]

    sol: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * sol[j]
        sol[i] = acc / rows[i][i]
    return tuple(sol)
