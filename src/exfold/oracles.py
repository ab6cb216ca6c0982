"""Exact oracles for the five thermodynamic problems.

A ``DensityOfStates`` answers MFE, PF, SSEL and their decision versions, and
``dos_brute`` enumerates the reference one.  ``OracleHandle`` wraps any of
them as the oracle the reductions call, and is the one place where
magnification is applied, as the weight of a PF query: the j-magnified PF
weighs level g by base**(-j*g), and dpf takes the per-quantum weight itself.

The partition function stays exact because the Boltzmann factor per
quantum, e**(delta/kT), is replaced by a positive rational base b != 1: a
structure at g quanta contributes b**(-g).  Every identity the reductions
rely on is algebra over these weights.  Decimals are for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .strands import (
    DEFAULT_PAIR_BUDGET,
    InvalidInput,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
    nn_space,
)
from .energy import EnergyModel, energy

EMPTY_ENSEMBLE = "the ensemble is empty: no structure fits the space"


def check_base(base: Fraction) -> Fraction:
    base = Fraction(base)
    if base <= 0 or base == 1:
        raise InvalidInput("Boltzmann base must be positive and != 1")
    return base


@dataclass(frozen=True)
class DensityOfStates:
    """Exact histogram: energy level (quanta) -> number of structures."""

    counts: dict
    delta: Fraction
    space: Optional[StructureSpace] = None

    def total(self) -> int:
        return sum(self.counts.values())

    def mfe(self) -> int:
        if not self.counts:
            raise InvalidInput(EMPTY_ENSEMBLE)
        return min(self.counts)

    def ssel(self, level_quanta) -> int:
        return self.counts.get(level_quanta, 0)

    def pf(self, base: Fraction, magnification: int = 1) -> Fraction:
        base = check_base(base)
        return sum(
            (count * base**(-magnification * g) for g, count in self.counts.items()),
            Fraction(0),
        )


def dos_brute(system: StrandSystem, space: StructureSpace, model: EnergyModel,
              budget: int = DEFAULT_PAIR_BUDGET) -> DensityOfStates:
    """Exhaustive density of states over the space.

    An NN model's ensemble is fixed by its parameters: the knot-free,
    connected structures whose hairpins close at least ``min_hairpin``
    bases.  Any other space would count a different set of structures than
    the model defines, so it is refused."""
    if model.kind == "nn":
        want = nn_space(model.params.min_hairpin)
        if space != want:
            raise InvalidInput(f"the nn model's space is {want}, not {space}")
    counts: dict[int, int] = {}
    for structure in enumerate_structures(system, space, budget):
        g = energy(model, system, structure)
        counts[g] = counts.get(g, 0) + 1
    return DensityOfStates(counts, model.delta, space)


def pf_decimal(value: Fraction, digits: int = 12) -> str:
    """Display-only decimal approximation of an exact rational, truncated
    toward zero."""
    if digits < 1:
        raise InvalidInput("need at least one digit")
    scaled = abs(value) * 10**digits
    whole = scaled.numerator // scaled.denominator
    sign = "-" if value < 0 and whole else ""
    return f"{sign}{whole // 10**digits}.{whole % 10**digits:0{digits}d}"


@dataclass
class OracleHandle:
    """The oracle over an exact density of states of ``system``, whatever
    its source.  Magnification is a PF weight: ``pf(j)`` weighs each
    structure by base**(-j * quanta), and ``dpf`` by the per-quantum weight
    it is given, n! in the threshold reductions.  Their base-n! digits need
    fewer than n! structures for n >= 3, as every ensemble has: n bases form
    at most T(n) < n! matchings."""

    system: StrandSystem
    dos: DensityOfStates
    base: Fraction

    def __post_init__(self):
        self.base = check_base(self.base)
        if not self.dos.counts:
            raise InvalidInput(EMPTY_ENSEMBLE)
        if self.n >= 3 and self.dos.total() >= math.factorial(self.n):
            raise InvalidInput(f"{self.dos.total()} structures on {self.n} bases: "
                               f"an ensemble holds fewer than {self.n}!")

    @property
    def n(self) -> int:
        return self.system.n

    def pf(self, j: int = 1) -> Fraction:
        if not isinstance(j, int) or j < 0:
            raise InvalidInput("magnification must be a non-negative integer")
        return self.dos.pf(self.base, j)

    def dpf(self, threshold: Fraction, base: Fraction) -> bool:
        return self.dos.pf(base) >= threshold

    def mfe(self) -> int:
        return self.dos.mfe()

    def dmfe(self, threshold) -> bool:
        return self.dos.mfe() <= threshold

    def ssel(self, level) -> int:
        return self.dos.ssel(level)


def make_oracle(system: StrandSystem, space: StructureSpace, model: EnergyModel,
                base: Fraction) -> OracleHandle:
    """The oracle over ``dos_brute``; the base is checked before enumerating."""
    base = check_base(base)
    return OracleHandle(system, dos_brute(system, space, model), base)
