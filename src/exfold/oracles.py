"""Brute-force reference oracles for the five thermodynamic problems.

``dos_brute`` enumerates the ensemble once into a ``DensityOfStates``, which
answers MFE, PF, SSEL and their decision versions; ``OracleHandle`` wraps it
as the oracle the reductions call, and is the one place where magnification
is applied: the j-magnified model scales each level by j.

The partition function stays exact because the Boltzmann factor per
quantum, e**(delta/kT), is replaced by a positive rational base b != 1: a
structure at g quanta contributes b**(-g).  Every identity the reductions
rely on is algebra over these weights.  Decimals are for display only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .strands import (
    DEFAULT_PAIR_BUDGET,
    InvalidInput,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
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
        want = StructureSpace(allow_pseudoknots=False, require_connected=True,
                              min_hairpin=model.params.min_hairpin)
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
    """Magnification-aware oracle facade over one brute-force density of
    states.  Every query accepts an integer magnification j >= 0; pf and dpf
    also accept a ``base`` override, for the huge magnifications whose
    per-quantum weight is another rational (n! in the threshold
    reductions), not a power of the handle's own base."""

    system: StrandSystem
    space: StructureSpace
    model: EnergyModel
    base: Fraction
    dos: DensityOfStates = field(init=False)
    calls: int = field(default=0, init=False)

    def __post_init__(self):
        self.base = check_base(self.base)
        self.dos = dos_brute(self.system, self.space, self.model)
        if not self.dos.counts:
            raise InvalidInput(EMPTY_ENSEMBLE)

    @property
    def n(self) -> int:
        return self.system.n

    def _query(self, j: int):
        """Count one query at magnification ``j``, a non-negative int."""
        if not isinstance(j, int) or j < 0:
            raise InvalidInput("magnification must be a non-negative integer")
        self.calls += 1

    def pf(self, j: int = 1, base: Optional[Fraction] = None) -> Fraction:
        self._query(j)
        return self.dos.pf(self.base if base is None else base, j)

    def dpf(self, threshold: Fraction, j: int = 1,
            base: Optional[Fraction] = None) -> bool:
        self._query(j)
        return self.dos.pf(self.base if base is None else base, j) >= threshold

    def mfe(self, j: int = 1) -> int:
        self._query(j)
        return self.dos.mfe() * j

    def dmfe(self, threshold, j: int = 1) -> bool:
        self._query(j)
        return self.dos.mfe() * j <= threshold

    def ssel(self, level_quanta, j: int = 1) -> int:
        self._query(j)
        if j == 0:
            return self.dos.total() if level_quanta == 0 else 0
        if level_quanta % j != 0:
            return 0
        return self.dos.ssel(level_quanta // j)


def make_oracle(system: StrandSystem, space: StructureSpace, model: EnergyModel,
                base: Fraction) -> OracleHandle:
    return OracleHandle(system, space, model, Fraction(base))
