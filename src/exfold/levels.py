"""Candidate energy-level sets.

A candidate set is a finite superset of the energies occupied by a system's
ensemble, computable without solving the MFE problem.  The base-pair models
have closed forms; the nearest-neighbour model gets two constructions: a
coarse grid from per-loop bounds, and a dynamic program over sumsets that
returns exactly the occupied, symmetry-free levels for a fixed strand
ordering.

The DP mirrors a multistranded partition-function recursion with its algebra
swapped from (+, *) to (union, sumset).  Cells hold sets of integer quanta;
the empty set plays the marker Phi ("no structure of this shape exists"):
it absorbs sumsets and shifts (``_sum``, ``_shift``) and is the identity of
unions, which join cells in place with ``|=``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import rat_from_str, rat_to_str
from .strands import (
    InvalidInput,
    StrandSystem,
    complementary,
    flattening,
)
from .energy import (
    NNParams,
    interior_like_energy,
    max_symmetry_order,
    round_log_multiple,
)


@dataclass(frozen=True)
class LevelSet:
    """Sorted candidate energy levels in quanta of delta."""

    delta: Fraction
    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "levels", tuple(sorted(set(self.levels))))
        if self.delta <= 0:
            raise InvalidInput("delta must be positive")

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, quanta: int) -> bool:
        return quanta in set(self.levels)

    def to_json(self) -> str:
        return json.dumps({
            "delta": rat_to_str(self.delta),
            "levels": [str(g) for g in self.levels],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LevelSet":
        payload = json.loads(text)
        return cls(rat_from_str(payload["delta"]),
                   tuple(int(g) for g in payload["levels"]))


def levels_bpm(n: int) -> LevelSet:
    """{0, -1, ..., -floor(n/2)} quanta at delta = 1: one level per possible
    pair count."""
    if n < 1:
        raise InvalidInput("need at least one base")
    return LevelSet(Fraction(1), tuple(range(-(n // 2), 1)))


def levels_bps(n: int) -> LevelSet:
    """Same shape as the pair-count set; stack counts cannot exceed
    floor(n/2)."""
    return levels_bpm(n)


def min_gap(levels: LevelSet) -> Fraction:
    """Minimum pairwise level difference in energy units; delta when fewer
    than two levels."""
    if len(levels) < 2:
        return levels.delta
    gaps = (b - a for a, b in zip(levels.levels, levels.levels[1:]))
    return min(gaps) * levels.delta


# ---------------------------------------------------------------------------
# grid construction


def _pool(params: NNParams) -> tuple[int, int]:
    """Range of any single non-exterior loop's constant part."""
    values = list(params.stack.values()) + list(params.hairpin.values()) \
        + list(params.bulge.values()) + [params.multi_init]
    if params.interior_size and params.interior_asym and params.mismatch:
        lo_mm, hi_mm = min(params.mismatch.values()), max(params.mismatch.values())
        values.append(min(params.interior_size.values())
                      + min(params.interior_asym.values()) + 2 * lo_mm)
        values.append(max(params.interior_size.values())
                      + max(params.interior_asym.values()) + 2 * hi_mm)
    if not values:
        values = [0]
    return min(values), max(values)


def _max_symmetry_quanta(c: int, params: NNParams) -> int:
    terms = [0]
    for r in range(2, c + 1):
        if c % r == 0:
            terms.append(round_log_multiple(params.kbt, r, params.delta))
    return max(terms)


def grid_slope(params: NNParams, c: int = 1) -> int:
    """Per-base width constant of the grid; |grid| <= 1 + n * slope."""
    lo, hi = _pool(params)
    return (max(0, hi) - min(0, lo)
            + abs(params.multi_bp) + abs(params.multi_nt)
            + abs(params.assoc) + _max_symmetry_quanta(c, params))


def levels_nn_grid(system: StrandSystem, params: NNParams) -> LevelSet:
    """Every quanta level between sound per-base bounds.

    A structure has at most floor(n/2) non-exterior loops (one per closing
    pair), at most n multiloop-bordering pairs and n multiloop free bases in
    total, the association term exactly (c-1) times, and a symmetry term in
    [0, max divisor term].  Summing worst cases in each direction gives a
    superset of the occupied levels, O(n / delta) wide.
    """
    n, c = system.n, system.c
    lo_pool, hi_pool = _pool(params)
    assoc = (c - 1) * params.assoc
    low = ((n // 2) * min(0, lo_pool)
           + n * min(0, params.multi_bp) + n * min(0, params.multi_nt)
           + assoc)
    high = ((n // 2) * max(0, hi_pool)
            + n * max(0, params.multi_bp) + n * max(0, params.multi_nt)
            + assoc + _max_symmetry_quanta(c, params))
    return LevelSet(params.delta, tuple(range(low, high + 1)))


# ---------------------------------------------------------------------------
# sumset dynamic program (occupied levels, symmetry ignored)


def _sum(a, b) -> set:
    return {x + y for x in a for y in b}


def _shift(a, k: int) -> set:
    return {x + k for x in a}


def levels_nn_dp(system: StrandSystem, ordering: Sequence[int],
                 params: NNParams) -> LevelSet:
    """Exactly the occupied symmetry-free levels of the connected,
    crossing-free ensemble under ``ordering``, as quanta of params.delta.

    Cell meanings over the flat subsequence [i, j]:
      g[i,j]   levels of exterior-loop contents,
      gb[i,j]  levels given that (i, j) is a pair,
      gm[i,j]  levels given that [i, j] lies inside a multiloop and holds at
               least one pair.
    Phi (the empty set) marks impossible shapes; the base cells g[i, i-1]
    hold {0} and gm[i, i-1] hold Phi.
    """
    flat = flattening(system, ordering)
    n, c = system.n, system.c
    eta = flat.nick_count
    nick_after = lambda p: 1 if p in flat.nicks else 0

    g: dict = {}
    gb: dict = {}
    gm: dict = {}
    for i in range(1, n + 2):
        g[(i, i - 1)], gm[(i, i - 1)] = {0}, set()

    for l in range(1, n + 1):
        for i in range(1, n - l + 2):
            j = i + l - 1
            cb = set()
            if complementary(flat.base(i), flat.base(j)):
                if eta(i, j - 1) == 0 and j - i - 1 >= params.min_hairpin:
                    cb.add(params.table_entry(params.hairpin, j - i - 1, "hairpin"))
                for d in range(i + 1, j - 1):
                    for e in range(d + 1, j):
                        if not gb[(d, e)]:
                            continue
                        if eta(i, d - 1) == 0 and eta(e, j - 1) == 0:
                            cb |= _shift(gb[(d, e)],
                                         interior_like_energy(flat, i, d, e, j, params))
                        if (eta(e, j - 1) == 0 and nick_after(i) == 0
                                and nick_after(d - 1) == 0):
                            cb |= _shift(_sum(gm[(i + 1, d - 1)], gb[(d, e)]),
                                         params.multi_init + 2 * params.multi_bp
                                         + (j - e - 1) * params.multi_nt)
                for x in range(i, j):
                    if nick_after(x) != 1:
                        continue
                    if ((nick_after(i) == 0 and nick_after(j - 1) == 0)
                            or i == j - 1
                            or (x == i and nick_after(j - 1) == 0)
                            or (x == j - 1 and nick_after(i) == 0)):
                        cb |= _sum(g[(i + 1, x)], g[(x + 1, j - 1)])
            gb[(i, j)] = cb

            cg = {0} if eta(i, j - 1) == 0 else set()
            cm = set()
            for d in range(i, j):
                for e in range(d + 1, j + 1):
                    if not gb[(d, e)] or eta(e, j - 1) != 0:
                        continue
                    if nick_after(d - 1) == 0 or d == i:
                        cg |= _sum(g[(i, d - 1)], gb[(d, e)])
                    if eta(i, d - 1) == 0:
                        cm |= _shift(gb[(d, e)],
                                     params.multi_bp + (d - i + j - e) * params.multi_nt)
                    if nick_after(d - 1) == 0:
                        cm |= _shift(_sum(gm[(i, d - 1)], gb[(d, e)]),
                                     params.multi_bp + (j - e) * params.multi_nt)
            g[(i, j)] = cg
            gm[(i, j)] = cm

    assoc = (c - 1) * params.assoc
    return LevelSet(params.delta, tuple(v + assoc for v in g[(1, n)]))


def augment_symmetry(levels: LevelSet, system: StrandSystem,
                     ordering: Sequence[int], params: NNParams) -> LevelSet:
    """Close a level set under the possible rotational-symmetry penalties:
    for every divisor R > 1 of the ordering's maximum symmetry order, each
    level also appears shifted by the rounded k_B T ln R."""
    v = max_symmetry_order(system, ordering)
    out = set(levels.levels)
    for r in range(2, v + 1):
        if v % r != 0:
            continue
        shift = round_log_multiple(params.kbt, r, params.delta)
        out.update(l + shift for l in levels.levels)
    return LevelSet(levels.delta, tuple(out))
