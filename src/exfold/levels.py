"""Candidate energy-level sets.

A candidate set is a finite superset of the energies occupied by a system's
ensemble, computable without solving the MFE problem.  The base-pair models
have closed forms; the nearest-neighbour model gets a coarse grid from
per-loop bounds, and a count dynamic program that returns exactly the
occupied, symmetry-free levels for a fixed strand ordering, with the number
of structures at each.

The count DP is a multistranded partition-function recursion (McCaskill
1990; Dirks, Bois, Schaeffer, Winfree & Pierce 2007) over exact integers.
Each cell is a count polynomial sum_k c_k x**(lo + k), stored as the pair
(lo, packed) with packed = sum_k c_k * 2**(W*k) (Kronecker substitution):
union is + after aligning the lows, the product of two cells (the sumset of
their levels) is one integer multiplication, and an energy shift only moves
lo.  None is Phi, "no structure of this shape".  Every coefficient counts
crossing-free structures on at most n flat bases, fewer than 3**n, so slots
of W = (3**n).bit_length() + 1 bits never carry.  Splitting on the
rightmost pair makes every branch but the O(n**2) interior scan O(n) per
cell: O(n**3) big-integer products and O(n**4) interior terms at most.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import rat_to_str
from .strands import (
    InvalidInput,
    StrandSystem,
    complementary,
    flattening,
)
from .energy import (
    SIZE_TABLES,
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

    def to_json(self) -> str:
        return json.dumps({
            "delta": rat_to_str(self.delta),
            "levels": [str(g) for g in self.levels],
        }, sort_keys=True)


def levels_bpm(n: int) -> LevelSet:
    """{0, -1, ..., -floor(n/2)} quanta at delta = 1: one level per possible
    pair count."""
    if n < 1:
        raise InvalidInput("need at least one base")
    return LevelSet(Fraction(1), tuple(range(-(n // 2), 1)))


def levels_bps(n: int) -> LevelSet:
    """Same shape as the pair-count set; stack counts cannot exceed
    floor(n/2).  Kept because perfbench calls it, until ROADMAP item 1."""
    return levels_bpm(n)


# ---------------------------------------------------------------------------
# grid construction


def _pool(params: NNParams, n: int) -> tuple[int, int]:
    """Range of any single non-exterior loop's constant part on n bases: the
    size tables' explicit entries and their continuations up to the loops
    of n bases (``NNParams.size_table``)."""
    hairpin, bulge, size, asym = (params.size_table(name, n).values() for name in SIZE_TABLES)
    values = list(params.stack.values()) + list(hairpin) + list(bulge) + [params.multi_init]
    if size and asym and params.mismatch:
        lo_mm, hi_mm = min(params.mismatch.values()), max(params.mismatch.values())
        values.append(min(size) + min(asym) + 2 * lo_mm)
        values.append(max(size) + max(asym) + 2 * hi_mm)
    return min(values), max(values)


def _max_symmetry_quanta(c: int, params: NNParams) -> int:
    return max([0] + [round_log_multiple(params.kbt, r, params.delta)
                      for r in range(2, c + 1) if c % r == 0])


def grid_slope(params: NNParams, c: int = 1) -> int:
    """Per-base width constant of the grid, from the explicit table entries
    (n = 0); |grid| <= 1 + n * slope while the tables reach n bases' loops.
    The acceptance tests bound the grid's size with it."""
    lo, hi = _pool(params, 0)
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
    lo_pool, hi_pool = _pool(params, n)
    assoc = (c - 1) * params.assoc
    low = ((n // 2) * min(0, lo_pool)
           + n * min(0, params.multi_bp) + n * min(0, params.multi_nt)
           + assoc)
    high = ((n // 2) * max(0, hi_pool)
            + n * max(0, params.multi_bp) + n * max(0, params.multi_nt)
            + assoc + _max_symmetry_quanta(c, params))
    return LevelSet(params.delta, tuple(range(low, high + 1)))


# ---------------------------------------------------------------------------
# count dynamic program (occupied levels with multiplicities, symmetry ignored)


def nn_level_counts(system: StrandSystem, ordering: Sequence[int],
                    params: NNParams) -> dict[int, int]:
    """{level: number of structures} over the connected, crossing-free
    structures under ``ordering``, with symmetry-free energies in quanta of
    params.delta.

    Cells over the flat subsequence [i, j], each a packed count polynomial
    (see the module docstring) or None for Phi, "no structure of this shape":
      gb[i][j]  given that (i, j) is a pair;
      g[i][j]   exterior-loop contents, no nick outside a pair; g[i][i-1] = 1;
      gm[i][j]  multiloop contents with at least one pair; each pair carries
                multi_bp, each unpaired base multi_nt, and no nick lies
                outside a pair;
      gm2[i][j] the same with at least two pairs;
      s1[i][j]  multiloop contents with one pair, which ends at j.
    g, gm and gm2 are trails over the rightmost pair (d, e): with A[i, e] the
    contents whose last pair ends at e,
      T[i, j] = A[i, j] + [no nick at j-1] * shift(T[i, j-1], unpaired cost).
    The interior branch of gb scans the non-empty gb[d][e] with nick-free
    flanks in (d, e) order, cells by length then i, so a missing table entry
    raises at the first loop that needs it.
    """
    flat = flattening(system, ordering)
    n = system.n
    width = (3 ** n).bit_length() + 1
    nick = [p in flat.nicks for p in range(n + 1)]  # nick[p]: between p and p+1
    next_nick = [n] * (n + 1)  # first nick at or after p, n when none
    for p in range(n - 1, 0, -1):
        next_nick[p] = p if nick[p] else next_nick[p + 1]
    last_nick = [0] * (n + 1)  # last nick at or before p, 0 when none
    for p in range(1, n + 1):
        last_nick[p] = p if nick[p] else last_nick[p - 1]
    bp, nt = params.multi_bp, params.multi_nt

    def add(a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a[0] > b[0]:
            a, b = b, a
        return a[0], a[1] + (b[1] << width * (b[0] - a[0]))

    def mul(a, b):
        return None if a is None or b is None else (a[0] + b[0], a[1] * b[1])

    def shift(a, k):
        return None if a is None else (a[0] + k, a[1])

    g, gb, gm, gm2, s1 = ([[None] * (n + 2) for _ in range(n + 2)] for _ in range(5))
    for i in range(1, n + 2):
        g[i][i - 1] = (0, 1)
    ends = [[] for _ in range(n + 2)]    # ends[d]: e with gb[d][e] non-empty, ascending
    starts = [[] for _ in range(n + 2)]  # starts[e]: d with gb[d][e] non-empty

    for l in range(1, n + 1):
        for i in range(1, n - l + 2):
            j = i + l - 1
            cb = None
            if complementary(flat.base(i), flat.base(j)):
                if next_nick[i] >= j and j - i - 1 >= params.min_hairpin:
                    cb = (params.size_entry("hairpin", j - i - 1), 1)
                e_min = last_nick[j - 1] + 1  # with d <= next_nick[i]: nick-free flanks
                for d in range(i + 1, min(j - 2, next_nick[i]) + 1):
                    for e in ends[d]:
                        if e >= j:
                            break
                        if e < e_min:
                            continue
                        lo, packed = gb[d][e]
                        cb = add(cb, (lo + interior_like_energy(flat, i, d, e, j, params),
                                      packed))
                if not nick[i] and not nick[j - 1]:
                    cb = add(cb, shift(gm2[i + 1][j - 1], params.multi_init + bp))
                for x in range(i, j):
                    if not nick[x]:
                        continue
                    if ((not nick[i] and not nick[j - 1]) or i == j - 1
                            or (x == i and not nick[j - 1])
                            or (x == j - 1 and not nick[i])):
                        cb = add(cb, mul(g[i + 1][x], g[x + 1][j - 1]))
            if cb is not None:
                gb[i][j] = cb
                ends[i].append(j)
                starts[j].append(i)
            s1[i][j] = add(shift(cb, bp), None if nick[i] else shift(s1[i + 1][j], nt))

            exterior = multi = None  # contents whose last pair is (d, j)
            for d in starts[j]:
                if d == i or not nick[d - 1]:
                    exterior = add(exterior, mul(g[i][d - 1], gb[d][j]))
                if not nick[d - 1]:
                    multi = add(multi, mul(gm[i][d - 1], gb[d][j]))
            multi = shift(multi, bp)
            trail = j == i or not nick[j - 1]
            g[i][j] = add(exterior, g[i][j - 1] if trail else None)
            gm[i][j] = add(add(s1[i][j], multi), shift(gm[i][j - 1], nt) if trail else None)
            gm2[i][j] = add(multi, shift(gm2[i][j - 1], nt) if trail else None)

    counts: dict[int, int] = {}
    if g[1][n] is None:
        return counts
    level, packed = g[1][n]
    level += (system.c - 1) * params.assoc
    mask = (1 << width) - 1
    while packed:
        if packed & mask:
            counts[level] = packed & mask
        packed >>= width
        level += 1
    return counts


def levels_nn_dp(system: StrandSystem, ordering: Sequence[int],
                 params: NNParams) -> LevelSet:
    """Exactly the occupied symmetry-free levels of the connected,
    crossing-free ensemble under ``ordering``, as quanta of params.delta:
    the support of ``nn_level_counts``."""
    return LevelSet(params.delta, tuple(nn_level_counts(system, ordering, params)))


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
