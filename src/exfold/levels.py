"""Candidate energy-level sets.

A candidate set is a finite superset of the energies a system's ensemble
occupies, computable without solving the MFE problem.  The base-pair models
have closed forms; the nearest-neighbour model gets a coarse grid from per-loop
bounds, and a count dynamic program that returns exactly the occupied,
symmetry-free levels for a fixed strand ordering and their structure counts.

The count DP is a multistranded partition-function recursion (McCaskill 1990;
Dirks, Bois, Schaeffer, Winfree & Pierce 2007) over exact integers.  Each cell
is a count polynomial sum_k c_k x**(lo + k), stored as the pair (lo, packed)
with packed = sum_k c_k * 2**(W*k) (Kronecker substitution) and lo its lowest
level: a term joins a sum by one shift and one addition, the product of two
cells (the sumset of their levels) is one integer multiplication, and an energy
shift only moves lo.  Every coefficient counts distinct crossing-free
structures on at most n flat bases, at most S of them (see _slot_width), so
slots of W = S.bit_length() + 1 bits never carry.  Splitting on the rightmost
pair makes every branch but the O(n**2) interior scan O(n) per cell: O(n**3)
multiloop products, O(n**4) interior terms and, as only cells read are summed,
O(n**2) exterior products on one strand.  The loops do this algebra in line, row by row.

The grid's checked bounds per (n, c, alphabet) and the DP's size tables per n
are kept on the parameter set (``NNParams.derived``: frozen fields, a new
memo per ``replace``, no failure kept, and, as for ``size_entry``'s copies,
tables never edited in place), W per (n, h) in a bounded cache.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from .exactmath import rat_to_str
from .strands import (
    BudgetExceeded,
    InvalidInput,
    StrandSystem,
    complementary,
    flattening,
)
from .energy import (
    SIZE_TABLES,
    EnergyModel,
    NNParams,
    interior_like_energy,
    round_log_multiple,
)

BPM_LEVEL_BASES = 1 << 16  # largest n levels_bpm lists the levels of
NN_DP_BASES = 200  # largest n nn_level_counts runs on: 30 s for one random 200-nt strand


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
    pair count.  n above ``BPM_LEVEL_BASES`` raises ``BudgetExceeded``."""
    if n < 1:
        raise InvalidInput("need at least one base")
    if n > BPM_LEVEL_BASES:
        raise BudgetExceeded(f"n exceeds the budget of {BPM_LEVEL_BASES} bases")
    return LevelSet(Fraction(1), tuple(range(-(n // 2), 1)))


def levels_bps(n: int) -> LevelSet:
    """Same shape as the pair-count set; stack counts cannot exceed
    floor(n/2)."""
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


def _symmetry_penalties(v: int, params: NNParams) -> list[int]:
    """The rounded k_B T ln R, in quanta, of each divisor R > 1 of v."""
    return [round_log_multiple(params.kbt, r, params.delta) for r in range(2, v + 1) if v % r == 0]


def grid_slope(params: NNParams, c: int = 1) -> int:
    """Per-base width constant of the grid, from the explicit table entries
    (n = 0); |grid| <= 1 + n * slope while the tables reach n bases' loops.
    The acceptance tests bound the grid's size with it."""
    lo, hi = _pool(params, 0)
    return (max(0, hi) - min(0, lo)
            + abs(params.multi_bp) + abs(params.multi_nt)
            + abs(params.assoc) + max(_symmetry_penalties(c, params), default=0))


def levels_nn_grid(system: StrandSystem, params: NNParams) -> LevelSet:
    """Every quanta level between sound per-base bounds.

    A structure has at most floor(n/2) non-exterior loops (one per closing
    pair), at most n multiloop-bordering pairs and n multiloop free bases in
    total, the association term exactly (c-1) times, and a symmetry term in
    [0, max divisor term].  Summing worst cases in each direction gives a
    superset of the occupied levels, O(n / delta) wide.  It first reads each
    entry a loop on n bases can read (the sizes of ``loop_sizes``, mismatches
    opening with a complementary pair, stacks of two), so as to refuse an
    incomplete set; params keeps the bounds once checked, per (n, c,
    alphabet), the only inputs they read, and refuses a refused set again."""
    n, c = system.n, system.c
    letters = "".join(sorted(set().union(*(strand.sequence for strand in system.strands))))

    def bounds():
        pairs = [(a, b) for a in letters for b in letters if complementary(a, b)]
        for name in SIZE_TABLES:
            for m in params.loop_sizes(name, n):
                params.size_entry(name, m)
        for (a, b), x, y in itertools.product(pairs, letters, letters):
            params.table_entry(params.mismatch, (a, b, x, y), "mismatch")
            if (x, y) in pairs:
                params.table_entry(params.stack, (a, x, y, b), "stack")
        lo_pool, hi_pool = _pool(params, n)
        assoc = (c - 1) * params.assoc
        low = ((n // 2) * min(0, lo_pool)
               + n * min(0, params.multi_bp) + n * min(0, params.multi_nt)
               + assoc)
        high = ((n // 2) * max(0, hi_pool)
                + n * max(0, params.multi_bp) + n * max(0, params.multi_nt)
                + assoc + max(_symmetry_penalties(c, params), default=0))
        return low, high

    low, high = params.derived(("grid", n, c, letters), bounds)
    return LevelSet(params.delta, tuple(range(low, high + 1)))


# ---------------------------------------------------------------------------
# count dynamic program (occupied levels with multiplicities, symmetry ignored)


def nn_level_counts(system: StrandSystem, ordering: Sequence[int],
                    params: NNParams) -> dict[int, int]:
    """{level: structure count} over the connected, crossing-free structures
    under ``ordering``, with symmetry-free energies in quanta of params.delta;
    n above ``NN_DP_BASES`` raises ``BudgetExceeded`` before any cell is built.

    Cells over the flat subsequence [i, j], each a packed count polynomial
    (see the module docstring) or a false value for Phi, "no structure":
      gb[i][j]  given that (i, j) is a pair, kept in ends[i] and starts[j];
      g[i][j]   exterior-loop contents, no nick outside a pair; g[i][i-1] = 1;
                Phi unless read: row 1 (the answer g[1][n]), rows past a nick
                and columns up to the last nick (the sides of a loop across it);
      gm[i][j]  multiloop contents with a pair or more, no nick outside a pair;
      gm2[i][j] the same with two pairs or more; s1[i][j] with one, ending at j.
    Rows run i = n..1, columns j = i..n, so every cell read is final: g keeps
    its rows, gm is one row, gm2 this row and the one below, s1 one column.
    g, gm and gm2 are running sums per row over the rightmost pair (d, j),
    kept by the trail [no nick at j-1].  Multiloop levels are normalized: each
    base costs multi_nt, a pair (d, e) enters at its level + multi_bp -
    multi_nt * (e - d + 1), an unpaired base moves nothing, and the closing
    pair (i, j) adds multi_nt * (j - i - 1) back.  gb[i][j] packs its terms,
    summed by level, from the lowest.  Its interior terms scan the non-empty
    gb[d][e] with nick-free flanks in (d, e) order, reading the formula of
    ``interior_like_energy`` off the mismatches, the bulge row and the size +
    asymmetry table params keeps per n; a term that meets an empty slot calls
    it, so the first loop in this order that needs a missing entry raises.
    Slots are ``_slot_width`` bits wide.
    """
    if system.n > NN_DP_BASES:
        raise BudgetExceeded(f"n = {system.n} exceeds the count DP's budget of {NN_DP_BASES} bases")
    flat, n = flattening(system, ordering), system.n
    width = _slot_width(n, 0 if flat.nicks else params.min_hairpin)
    seq = " " + flat.sequence + " "  # seq[p] is base p; the pads match no table key
    stack, mismatch = params.stack, params.mismatch

    def rows():  # bulge[m], interior[l1][l2] = size[l1+l2] + asym[|l1-l2|]; None: missing
        bulge, size, asym = (list(map(params.size_table(name, n).get, range(n + 1)))
                             for name in list(SIZE_TABLES)[1:])
        return bulge, [[None if None in (size[a + b], asym[abs(a - b)]) else size[a + b]
                        + asym[abs(a - b)] for b in range(n + 1 - a)] for a in range(n + 1)]
    bulge, interior = params.derived(("rows", n), rows)
    pairable = {(a, b) for a, b in itertools.product(set(seq), repeat=2) if complementary(a, b)}
    nick = [p in flat.nicks for p in range(n + 1)]  # nick[p]: between p and p+1
    last_nick = [*itertools.accumulate((p * x for p, x in enumerate(nick)), max)]
    next_nick = [*itertools.accumulate((p if nick[p] else n for p in range(n, -1, -1)), min)][::-1]
    bp, nt = params.multi_bp, params.multi_nt

    g = [None] * (n + 2)  # g[i]: row i, read by the rows above
    gm, gm2, s1 = [None] * (n + 1), [None] * (n + 1), [None] * (n + 1)
    ends = [[] for _ in range(n + 2)]    # ends[d]: (e, *gb[d][e], gb level + inner mismatch)
    starts = [[] for _ in range(n + 2)]  # starts[e]: (d, *gb[d][e], multiloop level, no nick at d-1)
    for i in range(n, 0, -1):
        g[i] = g_i = [None] * (i - 1) + [(0, 1)] + [None] * (n + 1 - i)  # g[i][i-1] = 1
        below, gm2 = gm2, [None] * (n + 1)  # gm2[i+1] and row i
        read_to = n if i == 1 or nick[i - 1] else last_nick[n]  # g[i][j] past it stays Phi
        ex_lo, ex, m_lo, m, m2_lo, m2 = 0, 1, 0, 0, 0, 0  # g, gm, gm2 [i, j]; 0 is Phi
        for j in range(i, n + 1):
            p = 0  # gb[i][j]'s packed counts, v its multiloop level
            if (seq[i], seq[j]) in pairable:
                terms = {}  # gb[i][j]'s terms: level -> summed packed counts
                if next_nick[i] >= j and j - i - 1 >= params.min_hairpin:
                    terms[params.size_entry("hairpin", j - i - 1)] = 1
                outer = mismatch.get((seq[i], seq[j], seq[i + 1], seq[j - 1]))
                e_min = last_nick[j - 1] + 1  # with d <= next_nick[i]: nick-free flanks
                for d in range(i + 1, min(j - 2, next_nick[i]) + 1):
                    l1 = d - i - 1
                    row = interior[l1]
                    for e, lo, packed, lo_inner in ends[d]:
                        if e >= j:
                            break
                        if e < e_min:
                            continue
                        l2 = j - e - 1
                        try:  # interior_like_energy's formula on the tables
                            if l1 and l2:
                                lo = lo_inner + row[l2] + outer
                            elif l1 or l2:
                                lo += bulge[l1 + l2]
                            else:
                                lo += stack.get((seq[i], seq[d], seq[e], seq[j]))
                        except TypeError:  # a part is None: raise its InvalidInput
                            lo += interior_like_energy(flat, i, d, e, j, params)
                        terms[lo] = terms.get(lo, 0) + packed
                inside = not nick[i] and not nick[j - 1] and below[j - 1]
                if inside:  # (i, j) closes a multiloop
                    lo = inside[0] + params.multi_init + bp + nt * (j - i - 1)
                    terms[lo] = terms.get(lo, 0) + inside[1]
                x = next_nick[i]
                while x < j:  # (i, j) closes an exterior loop across the nick x in [i, j-1]
                    left, right = g[i + 1][x], g[x + 1][j - 1]
                    if left and right and (x == i or not nick[i]) and (x == j - 1 or not nick[j - 1]):
                        lo = left[0] + right[0]
                        terms[lo] = terms.get(lo, 0) + left[1] * right[1]
                    x = next_nick[x + 1]
                if terms:
                    lo, v = min(terms), min(terms) + bp - nt * (j - i + 1)
                    for k, q in terms.items():
                        p += q << width * (k - lo)
                    inner = mismatch.get((seq[j], seq[i], seq[j + 1], seq[i - 1]))
                    ends[i].append((j, lo, p, None if inner is None else lo + inner))
                    starts[j].append((i, lo, p, v, not nick[i - 1]))

            # terms (v, p) join a running sum (lo, packed) by shifting the lower-level one
            if j > i and nick[j - 1]:  # j cannot be unpaired
                ex = m = m2 = 0
            o_lo, o = not nick[i] and s1[j] or (0, 0)
            if p:
                if not o or v < o_lo:  # v is the lowest level so far
                    o, o_lo = o and o << width * (o_lo - v), v
                o += p << width * (v - o_lo)
            s1[j] = o and (o_lo, o)
            if o:
                if not m or o_lo < m_lo:
                    m, m_lo = m and m << width * (m_lo - o_lo), o_lo
                m += o << width * (o_lo - m_lo)
            for d, lo, packed, lo_m, free in starts[j]:  # terms whose last pair is (d, j)
                left = j <= read_to and (free or d == i) and g_i[d - 1]
                if left:
                    v, p = left[0] + lo, left[1] * packed
                    if not ex or v < ex_lo:
                        ex, ex_lo = ex and ex << width * (ex_lo - v), v
                    ex += p << width * (v - ex_lo)
                left = free and gm[d - 1]
                if left:  # a pair or more before d
                    v, p = left[0] + lo_m, left[1] * packed
                    if not m or v < m_lo:
                        m, m_lo = m and m << width * (m_lo - v), v
                    m += p << width * (v - m_lo)
                    if not m2 or v < m2_lo:
                        m2, m2_lo = m2 and m2 << width * (m2_lo - v), v
                    m2 += p << width * (v - m2_lo)
            if j <= read_to:
                g_i[j] = ex and (ex_lo, ex)
            gm[j], gm2[j] = m and (m_lo, m), m2 and (m2_lo, m2)

    lo, packed = g[1][n] or (0, 0)
    lo, mask = lo + (system.c - 1) * params.assoc, (1 << width) - 1
    return {lo + k: count for k in range(-(-packed.bit_length() // width))
            if (count := packed >> width * k & mask)}


@lru_cache(maxsize=256)
def _slot_width(n: int, h: int) -> int:
    """S.bit_length() + 1 bits.  A coefficient counts distinct structures on
    at most n bases, so at most S = s[n], the pairings of n points in a row
    with h or more points inside each pair (Stein & Waterman 1979); h is
    min_hairpin on one strand, else 0: a pair across a nick has no floor."""
    s = [1]  # s[k]: the pairings of k points
    for k in range(1, n + 1):  # point k unpaired, or paired with k - q + 1 around q - 2 >= h
        s.append(s[-1] + sum(s[q - 2] * s[k - q] for q in range(h + 2, k + 1)))
    return s[n].bit_length() + 1


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
    shifts = [0] + _symmetry_penalties(flattening(system, ordering).symmetry_order, params)
    return LevelSet(levels.delta, tuple(l + shift for shift in shifts for l in levels.levels))


def candidate_levels(system: StrandSystem, model: EnergyModel, dp: bool = True,
                     symmetry: bool = True) -> LevelSet:
    """``levels_bpm(system.n)`` for BPM and BPS.  For NN, the union over the
    circular orderings (each structure is crossing-free under one) of each
    ordering's count-DP levels, or the grid when ``dp`` is false, closed
    under its symmetry penalties when ``symmetry`` is true; one DP per tuple
    of sequences, whose orderings share flat sequence, nicks and symmetry."""
    if model.kind != "nn":
        return levels_bpm(system.n)
    params, out, firsts = model.params, set(), {}
    grid = None if dp else levels_nn_grid(system, params)
    for ordering in system.circular_orderings():
        firsts.setdefault(tuple(system.strand_by_id(t).sequence for t in ordering), ordering)
    for ordering in firsts.values():
        lv = levels_nn_dp(system, ordering, params) if dp else grid
        if symmetry:
            lv = augment_symmetry(lv, system, ordering, params)
        out.update(lv.levels)
    return LevelSet(params.delta, tuple(out))
