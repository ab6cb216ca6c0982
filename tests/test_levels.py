import ast
import copy
import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exfold.strands import (
    VALID_BASES,
    BudgetExceeded,
    InvalidInput,
    StrandSystem,
    StructureSpace,
    complementary,
    enumerate_structures,
    flattening,
    nn_space,
)
from exfold.energy import (
    BPM,
    BPS,
    SIZE_TABLES,
    dump_nn_params,
    energy_nn_detail,
    interior_like_energy,
    load_nn_params,
    nn_model,
    toy_params_a,
    toy_params_b,
    toy_params_file,
)
from exfold.levels import (
    NN_DP_BASES,
    LevelSet,
    augment_symmetry,
    candidate_levels,
    grid_slope,
    levels_bpm,
    levels_bps,
    levels_nn_dp,
    levels_nn_grid,
    nn_level_counts,
)
from exfold.oracles import dos_brute

from test_flat_pairs import systems

PARAMS = (toy_params_a(16), toy_params_b(16))


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


def tiny_params():
    """Hairpin floor 1 and a stabilising multi_bp < 0, so that multiloops
    form in short systems."""
    from exfold.energy import NNParams
    keys = list(itertools.product(VALID_BASES, repeat=4))
    return NNParams(
        delta=F(1), kbt=F(1), assoc=1, multi_init=4, multi_bp=-2, multi_nt=1,
        stack={key: -2 for key in keys},
        hairpin={1: 2, 2: 2, 3: 1}, bulge={1: 2, 2: 3},
        interior_size={2: 1, 3: 2}, interior_asym={0: 0, 1: 1},
        mismatch={key: 1 if key[0] == "C" else 0 for key in keys},
        min_hairpin=1)


# ---------------------------------------------------------------------------
# reference: the O(n**4) recursion over level sets that the count DP replaced


def _sum(a, b) -> set:
    return {x + y for x in a for y in b}


def _shift(a, k: int) -> set:
    return {x + k for x in a}


def reference_levels(system, ordering, params) -> tuple:
    """Occupied symmetry-free levels by the set recursion: g (exterior
    contents), gb ((i, j) paired) and gm (multiloop contents with a pair),
    each cell a set of quanta, every branch a double loop over the pairs
    (d, e).  The empty set is Phi."""
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
                    cb.add(params.size_entry("hairpin", j - i - 1))
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
    return tuple(sorted(v + assoc for v in g[(1, n)]))


def occupied_symfree(system, ordering, params):
    """Brute-force occupied levels without the symmetry term."""
    space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                           min_hairpin=params.min_hairpin)
    out = set()
    for st in enumerate_structures(system, space, 64, fixed_ordering=ordering):
        d = energy_nn_detail(system, ordering, st, params)
        out.add(d.loops_quanta + d.assoc_quanta)
    return tuple(sorted(out))


def occupied_full(system, ordering, params):
    space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                           min_hairpin=params.min_hairpin)
    return {energy_nn_detail(system, ordering, st, params).total
            for st in enumerate_structures(system, space, 64, fixed_ordering=ordering)}


class TestClosedForms:
    @pytest.mark.parametrize("n,expected", [
        (7, (-3, -2, -1, 0)),
        (1, (0,)),
        (4, (-2, -1, 0)),
    ])
    def test_levels_bpm(self, n, expected):
        lv = levels_bpm(n)
        assert lv.levels == expected and lv.delta == 1

    def test_levels_bps_same_shape(self):
        assert levels_bps(9).levels == levels_bpm(9).levels

    def test_size_formula(self):
        for n in range(1, 12):
            assert len(levels_bpm(n)) == n // 2 + 1

    def test_budget(self):
        assert len(levels_bpm(1 << 16)) == (1 << 15) + 1
        for n in ((1 << 16) + 1, 10 ** 30):
            with pytest.raises(BudgetExceeded, match="n exceeds the budget of 65536 bases"):
                levels_bpm(n)


class TestSumset:
    """The reference recursion's cell algebra; the empty set plays Phi, "no
    structure of this shape"."""

    def test_plain(self):
        assert _sum({0, -1}, {0, -2}) == {-3, -2, -1, 0}
        assert _shift({0, -1}, 3) == {3, 2}

    def test_identity(self):
        a = {4, -7}
        assert _sum(a, {0}) == a
        cell = set(a)
        cell |= set()
        assert cell == a

    def test_phi_absorbs(self):
        a = {0, 1}
        assert _sum(a, set()) == set()
        assert _sum(set(), a) == set()
        assert _sum(set(), set()) == set()
        assert _shift(set(), 2) == set()


class TestGrid:
    def test_zero_params_grid_is_origin(self):
        # every size table explicit up to n = 6, the grid's reach
        from exfold.energy import NNParams
        zero = NNParams(
            stack={k: 0 for k in PARAMS[0].stack},
            hairpin={m: 0 for m in range(3, 7)}, bulge={m: 0 for m in range(1, 7)},
            interior_size={m: 0 for m in range(2, 7)}, interior_asym={m: 0 for m in range(5)},
            mismatch={k: 0 for k in PARAMS[0].mismatch},
        )
        assert levels_nn_grid(sys_of("ACGTAA"), zero).levels == (0,)

    def test_grid_superset_and_size(self):
        rng = random.Random(77)
        for _ in range(15):
            c = rng.choice((1, 1, 2))
            lens = [rng.randint(1, 5) for _ in range(c)]
            seqs = ["".join(rng.choice("ACGT") for _ in range(L)) for L in lens]
            system = sys_of(*seqs)
            for params in PARAMS:
                grid = set(levels_nn_grid(system, params).levels)
                occ = occupied_symfree(system, system.ids, params)
                assert set(occ) <= grid
                assert len(grid) <= 1 + system.n * grid_slope(params, system.c)

    def test_grid_refuses_where_the_dp_does(self):
        # toy sets with entries dropped, on small systems: the grid bounds
        # every loop n bases can form, so it reads every entry the count DP
        # can reach and refuses whenever the DP does
        rng = random.Random(31)
        refused = 0
        for _ in range(300):
            c = rng.choice((1, 1, 2, 3))
            system = sys_of(*("".join(rng.choice("ACGU") for _ in range(rng.randint(1, 12 // c)))
                              for _ in range(c)))
            if rng.random() < 0.2:  # an interior loop, which reads the mismatch table
                system = sys_of("GAGAAACAC")
            params, tables = (toy_params_a if rng.random() < 0.5 else toy_params_b)(system.n), {}
            for table in rng.sample(("stack", "mismatch", *SIZE_TABLES), rng.randint(1, 2)):
                entries = dict(getattr(params, table))
                pool = [k for k in entries if isinstance(k, int) or complementary(*k[:2])
                        or complementary(k[0], k[3])]
                drop = len(pool) if rng.random() < 0.3 else min(len(pool), rng.randint(1, 3))
                for key in rng.sample(pool, drop):
                    del entries[key]
                tables[table] = entries
            params = replace(params, **tables)
            try:
                levels_nn_dp(system, rng.choice(list(system.circular_orderings())), params)
            except InvalidInput:
                refused += 1
                with pytest.raises(InvalidInput):
                    levels_nn_grid(system, params)
        assert refused >= 40


class TestSumsetDP:
    def test_inert(self):
        s = sys_of("AAA")
        assert levels_nn_dp(s, s.ids, PARAMS[0]).levels == (0,)

    def test_prohibited_hairpin(self):
        s = sys_of("ACGT")
        assert levels_nn_dp(s, s.ids, PARAMS[0]).levels == (0,)

    def test_stem_loop_matches_brute(self):
        s = sys_of("GGGAAAACCC")
        for params in PARAMS:
            assert levels_nn_dp(s, s.ids, params).levels \
                == occupied_symfree(s, s.ids, params)

    def test_no_connected_structure_empty(self):
        s = sys_of("GGG", "AAA", "CCC")
        assert levels_nn_dp(s, (1, 2, 3), PARAMS[0]).levels == ()

    def test_cross_nick_pair(self):
        s = sys_of("G", "C")
        for params in PARAMS:
            assert levels_nn_dp(s, (1, 2), params).levels == ((s.c - 1) * params.assoc,)

    def test_matches_brute_sweep(self):
        rng = random.Random(123)
        for _ in range(40):
            c = rng.choice((1, 1, 2, 2, 3))
            lens = [rng.randint(1, 5) for _ in range(c)]
            while sum(lens) > 10:
                lens[lens.index(max(lens))] -= 1
            seqs = ["".join(rng.choice("ACGT") for _ in range(L)) for L in lens]
            if c >= 2 and rng.random() < 0.3:
                seqs[1] = seqs[0]
            system = sys_of(*seqs)
            ordering = rng.choice(list(system.circular_orderings()))
            params = rng.choice(PARAMS)
            assert levels_nn_dp(system, ordering, params).levels \
                == occupied_symfree(system, ordering, params), (seqs, ordering)


class TestSumsetDPMultiloops:
    """Multiloop recursion paths need either n >= 12 (hairpin floor 3) or a
    smaller floor; both are covered here since the n <= 10 sweeps cannot
    reach them."""

    @pytest.mark.parametrize("seq", [
        "GGGAAACGAAACACC",   # two-branch multiloop under the shipped floor
        "GGGAAACCGGAAACC",
        "GCGAAACGCAAAGCAC",
    ])
    def test_shipped_params_multiloop_systems(self, seq):
        s = sys_of(seq)
        for params in PARAMS:
            assert levels_nn_dp(s, s.ids, params).levels \
                == occupied_symfree(s, s.ids, params)

    @pytest.mark.parametrize("seqs", [
        ("GGACGACGACC",),     # 3- and 4-branch multiloops
        ("GGACGACGACAC",),
        ("GGACGAC", "GACC"),  # multiloop next to a cross-nick exterior
        ("GGCAGCACGC",),
    ])
    def test_small_hairpin_floor_multiloops(self, seqs):
        from exfold.energy import decompose_loops
        params = tiny_params()
        system = sys_of(*seqs)
        ordering = system.ids
        space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                               min_hairpin=1)
        branches = set()
        for st in enumerate_structures(system, space, 64, fixed_ordering=ordering):
            for loop in decompose_loops(system, ordering, st):
                if loop.kind == "multiloop":
                    branches.add(len(loop.children) + 1)
        assert branches, "test system must actually form multiloops"
        assert levels_nn_dp(system, ordering, params).levels \
            == occupied_symfree(system, ordering, params)
        assert nn_level_counts(system, ordering, params) \
            == brute_counts(system, ordering, params)

    def test_small_floor_random_sweep(self):
        rng = random.Random(99)
        params = tiny_params()
        for _ in range(30):
            c = rng.choice((1, 1, 1, 2))
            lens = [rng.randint(2, 6) for _ in range(c)]
            while sum(lens) > 11:
                lens[lens.index(max(lens))] -= 1
            seqs = ["".join(rng.choice("GCGA") for _ in range(L)) for L in lens]
            system = sys_of(*seqs)
            assert levels_nn_dp(system, system.ids, params).levels \
                == occupied_symfree(system, system.ids, params), seqs


def brute_counts(system, ordering, params) -> dict:
    """{symmetry-free level: structure count} by enumeration."""
    space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                           min_hairpin=params.min_hairpin)
    out: dict = {}
    for st in enumerate_structures(system, space, 64, fixed_ordering=ordering):
        d = energy_nn_detail(system, ordering, st, params)
        level = d.loops_quanta + d.assoc_quanta
        out[level] = out.get(level, 0) + 1
    return out


def reference_counts(system, ordering, params) -> dict:
    """``nn_level_counts``'s recursion written with ``add``, ``mul`` and
    ``shift`` on packed cells, in length-major order (cells by length, then
    i), with 2-D tables for every cell, multiloop levels that charge each
    unpaired base as it is passed, every interior term scored by
    ``interior_like_energy`` and folded into its cell one at a time, and
    every x in [i, j-1] tested for a nick.  The count maps must agree, and so
    must the refusal of a set one entry short; with several entries missing,
    each order raises at its own first loop that needs one, so the two may
    name different entries (``TestMissingTableEntries``)."""
    flat = flattening(system, ordering)
    n = system.n
    width = (3 ** n).bit_length() + 1
    nick = [p in flat.nicks for p in range(n + 1)]
    next_nick = [n] * (n + 1)
    for p in range(n - 1, 0, -1):
        next_nick[p] = p if nick[p] else next_nick[p + 1]
    last_nick = [0] * (n + 1)
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
    ends = [[] for _ in range(n + 2)]
    starts = [[] for _ in range(n + 2)]
    for l in range(1, n + 1):
        for i in range(1, n - l + 2):
            j = i + l - 1
            cb = None
            if complementary(flat.base(i), flat.base(j)):
                if next_nick[i] >= j and j - i - 1 >= params.min_hairpin:
                    cb = (params.size_entry("hairpin", j - i - 1), 1)
                e_min = last_nick[j - 1] + 1
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
            exterior = multi = None
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

    counts: dict = {}
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


def nussinov_count(seq: str, h: int) -> int:
    """Crossing-free structures on one strand whose pairs are complementary
    and close h or more bases (Nussinov, Pieczenik, Griggs & Kleitman, SIAM
    J. Appl. Math. 35, 1978): base j-1 of seq[i:j] is unpaired or pairs a k
    with j-2-k >= h."""
    n = len(seq)
    count = [[1] * (n + 1) for _ in range(n + 1)]  # count[i][j]: structures on seq[i:j]
    for length in range(h + 2, n + 1):
        for i in range(n - length + 1):
            j = i + length
            count[i][j] = count[i][j - 1] + sum(
                count[i][k] * count[k + 1][j - 1] for k in range(i, j - h - 1)
                if complementary(seq[k], seq[j - 1]))
    return count[0][n]


def random_system(rng, n, c, alphabet="GCAU"):
    """c strands over n bases; a quarter of the multistrand systems repeat
    one strand."""
    if c > 1 and rng.random() < 0.25:
        seq = "".join(rng.choice(alphabet) for _ in range(n // c))
        return sys_of(*[seq] * c)
    cuts = [0] + sorted(rng.sample(range(1, n), c - 1)) + [n]
    return sys_of(*("".join(rng.choice(alphabet) for _ in range(b - a))
                    for a, b in zip(cuts, cuts[1:])))


class TestCountDP:
    """``nn_level_counts`` against brute-force counts and the reference
    count maps, and ``levels_nn_dp`` against the set recursion, beyond the
    acceptance range (n <= 10, c <= 3)."""

    def test_counts_match_brute_force_sweep(self):
        rng = random.Random(8)
        params = PARAMS + (tiny_params(),)
        for case in range(150):
            c = rng.randint(1, 4)
            system = random_system(rng, rng.randint(max(c, 4), 16), c,
                                   rng.choice(("GCAU", "GCAU", "GCGA", "GGCCA")))
            ordering = rng.choice(list(system.circular_orderings()))
            p = params[case % 3]
            counts = nn_level_counts(system, ordering, p)
            assert counts == brute_counts(system, ordering, p), (system, ordering, case % 3)
            assert counts == reference_counts(system, ordering, p), (system, ordering, case % 3)

    @pytest.mark.parametrize("n", [24, 32, 40, 48])
    def test_long_single_strands_match_the_reference(self, n):
        rng = random.Random(n)
        system = sys_of("".join(rng.choice("GCAU") for _ in range(n)))
        params = (toy_params_a if n % 16 else toy_params_b)(n)
        assert levels_nn_dp(system, system.ids, params).levels \
            == reference_levels(system, system.ids, params)

    @pytest.mark.parametrize("n", [48, 64, 100])
    def test_long_single_strands_match_the_reference_counts(self, n):
        """n = 100 runs under toy_params_a only: its reference alone takes
        about 2 s."""
        rng = random.Random(n + 1)
        system = sys_of("".join(rng.choice("GCAU") for _ in range(n)))
        for params in (toy_params_a(n), toy_params_b(n))[:1 if n >= 100 else 2]:
            assert nn_level_counts(system, system.ids, params) \
                == reference_counts(system, system.ids, params)

    @pytest.mark.parametrize("n", [64, 100])
    def test_long_single_strands_total_the_nussinov_count(self, n):
        """Past brute force, a check that shares no recursion with the DP:
        on one strand every crossing-free structure of complementary pairs
        that close min_hairpin or more bases has an energy, so the counts
        over all levels sum to the Nussinov count."""
        rng = random.Random(n + 2)
        seq = "".join(rng.choice("GCAU") for _ in range(n))
        system = sys_of(seq)
        for params in (toy_params_a(n), toy_params_b(n)):
            total = sum(nn_level_counts(system, system.ids, params).values())
            assert total == nussinov_count(seq, params.min_hairpin) > 1 << 40

    @pytest.mark.parametrize("nt, bp", [(0, 0), (-1, 2), (3, -2)])
    def test_normalized_multiloop_levels_under_other_multiloop_costs(self, nt, bp):
        """The DP charges multi_nt to every base of a multiloop's contents and
        refunds a pair's span when it enters; ``reference_counts`` charges the
        unpaired bases as it passes them.  They agree with no, a negative and
        a positive multi_nt, on one to three strands, repeated strands
        included, under every circular ordering."""
        rng = random.Random(60 + 7 * nt + bp)
        for case in range(9):
            c, n = 1 + case % 3, rng.randint(10, 18)
            if c > 1 and case >= 6:  # repeated strands
                system = sys_of(*["".join(rng.choice("GCGCAU") for _ in range(n // c))] * c)
            else:
                system = random_system(rng, n, c, "GCGCAU")
            for params in (toy_params_a(system.n), tiny_params()):
                params = replace(params, multi_nt=nt, multi_bp=bp)
                for ordering in system.circular_orderings():
                    assert nn_level_counts(system, ordering, params) \
                        == reference_counts(system, ordering, params), (system, ordering)

    def test_the_budget_refuses_before_any_cell_is_built(self):
        """Past ``NN_DP_BASES`` bases the DP raises ``BudgetExceeded``, also
        on a set without stacks, which its first stacked pair would refuse;
        n = NN_DP_BASES still runs, and the grid has no such budget."""
        over = sys_of("GC" * (NN_DP_BASES // 2) + "A")
        params = replace(toy_params_a(over.n), stack={})
        message = f"n = {NN_DP_BASES + 1} exceeds the count DP's budget of {NN_DP_BASES} bases"
        for call in (lambda: nn_level_counts(over, over.ids, params),
                     lambda: levels_nn_dp(over, over.ids, toy_params_a(over.n)),
                     lambda: candidate_levels(over, nn_model(params))):
            with pytest.raises(BudgetExceeded) as err:
                call()
            assert str(err.value) == message
        assert candidate_levels(over, nn_model(toy_params_a(over.n)), dp=False).levels
        at = sys_of("A" * NN_DP_BASES)
        assert nn_level_counts(at, at.ids, toy_params_a(at.n)) == {0: 1}

    @pytest.mark.parametrize("lens", [(1, 23), (23, 1), (1, 1, 22), (11, 1, 11)],
                             ids=lambda lens: "-".join(map(str, lens)))
    def test_exterior_cells_up_to_the_last_nick(self, lens):
        """``nn_level_counts`` sums the exterior cell g[i][j] only in row 1,
        in a row just past a nick and in the columns up to the last nick,
        the cells an exterior loop across a nick reads; ``reference_counts``
        sums every cell.  These orderings put the last nick early (few rows
        and columns are summed) or late (almost every cell is)."""
        rng = random.Random(len(lens) * 100 + lens[0])
        for case in range(4):
            system = sys_of(*("".join(rng.choice("GCGCAU") for _ in range(k)) for k in lens))
            params = (toy_params_a, toy_params_b)[case % 2](system.n)
            for ordering in system.circular_orderings():
                assert nn_level_counts(system, ordering, params) \
                    == reference_counts(system, ordering, params), (system, ordering)

    @pytest.mark.parametrize("n,c", [(16, 2), (32, 2), (24, 3), (32, 3), (24, 4), (32, 4)])
    def test_multistrand_systems_match_the_reference(self, n, c):
        rng = random.Random(100 * n + c)
        for params in (toy_params_a(n), toy_params_b(n)):
            system = random_system(rng, n, c)
            ordering = rng.choice(list(system.circular_orderings()))
            assert levels_nn_dp(system, ordering, params).levels \
                == reference_levels(system, ordering, params), (system, ordering)
            assert nn_level_counts(system, ordering, params) \
                == reference_counts(system, ordering, params), (system, ordering)

    @pytest.mark.parametrize("lens", [(1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1),
                                      (1, 3, 1, 2), (2, 1, 1, 3), (3, 1, 3, 1), (2, 2, 2, 2)],
                             ids=lambda lens: "-".join(map(str, lens)))
    def test_nicks_at_both_ends_of_a_cell(self, lens):
        """One-base strands and three or four strands put a nick right after
        i and right before j of many cells (i, j), so every case of the
        exterior loop across a nick is read: both ends nicked, one of them,
        and the pair (i, i+1) across its own nick."""
        rng = random.Random(len(lens) * 100 + sum(lens))
        params = PARAMS + (tiny_params(),)
        for case in range(6):
            system = sys_of(*("".join(rng.choice("GCGCAU") for _ in range(k)) for k in lens))
            for ordering in system.circular_orderings():
                p = params[case % 3]
                counts = nn_level_counts(system, ordering, p)
                assert counts == reference_counts(system, ordering, p), (system, ordering)
                assert counts == brute_counts(system, ordering, p), (system, ordering)

    # The slots are as wide as the crossing-free pairings of n points allow
    # (the hairpin floor only on one strand), while ``reference_counts`` keeps
    # 3**n's width: these systems put counts close to the narrower bound.

    def test_an_all_pairing_strand_near_the_slot_bound(self):
        """G*20 + C*20 has 2**35 structures or more, against fewer than 2**40
        pairings of 40 points with three or more inside each pair."""
        system = sys_of("G" * 20 + "C" * 20)
        params = toy_params_a(40)
        counts = nn_level_counts(system, system.ids, params)
        assert sum(counts.values()).bit_length() == 36
        assert counts == reference_counts(system, system.ids, params)

    def test_a_pair_across_a_nick_has_no_hairpin_floor(self):
        """GG + CC has 4 structures at one level.  A hairpin floor of 3 on
        its 4 flat bases would allow a single pairing and a 2-bit slot."""
        system, params = sys_of("GG", "CC"), toy_params_a(4)
        counts = nn_level_counts(system, system.ids, params)
        assert 4 in counts.values()
        assert counts == reference_counts(system, system.ids, params)
        assert counts == brute_counts(system, system.ids, params)

    def test_short_gc_strands_under_every_ordering(self):
        rng = random.Random(30)
        for _ in range(40):
            system = sys_of(*("".join(rng.choice("GC") for _ in range(rng.randint(1, 4)))
                              for _ in range(rng.randint(2, 5))))
            params = toy_params_a(system.n)
            for ordering in system.circular_orderings():
                assert nn_level_counts(system, ordering, params) \
                    == reference_counts(system, ordering, params), (system, ordering)


class TestMissingTableEntries:
    """The shipped tables are explicit up to loop size 16 and continue above
    it, so loops longer than 16 get the DP levels that the set recursion and
    ``toy_params_a(n)``, explicit up to n, give them.  A size below a
    table's smallest key, or a missing stack or mismatch key, raises the
    error the set recursion and ``reference_counts`` raise, and only in a
    system that has a loop needing it."""

    SHIPPED = load_nn_params(toy_params_file("toy_nn_a"))

    def outcome(self, dp, system, params):
        try:
            return tuple(dp(system, system.ids, params))
        except InvalidInput as exc:
            return str(exc)

    def check(self, system, params=SHIPPED):
        got = self.outcome(lambda *a: levels_nn_dp(*a).levels, system, params)
        assert got == self.outcome(reference_levels, system, params), system
        return got

    def check_counts(self, system, params):
        got = self.outcome(lambda *a: nn_level_counts(*a).items(), system, params)
        assert got == self.outcome(lambda *a: reference_counts(*a).items(), system, params), system

    def check_long(self, system):
        got = self.check(system)
        assert got == levels_nn_dp(system, system.ids, toy_params_a(system.n)).levels, system
        return got

    def test_long_hairpin(self):
        s = sys_of("GGG" + "A" * 18 + "CCC")
        hairpin = self.SHIPPED.size_entry("hairpin", 18)
        assert hairpin == toy_params_a(s.n).hairpin[18]
        assert 2 * self.SHIPPED.stack[tuple("GGCC")] + hairpin in self.check_long(s)

    @pytest.mark.parametrize("seqs,beyond", [
        (("GGG" + "A" * 12 + "CCC",), None),       # hairpins of 12 to 16
        (("GGG" + "A" * 18, "CCC" + "A" * 3), None),  # long loops only across a nick
        (("G" + "A" * 17 + "G", "CC"), ("bulge", 17)),
        (("G" + "A" * 9 + "G", "C" + "A" * 9 + "C"), ("interior_size", 18)),
    ])
    def test_constructed_systems(self, seqs, beyond):
        system = sys_of(*seqs)
        assert self.check_long(system)
        if beyond:
            name, m = beyond
            assert self.SHIPPED.size_entry(name, m) == getattr(toy_params_a(system.n), name)[m]

    def test_size_below_the_smallest_key_raises(self):
        no_bulge_1 = replace(self.SHIPPED, bulge={m: v for m, v in self.SHIPPED.bulge.items()
                                                  if m > 1})
        assert self.check(sys_of("GAGAAAACC"), no_bulge_1) \
            == "missing bulge parameter entry for 1"

    def test_long_loop_sweep(self):
        rng = random.Random(16)
        for _ in range(40):
            c = rng.choice((1, 1, 2))
            system = random_system(rng, rng.randint(20, 28), c, "GCAAAAAU")
            assert isinstance(self.check_long(system), tuple)

    def without(self, table, keys):
        return replace(self.SHIPPED, **{table: {k: v for k, v in getattr(self.SHIPPED, table).items()
                                               if k not in keys}})

    def partial_tables(self):
        """One entry short each: an outer and an inner mismatch, a stack,
        and the smallest interior size and asymmetry, which leaves those
        below the new smallest key."""
        return {
            "outer mismatch": (self.without("mismatch", {tuple("GCAA")}),
                               "missing mismatch parameter entry for ('G', 'C', 'A', 'A')"),
            "inner mismatch": (self.without("mismatch", {tuple("CGAA")}),
                               "missing mismatch parameter entry for ('C', 'G', 'A', 'A')"),
            "stack": (self.without("stack", {tuple("GGCC")}),
                      "missing stack parameter entry for ('G', 'G', 'C', 'C')"),
            "interior size": (self.without("interior_size", {2}),
                              "missing interior size parameter entry for 2"),
            "interior asymmetry": (self.without("interior_asym", {0}),
                                   "missing interior asymmetry parameter entry for 0"),
        }

    @pytest.mark.parametrize("what", ["outer mismatch", "inner mismatch", "stack",
                                      "interior size", "interior asymmetry"])
    def test_missing_entries_raise_as_the_references_do(self, what):
        params, message = self.partial_tables()[what]
        # (1, 11) closes an interior loop on (3, 9), which stacks on (4, 8)
        assert self.check(sys_of("GAGGAAACCAC"), params) == message
        for seq in ("GAGGAAACCAC", "GAAAAC", "GCAGAAACAAGC"):
            self.check_counts(sys_of(seq), params)
        # a system that never needs the entry still gets its levels
        assert self.check(sys_of("GAAAAC"), params) == (0, self.SHIPPED.hairpin[4])

    def test_missing_entry_sweep(self):
        rng = random.Random(15)
        raised = set()
        for case in range(60):
            system = random_system(rng, rng.randint(8, 14), rng.choice((1, 1, 2)), "GGCCAU")
            for what, (params, message) in self.partial_tables().items():
                if self.check(system, params) == message:
                    raised.add(what)
                self.check_counts(system, params)
        assert raised == set(self.partial_tables())

    def several_short(self):
        """Sets short of several entries: no bulge at all, and no hairpin
        below 5 (sizes 3 and 4 missing)."""
        return {"no bulges": replace(self.SHIPPED, bulge={}),
                "hairpins from 5": replace(self.SHIPPED, hairpin={
                    m: v for m, v in self.SHIPPED.hairpin.items() if m >= 5})}

    def names_a_missing_entry(self, message, params):
        what, key = re.fullmatch(r"missing (.+) parameter entry for (.+)", message).groups()
        table = {**{v: k for k, v in SIZE_TABLES.items()}, "stack": "stack", "mismatch": "mismatch"}
        return ast.literal_eval(key) not in getattr(params, table[what])

    def test_with_several_entries_missing_a_missing_one_is_named(self):
        """The DP raises at the first loop, in its row order, that needs a
        missing entry, and the length-major ``reference_counts`` at its own
        first one: with several entries missing they may name different ones
        (19 of the 93 refusals here), but they refuse the same systems,
        each names an entry that is missing, and the counts agree elsewhere."""
        rng = random.Random(17)
        refused = 0
        for _ in range(60):
            system = random_system(rng, rng.randint(8, 18), rng.choice((1, 1, 2)))
            for params in self.several_short().values():
                got = self.outcome(lambda *a: nn_level_counts(*a).items(), system, params)
                want = self.outcome(lambda *a: reference_counts(*a).items(), system, params)
                assert isinstance(got, str) == isinstance(want, str), system
                if isinstance(got, str):
                    refused += 1
                    assert self.names_a_missing_entry(got, params), (system, got)
                    assert self.names_a_missing_entry(want, params), (system, want)
                else:
                    assert got == want, system
        assert refused >= 40

    def test_the_dp_changes_nothing_visible_on_params(self):
        params = load_nn_params(toy_params_file("toy_nn_a"))
        before, text, dump = copy.deepcopy(params), repr(params), dump_nn_params(params)
        tables = {name: params.size_table(name, 16) for name in SIZE_TABLES}
        rng = random.Random(40)
        system = sys_of("".join(rng.choice("GCAU") for _ in range(40)))
        assert nn_level_counts(system, system.ids, params)
        assert levels_nn_grid(system, params) == levels_nn_grid(system, params)
        assert params == before and repr(params) == text and dump_nn_params(params) == dump
        assert {name: params.size_table(name, 16) for name in SIZE_TABLES} == tables

    @pytest.mark.parametrize("what", ["outer mismatch", "inner mismatch", "stack",
                                      "interior size", "interior asymmetry"])
    def test_a_refused_set_refuses_every_call(self, what):
        # the per-set memo keeps no failure: each call raises the same error
        params, message = self.partial_tables()[what]
        system = sys_of("GAGGAAACCAC")
        for call in (lambda: levels_nn_grid(system, params),
                     lambda: nn_level_counts(system, system.ids, params)):
            got = []
            for _ in range(2):
                with pytest.raises(InvalidInput) as err:
                    call()
                got.append(str(err.value))
            assert got[0] == got[1] and got[0].startswith("missing "), (what, got)
        assert str(err.value) == message  # the DP's, as the references raise it


class TestDerivedMemo:
    """``NNParams.derived`` keeps the grid's checked bounds and the count
    DP's size rows on the parameter set; a warm set, shared by systems of
    every size, answers as a fresh copy does."""

    def test_a_warm_set_answers_as_a_fresh_copy(self):
        rng = random.Random(62)
        pristine = {"a": toy_params_a(24), "b": toy_params_b(24),
                    "file": load_nn_params(toy_params_file("toy_nn_a"))}
        warm, big_first = copy.deepcopy(pristine), copy.deepcopy(pristine)
        big = random_system(rng, 30, 2)
        for params in big_first.values():  # a larger n first
            assert levels_nn_grid(big, params) and nn_level_counts(big, big.ids, params)
        for case in range(210):
            c = rng.randint(1, 3)
            system = random_system(rng, rng.randint(c, 22), c, rng.choice(("GCAU", "GC", "GCA")))
            ordering = rng.choice(list(system.circular_orderings()))
            name = rng.choice(sorted(warm))
            fresh = copy.deepcopy(pristine[name]) if case % 2 else replace(pristine[name])
            grid, counts = levels_nn_grid(system, fresh), nn_level_counts(system, ordering, fresh)
            for shared in (warm[name], big_first[name]):
                assert levels_nn_grid(system, shared) == grid, system
                assert nn_level_counts(system, ordering, shared) == counts, (system, ordering)
        assert warm == big_first == pristine

    def test_the_grid_checks_each_alphabet(self):
        # a set missing a stack only A-U pairs read: a G-C system of the same
        # size and strand count gets its grid first, then A-U is refused
        params = toy_params_a(12)
        params = replace(params, stack={k: v for k, v in params.stack.items()
                                        if k != tuple("AGCU")})
        assert levels_nn_grid(sys_of("GGGAAAACCC"), params)
        for _ in range(2):
            with pytest.raises(InvalidInput, match="missing stack parameter entry"):
                levels_nn_grid(sys_of("GGAUAAAACC"), params)

    def test_replace_starts_a_fresh_memo(self):
        # a replaced set with other tables must not read the first set's memo
        params = toy_params_a(12)
        system = sys_of("GGGAAAACCCA")
        grid, counts = levels_nn_grid(system, params), nn_level_counts(system, system.ids, params)
        other = replace(params, bulge={m: v + 5 for m, v in params.bulge.items()},
                        stack={k: v - 1 for k, v in params.stack.items()})
        want = (levels_nn_grid(system, copy.deepcopy(other)),
                nn_level_counts(system, system.ids, copy.deepcopy(other)))
        assert (levels_nn_grid(system, other), nn_level_counts(system, system.ids, other)) == want
        assert want[0] != grid and want[1] != counts


class TestSymmetryAugmentation:
    def test_trivial_order_unchanged(self):
        s = sys_of("AT", "GC")
        lv = LevelSet(PARAMS[0].delta, (0, -2))
        assert augment_symmetry(lv, s, (1, 2), PARAMS[0]).levels == (-2, 0)

    def test_set_mechanics(self):
        from exfold.energy import round_log_multiple
        s = sys_of("AT", "AT")
        params = PARAMS[0]
        t = round_log_multiple(params.kbt, 2, params.delta)
        lv = LevelSet(params.delta, (0, -2))
        assert set(augment_symmetry(lv, s, (1, 2), params).levels) \
            == {0, -2, t, -2 + t}

    @pytest.mark.parametrize("c, tops", [(4, (88, 99)), (6, (133, 150))])
    def test_every_divisor_of_the_symmetry_order(self, c, tops):
        # v = c on c equal strands: each divisor R > 1 shifts every level by
        # its own rounded kT ln R (toy_params_b has delta = 1/2)
        from exfold.energy import round_log_multiple
        system = sys_of(*["GC"] * c)
        assert flattening(system, system.ids).symmetry_order == c
        for params, top in zip(PARAMS, tops):
            dp = levels_nn_dp(system, system.ids, params)
            want = {level + round_log_multiple(params.kbt, r, params.delta)
                    for level in dp.levels for r in range(1, c + 1) if c % r == 0}
            assert set(augment_symmetry(dp, system, system.ids, params).levels) == want
            assert levels_nn_grid(system, params).levels[-1] == top

    def test_superset_of_full_occupied(self):
        for seqs in (("AT", "AT"), ("GC", "GC"), ("ACG", "ACG"), ("GC", "GC", "GC")):
            system = sys_of(*seqs)
            ordering = system.ids
            for params in PARAMS:
                dp = levels_nn_dp(system, ordering, params)
                aug = augment_symmetry(dp, system, ordering, params)
                assert occupied_full(system, ordering, params) <= set(aug.levels)


class TestSupersetLaw:
    """Every candidate set holds every occupied level, on systems of up to
    four strands with repeated strands, n <= 10."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(systems(), st.sampled_from(PARAMS))
    def test_candidate_sets_hold_the_occupied_levels(self, system, params):
        grid = set(levels_nn_grid(system, params).levels)
        augmented = set()
        for ordering in system.circular_orderings():
            dp = levels_nn_dp(system, ordering, params)
            assert set(dp.levels) <= grid
            augmented |= set(augment_symmetry(dp, system, ordering, params).levels)
        assert set(dos_brute(system, nn_space(), nn_model(params)).counts) <= augmented
        pair_levels = set(levels_bpm(system.n).levels)
        for model in (BPM, BPS):
            assert set(dos_brute(system, StructureSpace(), model).counts) <= pair_levels


class TestCandidateLevels:
    """One candidate set per model: the pair-count set for BPM and BPS, and
    for NN a superset of every occupied level, repeated strands included."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(systems(), st.sampled_from(PARAMS))
    def test_nn_holds_every_brute_force_level(self, system, params):
        model = nn_model(params)
        occupied = set(dos_brute(system, nn_space(params.min_hairpin), model).counts)
        for dp in (True, False):
            lv = candidate_levels(system, model, dp=dp)
            assert occupied <= set(lv.levels) and lv.delta == params.delta
        assert candidate_levels(system, model, False, False) == levels_nn_grid(system, params)

    @pytest.mark.parametrize("seqs", [("ACGT",), ("GC", "GC"), ("GGCC", "AU", "GGCC"), ("A",)])
    def test_bpm_and_bps_are_the_pair_count_set(self, seqs):
        system = sys_of(*seqs)
        for model in (BPM, BPS):
            assert candidate_levels(system, model) == levels_bpm(system.n)


def test_levelset_json_roundtrip():
    lv = LevelSet(F(1, 2), (-4, 0, 3))
    assert lv.to_json() == '{"delta": "1/2", "levels": ["-4", "0", "3"]}'
