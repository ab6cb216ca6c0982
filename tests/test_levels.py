import random
from fractions import Fraction as F

import pytest

from exfold.strands import (
    StrandSystem,
    StructureSpace,
    enumerate_structures,
)
from exfold.energy import energy_nn_detail, toy_params_a, toy_params_b
from exfold.levels import (
    LevelSet,
    _shift,
    _sum,
    augment_symmetry,
    grid_slope,
    levels_bpm,
    levels_bps,
    levels_nn_dp,
    levels_nn_grid,
    min_gap,
)

PARAMS = (toy_params_a(16), toy_params_b(16))


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


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


class TestMinGap:
    def test_consecutive(self):
        assert min_gap(levels_bpm(7)) == 1

    def test_spread(self):
        assert min_gap(LevelSet(F(1, 3), (0, -2, -5))) == F(2, 3)

    def test_singleton_convention(self):
        assert min_gap(LevelSet(F(1, 4), (0,))) == F(1, 4)


class TestSumset:
    """The DP cell algebra; the empty set plays Phi, "no structure of this
    shape"."""

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
        from exfold.energy import NNParams, finalize_params
        zero = finalize_params(NNParams(
            stack={k: 0 for k in PARAMS[0].stack},
            hairpin={3: 0}, bulge={1: 0}, interior_size={2: 0},
            interior_asym={0: 0}, mismatch={k: 0 for k in PARAMS[0].mismatch},
        ), 8, js_coef=F(0))
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

    def tiny_params(self):
        from exfold.energy import NNParams, finalize_params, _full_base_table
        return finalize_params(NNParams(
            delta=F(1), kbt=F(1), assoc=1, multi_init=4, multi_bp=-2, multi_nt=1,
            stack=_full_base_table(lambda a, b, c, d: -2),
            hairpin={1: 2, 2: 2, 3: 1}, bulge={1: 2, 2: 3},
            interior_size={2: 1, 3: 2}, interior_asym={0: 0, 1: 1},
            mismatch=_full_base_table(lambda a, b, c, d: 1 if a == "C" else 0),
            min_hairpin=1), 14)

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
        params = self.tiny_params()
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

    def test_small_floor_random_sweep(self):
        rng = random.Random(99)
        params = self.tiny_params()
        for _ in range(30):
            c = rng.choice((1, 1, 1, 2))
            lens = [rng.randint(2, 6) for _ in range(c)]
            while sum(lens) > 11:
                lens[lens.index(max(lens))] -= 1
            seqs = ["".join(rng.choice("GCGA") for _ in range(L)) for L in lens]
            system = sys_of(*seqs)
            assert levels_nn_dp(system, system.ids, params).levels \
                == occupied_symfree(system, system.ids, params), seqs


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

    def test_superset_of_full_occupied(self):
        for seqs in (("AT", "AT"), ("GC", "GC"), ("ACG", "ACG"), ("GC", "GC", "GC")):
            system = sys_of(*seqs)
            ordering = system.ids
            for params in PARAMS:
                dp = levels_nn_dp(system, ordering, params)
                aug = augment_symmetry(dp, system, ordering, params)
                assert occupied_full(system, ordering, params) <= set(aug.levels)


def test_levelset_json_roundtrip():
    lv = LevelSet(F(1, 2), (-4, 0, 3))
    assert LevelSet.from_json(lv.to_json()) == lv
    assert lv.to_json() == '{"delta": "1/2", "levels": ["-4", "0", "3"]}'
