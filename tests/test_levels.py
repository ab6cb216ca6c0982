import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exfold.strands import (
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
    energy_nn_detail,
    interior_like_energy,
    load_nn_params,
    nn_model,
    toy_params_a,
    toy_params_b,
    toy_params_file,
)
from exfold.levels import (
    LevelSet,
    augment_symmetry,
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
    from exfold.energy import NNParams, finalize_params, _full_base_table
    return finalize_params(NNParams(
        delta=F(1), kbt=F(1), assoc=1, multi_init=4, multi_bp=-2, multi_nt=1,
        stack=_full_base_table(lambda a, b, c, d: -2),
        hairpin={1: 2, 2: 2, 3: 1}, bulge={1: 2, 2: 3},
        interior_size={2: 1, 3: 2}, interior_asym={0: 0, 1: 1},
        mismatch=_full_base_table(lambda a, b, c, d: 1 if a == "C" else 0),
        min_hairpin=1), 16)


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
    """``nn_level_counts`` against brute-force counts and ``levels_nn_dp``
    against the set recursion, beyond the acceptance range (n <= 10,
    c <= 3)."""

    def test_counts_match_brute_force_sweep(self):
        rng = random.Random(8)
        params = PARAMS + (tiny_params(),)
        for case in range(150):
            c = rng.randint(1, 4)
            system = random_system(rng, rng.randint(max(c, 4), 16), c,
                                   rng.choice(("GCAU", "GCAU", "GCGA", "GGCCA")))
            ordering = rng.choice(list(system.circular_orderings()))
            p = params[case % 3]
            assert nn_level_counts(system, ordering, p) \
                == brute_counts(system, ordering, p), (system, ordering, case % 3)

    @pytest.mark.parametrize("n", [24, 32, 40, 48])
    def test_long_single_strands_match_the_reference(self, n):
        rng = random.Random(n)
        system = sys_of("".join(rng.choice("GCAU") for _ in range(n)))
        params = (toy_params_a if n % 16 else toy_params_b)(n)
        assert levels_nn_dp(system, system.ids, params).levels \
            == reference_levels(system, system.ids, params)

    @pytest.mark.parametrize("n,c", [(16, 2), (32, 2), (24, 3), (32, 3), (24, 4), (32, 4)])
    def test_multistrand_systems_match_the_reference(self, n, c):
        rng = random.Random(100 * n + c)
        for params in (toy_params_a(n), toy_params_b(n)):
            system = random_system(rng, n, c)
            ordering = rng.choice(list(system.circular_orderings()))
            assert levels_nn_dp(system, ordering, params).levels \
                == reference_levels(system, ordering, params), (system, ordering)


class TestMissingTableEntries:
    """The shipped tables stop at loop size 16.  Unextended, the DP raises
    on exactly the inputs where the set recursion raises, with its message."""

    SHIPPED = load_nn_params(toy_params_file("toy_nn_a"))

    def outcome(self, dp, system):
        try:
            return tuple(dp(system, system.ids, self.SHIPPED))
        except InvalidInput as exc:
            return str(exc)

    def check(self, system):
        got = self.outcome(lambda *a: levels_nn_dp(*a).levels, system)
        assert got == self.outcome(reference_levels, system), system
        return got

    def test_long_hairpin(self):
        assert self.check(sys_of("GGG" + "A" * 18 + "CCC")) \
            == "missing hairpin parameter entry for 18"

    @pytest.mark.parametrize("seqs,error", [
        (("GGG" + "A" * 12 + "CCC",), None),       # hairpins of 12 to 16
        (("GGG" + "A" * 18, "CCC" + "A" * 3), None),  # long loops only across a nick
        (("G" + "A" * 17 + "G", "CC"), "missing bulge parameter entry for 17"),
        (("G" + "A" * 9 + "G", "C" + "A" * 9 + "C"),
         "missing interior size parameter entry for 18"),
    ])
    def test_constructed_systems(self, seqs, error):
        got = self.check(sys_of(*seqs))
        assert got == error if error else got

    def test_long_loop_sweep(self):
        rng = random.Random(16)
        raised = 0
        for _ in range(40):
            c = rng.choice((1, 1, 2))
            system = random_system(rng, rng.randint(20, 28), c, "GCAAAAAU")
            raised += isinstance(self.check(system), str)
        assert 0 < raised < 40


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


def test_levelset_json_roundtrip():
    lv = LevelSet(F(1, 2), (-4, 0, 3))
    assert LevelSet.from_json(lv.to_json()) == lv
    assert lv.to_json() == '{"delta": "1/2", "levels": ["-4", "0", "3"]}'
