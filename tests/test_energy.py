import random
from fractions import Fraction as F

import pytest

from exfold.strands import (
    EMPTY_STRUCTURE,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
    flattening,
    nn_space,
)
from exfold.energy import (
    BPM,
    BPS,
    EnergyModel,
    NNParams,
    decompose_loops,
    dump_nn_params,
    energy,
    energy_nn_detail,
    finalize_params,
    max_symmetry_order,
    nn_model,
    parse_nn_params,
    rotational_symmetry,
    round_log_multiple,
    toy_params_a,
    toy_params_b,
)
from exfold.oracles import make_oracle


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


def flat(system, pairs):
    identity = flattening(system)
    return SecondaryStructure.from_refs(system, [(identity.ref(i), identity.ref(j))
                                                 for i, j in pairs])


class TestPairCountModels:
    def test_bpm(self):
        s = sys_of("ACGT")
        assert energy(BPM, s, EMPTY_STRUCTURE) == 0
        assert energy(BPM, s, flat(s, [(1, 4), (2, 3)])) == -2

    def test_bpm_matches_size_on_enumeration(self):
        s = sys_of("GCGCAU")
        for st in enumerate_structures(s, StructureSpace(allow_pseudoknots=True)):
            assert energy(BPM, s, st) == -len(st.pairs)

    def test_bps_stacked(self):
        s = sys_of("GGCC")
        assert energy(BPS, s, flat(s, [(1, 4), (2, 3)])) == -1
        reversed_pairs = SecondaryStructure(frozenset(
            (b, a) for a, b in flat(s, [(1, 4), (2, 3)]).pairs))
        assert energy(BPS, s, reversed_pairs) == -1

    def test_bps_crossed_pairs_do_not_stack(self):
        s = sys_of("GGCC")
        assert energy(BPS, s, flat(s, [(1, 3), (2, 4)])) == 0

    def test_bps_empty(self):
        assert energy(BPS, sys_of("GGCC"), EMPTY_STRUCTURE) == 0

    def test_bps_no_stack_across_nick(self):
        s = sys_of("GG", "CC")
        assert energy(BPS, s, flat(s, [(1, 4), (2, 3)])) == -1
        split = sys_of("G", "GCC")
        assert energy(BPS, split, flat(split, [(1, 4), (2, 3)])) == 0


class TestDecomposition:
    def test_hairpin_with_stem(self):
        s = sys_of("GGGAAAACCC")
        loops = decompose_loops(s, s.ids, flat(s, [(1, 10), (2, 9), (3, 8)]))
        kinds = sorted(l.kind for l in loops)
        assert kinds == ["exterior", "hairpin", "stack", "stack"]
        hairpin = next(l for l in loops if l.kind == "hairpin")
        assert hairpin.free_bases == 4

    def test_empty_structure_single_exterior(self):
        s = sys_of("ACGT")
        loops = decompose_loops(s, s.ids, EMPTY_STRUCTURE)
        assert [l.kind for l in loops] == ["exterior"]
        assert loops[0].nick_count == 1  # the wrap-around gap

    def test_duplex(self):
        s = sys_of("GC", "GC")
        loops = decompose_loops(s, (1, 2), flat(s, [(1, 4), (2, 3)]))
        assert sorted(l.kind for l in loops) == ["exterior", "exterior", "stack"]

    def test_bulge_interior_multiloop(self):
        s = sys_of("GAGAGAAACACC")
        # (1,12) over (3,11): l1=1, l2=0 bulge; (3,11) over (5,9): 1x1 interior
        loops = decompose_loops(s, s.ids, flat(s, [(1, 12), (3, 11), (5, 9)]))
        kinds = {l.kind for l in loops}
        assert "bulge" in kinds and "interior" in kinds
        m = sys_of("GGGAAACGAAACACC")
        multi = decompose_loops(
            m, m.ids, flat(m, [(1, 15), (2, 14), (3, 7), (8, 12)]))
        ml = next(l for l in multi if l.kind == "multiloop")
        assert len(ml.children) == 2 and ml.free_bases == 1

    def test_rejects_pseudoknot(self):
        s = sys_of("GGCC")
        with pytest.raises(InvalidInput):
            decompose_loops(s, s.ids, flat(s, [(1, 3), (2, 4)]))

    def test_rejects_disconnected(self):
        s = sys_of("GC", "GC")
        with pytest.raises(InvalidInput):
            decompose_loops(s, (1, 2), flat(s, [(1, 2)]))

    def test_every_base_in_exactly_one_face_when_unpaired(self):
        s = sys_of("GCGCAAAGCGC")
        space = StructureSpace(allow_pseudoknots=False)
        for st in enumerate_structures(s, space):
            loops = decompose_loops(s, s.ids, st)
            assert sum(l.free_bases for l in loops) == s.n - 2 * len(st.pairs)


class TestSymmetry:
    def test_single_strand(self):
        s = sys_of("ACGT")
        assert rotational_symmetry(s, s.ids, EMPTY_STRUCTURE) == 1

    def test_two_identical_strands_symmetric_structure(self):
        s = sys_of("AT", "AT")
        st = SecondaryStructure.from_refs(s, [((1, 1), (2, 2)), ((2, 1), (1, 2))])
        assert max_symmetry_order(s, (1, 2)) == 2
        assert rotational_symmetry(s, (1, 2), st) == 2

    def test_distinct_sequences(self):
        s = sys_of("AT", "GC")
        assert max_symmetry_order(s, (1, 2)) == 1
        assert rotational_symmetry(s, (1, 2), EMPTY_STRUCTURE) == 1

    def test_asymmetric_structure_on_symmetric_strands(self):
        s = sys_of("GC", "GC")
        st = SecondaryStructure.from_refs(s, [((1, 1), (1, 2))])
        # intra-strand pair on one strand only: labels symmetric, pairs not
        assert rotational_symmetry(s, (1, 2), st) == 1

    def test_three_fold(self):
        s = sys_of("GC", "GC", "GC")
        st = SecondaryStructure.from_refs(
            s, [((1, 1), (3, 2)), ((2, 1), (1, 2)), ((3, 1), (2, 2))])
        assert rotational_symmetry(s, (1, 2, 3), st) == 3


class TestRounding:
    def test_integer_multiples_exact(self):
        assert round_log_multiple(F(0), 5, F(1)) == 0
        assert round_log_multiple(F(1), 1, F(1)) == 0

    def test_ln2_rounding(self):
        # 10 * ln 2 = 6.93...; 100 * ln 2 = 69.3...
        assert round_log_multiple(F(10), 2, F(1)) == 7
        assert round_log_multiple(F(100), 2, F(1)) == 69
        assert round_log_multiple(F(3, 2), 2, F(1, 2)) == 2  # 3 ln 2 = 2.08


class TestNNEnergy:
    def test_empty_structure_zero(self):
        s = sys_of("ACGT")
        params = toy_params_a(4)
        assert energy(nn_model(params), s, EMPTY_STRUCTURE, s.ids) == 0

    def test_stem_loop_sum(self):
        s = sys_of("GGGAAAACCC")
        params = toy_params_a(10)
        st = flat(s, [(1, 10), (2, 9), (3, 8)])
        detail = energy_nn_detail(s, s.ids, st, params)
        stack_key = ("G", "G", "C", "C")
        expected = 2 * params.stack[stack_key] + params.hairpin[4]
        assert detail.loops_quanta == expected
        assert detail.symmetry_order == 1 and detail.symmetry_quanta == 0

    def test_stem_loop_unit_tables(self):
        # stack -1, hairpin(4) +1: two stacks plus the loop give -1 total
        s = sys_of("GGGAAAACCC")
        unit = finalize_params(NNParams(
            stack={k: -1 for k in toy_params_a(10).stack},
            hairpin={3: 2, 4: 1}, bulge={1: 0}, interior_size={2: 0},
            interior_asym={0: 0}, mismatch={k: 0 for k in toy_params_a(10).mismatch},
        ), 10, js_coef=F(0))
        st = flat(s, [(1, 10), (2, 9), (3, 8)])
        assert energy(nn_model(unit), s, st, s.ids) == -1

    def test_symmetry_term_rounded(self):
        s = sys_of("AT", "AT")
        st = SecondaryStructure.from_refs(s, [((1, 1), (2, 2)), ((2, 1), (1, 2))])
        params = toy_params_a(4)
        detail = energy_nn_detail(s, (1, 2), st, params)
        assert detail.symmetry_order == 2 and detail.symmetry_rounded
        assert detail.symmetry_quanta == round_log_multiple(params.kbt, 2, params.delta)
        assert detail.assoc_quanta == params.assoc
        assert detail.total == detail.loops_quanta + params.assoc + detail.symmetry_quanta

    def test_all_zero_tables_give_zero(self):
        s = sys_of("GCGCAAAGC")
        zero = finalize_params(NNParams(
            stack={k: 0 for k in toy_params_a(9).stack},
            hairpin={3: 0}, bulge={1: 0}, interior_size={2: 0},
            interior_asym={0: 0}, mismatch={k: 0 for k in toy_params_a(9).mismatch},
        ), 9, js_coef=F(0))
        space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                               min_hairpin=3)
        for st in enumerate_structures(s, space):
            assert energy(nn_model(zero), s, st, s.ids) == 0


class TestModelWrapper:
    """Magnification lives in the oracle: the j-magnified model scales each
    level of the density of states by j."""

    def test_magnified_bpm(self):
        s = sys_of("ACGT")
        st = flat(s, [(1, 4), (2, 3)])
        assert energy(BPM, s, st) == -2
        oracle = make_oracle(s, StructureSpace(allow_pseudoknots=True), BPM, F(2))
        assert oracle.mfe(3) == -6
        assert oracle.ssel(-6, 3) == 1

    def test_bps_passthrough(self):
        s = sys_of("GGCC")
        assert energy(BPS, s, flat(s, [(1, 4), (2, 3)])) == -1

    def test_magnified_nn(self):
        s = sys_of("GGGAAAACCC")
        model = nn_model(toy_params_a(10))
        base = energy(model, s, flat(s, [(1, 10), (2, 9), (3, 8)]))
        oracle = make_oracle(s, nn_space(), model, F(2))
        assert oracle.ssel(2 * base, 2) == oracle.ssel(base) >= 1

    def test_fractional_magnification_integrality(self):
        oracle = make_oracle(sys_of("ACGT"), StructureSpace(allow_pseudoknots=True),
                             BPM, F(2))
        for j in (F(1, 2), 0.5, -1):
            with pytest.raises(InvalidInput):
                oracle.mfe(j)
            with pytest.raises(InvalidInput):
                oracle.pf(j)

    def test_magnification_preserves_argmin_and_counts(self):
        rng = random.Random(3)
        for _ in range(10):
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(3, 7)))
            oracle = make_oracle(sys_of(seq), StructureSpace(allow_pseudoknots=True),
                                 BPM, F(2))
            dos = oracle.dos
            assert all(oracle.ssel(3 * g, 3) == c for g, c in dos.counts.items())
            assert sum(oracle.ssel(g, 3) for g in range(3 * dos.mfe(), 1)) == dos.total()
            assert oracle.mfe(3) == 3 * dos.mfe()


class TestParamsIO:
    def test_roundtrip(self):
        for params in (toy_params_a(12), toy_params_b(12)):
            assert parse_nn_params(dump_nn_params(params)) == params

    def test_missing_entry_reported(self):
        s = sys_of("GGGAAAACCC")
        sparse = NNParams(hairpin={3: 1}, bulge={1: 0}, interior_size={2: 0},
                          interior_asym={0: 0})
        with pytest.raises(InvalidInput):
            energy(nn_model(sparse), s, flat(s, [(1, 10), (2, 9), (3, 8)]), s.ids)

    def test_bad_section_line(self):
        with pytest.raises(InvalidInput):
            parse_nn_params("delta = 1\n")

    def test_finalize_extends_tables(self):
        params = toy_params_b(20)
        assert max(params.hairpin) >= 20
        assert max(params.bulge) >= 20
