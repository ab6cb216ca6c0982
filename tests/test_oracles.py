import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exfold.levels import levels_bpm, nn_level_counts
from exfold.reductions import dos_via_pf, pf_via_ssel
from exfold.strands import (
    InvalidInput,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
    nn_space,
)
from exfold.energy import BPM, BPS, energy, nn_model, toy_params_a
from exfold.oracles import (
    DensityOfStates,
    check_base,
    dos_brute,
    make_oracle,
    pf_decimal,
)

PK = StructureSpace(allow_pseudoknots=True)


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


class TestDos:
    def test_acgt_bpm(self):
        dos = dos_brute(sys_of("ACGT"), PK, BPM)
        assert dos.counts == {0: 1, -1: 2, -2: 1}

    def test_ggcc_bps(self):
        dos = dos_brute(sys_of("GGCC"), PK, BPS)
        assert dos.counts == {0: 6, -1: 1}

    def test_inert(self):
        assert dos_brute(sys_of("AAAA"), PK, BPM).counts == {0: 1}

    def test_total_mass_below_factorial(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(3, 8)
            s = sys_of("".join(rng.choice("ACGT") for _ in range(n)))
            assert dos_brute(s, PK, BPM).total() < math.factorial(n)

    def test_nn_space_must_match_the_parameters(self):
        # min_hairpin 1: nn_space()'s floor of 3 would drop the size-1 and
        # size-2 hairpins the model defines, and with them level -1
        p = toy_params_a()
        model = nn_model(replace(p, min_hairpin=1, hairpin={**p.hairpin, 1: 5, 2: 5}))
        s = sys_of("GGGACCC")
        for space in (nn_space(), PK, StructureSpace(allow_pseudoknots=False, min_hairpin=1)):
            with pytest.raises(InvalidInput, match="nn model's space"):
                dos_brute(s, space, model)
            with pytest.raises(InvalidInput, match="nn model's space"):
                make_oracle(s, space, model, F(2))
        dos = dos_brute(s, StructureSpace(False, True, 1), model)
        assert dos.total() == 20 and dos.mfe() == -1
        assert dos.counts == nn_level_counts(s, s.ids, model.params)


    def test_empty_ensemble_has_no_mfe_and_no_oracle(self):
        s = sys_of("AAAA", "AAAA")
        space = StructureSpace(require_connected=True)
        dos = dos_brute(s, space, BPM)
        assert dos.counts == {} and dos.total() == 0 and dos.pf(F(2)) == 0
        with pytest.raises(InvalidInput, match="ensemble is empty"):
            dos.mfe()
        with pytest.raises(InvalidInput, match="ensemble is empty"):
            make_oracle(s, space, BPM, F(2))


class TestScalars:
    def test_mfe(self):
        assert dos_brute(sys_of("ACGT"), PK, BPM).mfe() == -2
        assert dos_brute(sys_of("AAAA"), PK, BPM).mfe() == 0
        assert dos_brute(sys_of("GGCC"), PK, BPS).mfe() == -1

    def test_pf_values(self):
        dos = dos_brute(sys_of("ACGT"), PK, BPM)
        assert dos.pf(F(2)) == 9
        assert dos.pf(F(24)) == 625
        assert DensityOfStates({0: 1}, F(1)).pf(F(7, 3)) == 1

    def test_pf_two_routes_agree(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(3, 8)
            s = sys_of("".join(rng.choice("ACGU") for _ in range(n)))
            model = rng.choice((BPM, BPS))
            base = rng.choice((F(1, 2), F(2), F(3)))
            dos = dos_brute(s, PK, model)
            direct = sum(
                (base ** -energy(model, s, st) for st in enumerate_structures(s, PK)),
                F(0))
            assert dos.pf(base) == direct

    def test_ssel(self):
        dos = dos_brute(sys_of("ACGT"), PK, BPM)
        assert dos.ssel(-1) == 2
        assert dos.ssel(-3) == 0
        assert dos_brute(sys_of("GGCC"), PK, BPS).ssel(0) == 6

    def test_dmfe(self):
        oracle = make_oracle(sys_of("ACGT"), PK, BPM, F(2))
        assert oracle.dmfe(-1) is True
        assert oracle.dmfe(-3) is False
        assert make_oracle(sys_of("AAAA"), PK, BPM, F(2)).dmfe(0) is True

    def test_dpf(self):
        oracle = make_oracle(sys_of("ACGT"), PK, BPM, F(24))
        assert oracle.dpf(F(24)) is True  # PF = 625
        assert oracle.dpf(F(626)) is False
        assert make_oracle(sys_of("AAAA"), PK, BPM, F(2)).dpf(F(0)) is True

    def test_pf_at_least_one(self):
        # the empty structure always contributes weight 1
        rng = random.Random(2)
        for _ in range(10):
            s = sys_of("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 6))))
            assert dos_brute(s, PK, BPM).pf(F(3)) >= 1


class TestOracleHandle:
    def test_magnified_pf_sequence(self):
        oracle = make_oracle(sys_of("ACGT"), PK, BPM, F(2))
        assert [oracle.pf(j) for j in (1, 2, 3)] == [9, 25, 81]

    def test_pf_zero_magnification_counts(self):
        oracle = make_oracle(sys_of("GGCC"), PK, BPS, F(3))
        assert oracle.pf(0) == oracle.dos.total() == 7

    def test_magnification_coherence(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(3, 7)
            s = sys_of("".join(rng.choice("ACGT") for _ in range(n)))
            base = rng.choice((F(1, 2), F(2), F(3)))
            oracle = make_oracle(s, PK, BPM, base)
            structures = list(enumerate_structures(s, PK))
            for j in (1, 2, 3):
                direct = sum((base ** (-j * energy(BPM, s, st)) for st in structures), F(0))
                assert oracle.pf(j) == direct

    def test_dmfe_scaling(self):
        oracle = make_oracle(sys_of("ACGT"), PK, BPM, F(2))
        for j in (1, 2, 5):
            for k in (-3, -2, -1, 0):
                assert oracle.dmfe(j * k, j) == oracle.dmfe(k, 1)

    def test_ssel_magnified_levels(self):
        oracle = make_oracle(sys_of("ACGT"), PK, BPM, F(2))
        assert oracle.ssel(-2, 2) == 2  # level -1 doubled
        assert oracle.ssel(-1, 2) == 0  # odd level unoccupied after doubling
        assert oracle.ssel(0, 0) == 4

    def test_mfe_is_min_occupied_level(self):
        oracle = make_oracle(sys_of("GCAU"), PK, BPM, F(2))
        occupied = [g for g in range(-3, 1) if oracle.ssel(g) > 0]
        assert oracle.mfe() == min(occupied)

    def test_base_validation(self):
        with pytest.raises(InvalidInput):
            check_base(F(1))
        with pytest.raises(InvalidInput):
            check_base(F(-2))
        with pytest.raises(InvalidInput):
            make_oracle(sys_of("ACGT"), PK, BPM, F(0))


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
ORACLES = st.builds(
    lambda seq, model, base: make_oracle(sys_of(seq), PK, model, base),
    st.text("ACGU", min_size=1, max_size=7),
    st.sampled_from((BPM, BPS)),
    st.sampled_from((F(1, 2), F(2), F(3), F(5, 2))),
)


class TestMagnificationProperties:
    """The oracle's j is the only magnification: level g of the j-magnified
    model is j*g, so its per-quantum weight is base**j."""

    @PROPERTY_SETTINGS
    @given(ORACLES)
    def test_magnified_queries_rescale_the_dos(self, oracle):
        dos = oracle.dos
        assert oracle.pf(0) == dos.total()
        assert oracle.ssel(0, 0) == dos.total()
        for j in range(0, 5):
            assert oracle.mfe(j) == j * dos.mfe()
        for j in range(1, 5):
            assert oracle.pf(j) == dos.pf(oracle.base ** j)
            for g in range(dos.mfe() - 1, 2):
                assert oracle.ssel(j * g, j) == dos.ssel(g)

    @PROPERTY_SETTINGS
    @given(ORACLES)
    def test_reductions_recover_the_dos(self, oracle):
        dos, lv = oracle.dos, levels_bpm(oracle.n)
        assert pf_via_ssel(oracle, lv, oracle.base)[0] == dos.pf(oracle.base)
        counts = dos_via_pf(oracle, lv, oracle.base)[0]
        assert {g: c for g, c in counts.items() if c} == dos.counts


def test_pf_decimal_display():
    assert pf_decimal(F(1, 3), 6) == "0.333333"
    assert pf_decimal(F(625), 2) == "625.00"
    assert pf_decimal(F(-9, 2), 3) == "-4.500"
    # truncated toward zero for both signs, with no negative zero
    assert pf_decimal(F(-1, 3), 3) == "-0.333"
    assert pf_decimal(F(-1, 10000), 3) == "0.000"
