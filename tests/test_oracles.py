import math
import random
from fractions import Fraction as F

import pytest

from exfold.strands import (
    InvalidInput,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
)
from exfold.energy import BPM, BPS, energy
from exfold.oracles import (
    DensityOfStates,
    check_base,
    dmfe_brute,
    dos_brute,
    dpf_brute,
    make_oracle,
    mfe_brute,
    pf_decimal,
    pf_exact,
    ssel_brute,
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

    def test_json_roundtrip(self):
        dos = dos_brute(sys_of("GGCC"), PK, BPS)
        back = DensityOfStates.from_json(dos.to_json())
        assert back.counts == dos.counts and back.delta == dos.delta


class TestScalars:
    def test_mfe(self):
        assert mfe_brute(sys_of("ACGT"), PK, BPM) == -2
        assert mfe_brute(sys_of("AAAA"), PK, BPM) == 0
        assert mfe_brute(sys_of("GGCC"), PK, BPS) == -1

    def test_pf_values(self):
        dos = dos_brute(sys_of("ACGT"), PK, BPM)
        assert pf_exact(dos, F(2)) == 9
        assert pf_exact(dos, F(24)) == 625
        assert pf_exact(DensityOfStates({0: 1}, F(1)), F(7, 3)) == 1

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
            assert pf_exact(dos, base) == direct

    def test_ssel(self):
        s = sys_of("ACGT")
        assert ssel_brute(s, PK, BPM, -1) == 2
        assert ssel_brute(s, PK, BPM, -3) == 0
        assert ssel_brute(sys_of("GGCC"), PK, BPS, 0) == 6

    def test_dmfe(self):
        s = sys_of("ACGT")
        assert dmfe_brute(s, PK, BPM, -1) is True
        assert dmfe_brute(s, PK, BPM, -3) is False
        assert dmfe_brute(sys_of("AAAA"), PK, BPM, 0) is True

    def test_dpf(self):
        s = sys_of("ACGT")
        assert dpf_brute(s, PK, BPM, F(24), F(24)) is True  # PF = 625
        assert dpf_brute(s, PK, BPM, F(24), F(626)) is False
        assert dpf_brute(sys_of("AAAA"), PK, BPM, F(2), F(0)) is True

    def test_pf_at_least_one(self):
        # the empty structure always contributes weight 1
        rng = random.Random(2)
        for _ in range(10):
            s = sys_of("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 6))))
            assert pf_exact(dos_brute(s, PK, BPM), F(3)) >= 1


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
            for j in (1, 2, 3):
                magnified = dos_brute(s, PK, BPM.magnified(j))
                assert oracle.pf(j) == magnified.pf(base)

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


def test_pf_decimal_display():
    assert pf_decimal(F(1, 3), 6) == "0.333333"
    assert pf_decimal(F(625), 2) == "625.00"
    assert pf_decimal(F(-9, 2), 3) == "-4.500"
    # truncated toward zero for both signs, with no negative zero
    assert pf_decimal(F(-1, 3), 3) == "-0.333"
    assert pf_decimal(F(-1, 10000), 3) == "0.000"
