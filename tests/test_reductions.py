import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exfold.strands import InvalidInput, StrandSystem, StructureSpace
from exfold.energy import BPM, BPS
from exfold.levels import LevelSet, levels_bpm, levels_bps
from exfold.oracles import DensityOfStates, OracleHandle, make_oracle, pf_decimal
from exfold.reductions import (
    OracleInconsistency,
    dmfe_via_dpf,
    dmfe_via_mfe,
    dos_via_pf,
    dpf_via_pf,
    magnified_separation_holds,
    mfe_via_dmfe,
    mfe_via_ssel,
    pf_via_dpf,
    pf_via_ssel,
    ssel_via_pf,
)

PK = StructureSpace(allow_pseudoknots=True)


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


def acgt_oracle(base=F(2)):
    return make_oracle(sys_of("ACGT"), PK, BPM, base)


@pytest.mark.parametrize("build, message", [
    (lambda: mfe_via_dmfe(acgt_oracle(), []), "empty candidate level set"),
    (lambda: mfe_via_ssel(acgt_oracle(), LevelSet(F(1), ())), "empty candidate level set"),
    (lambda: LevelSet(F(0), (0,)), "delta must be positive"),
    (lambda: LevelSet(F(-1, 2), (0,)), "delta must be positive"),
    (lambda: levels_bpm(0), "need at least one base"),
    (lambda: pf_decimal(F(1, 3), 0), "need at least one digit"),
], ids=["mfe-via-dmfe", "mfe-via-ssel", "delta-0", "delta-negative", "levels-bpm-0",
        "pf-decimal-0"])
def test_refused_input(build, message):
    with pytest.raises(InvalidInput) as raised:
        build()
    assert str(raised.value) == message


class TestStraightforward:
    def test_dmfe_via_mfe(self):
        oracle = acgt_oracle()
        assert dmfe_via_mfe(oracle, -2)[0] is True
        assert dmfe_via_mfe(oracle, 1)[0] is True  # MFE <= 0 always
        assert dmfe_via_mfe(oracle, -(4 // 2 + 1))[0] is False
        _, t = dmfe_via_mfe(oracle, 0)
        assert t.call_count == 1

    def test_dpf_via_pf(self):
        oracle = acgt_oracle()
        assert dpf_via_pf(oracle, F(9))[0] is True
        assert dpf_via_pf(oracle, F(10))[0] is False
        assert dpf_via_pf(oracle, F(1))[0] is True

    def test_mfe_via_dmfe(self):
        answer, t = mfe_via_dmfe(acgt_oracle(), levels_bpm(4))
        assert answer == -2
        assert t.call_count <= math.ceil(math.log2(3)) + 1

    def test_mfe_via_dmfe_inert(self):
        oracle = make_oracle(sys_of("AAAA"), PK, BPM, F(2))
        assert mfe_via_dmfe(oracle, [0])[0] == 0

    def test_mfe_via_dmfe_bps(self):
        oracle = make_oracle(sys_of("GGCC"), PK, BPS, F(2))
        assert mfe_via_dmfe(oracle, levels_bps(4))[0] == -1

    def test_mfe_via_ssel(self):
        assert mfe_via_ssel(acgt_oracle(), levels_bpm(4))[0] == -2
        oracle = make_oracle(sys_of("GGCC"), PK, BPS, F(2))
        answer, t = mfe_via_ssel(oracle, levels_bps(4))
        assert answer == -1 and t.call_count <= len(levels_bps(4))

    def test_pf_via_ssel(self):
        assert pf_via_ssel(acgt_oracle(), levels_bpm(4), F(2))[0] == 9
        oracle = make_oracle(sys_of("AAAA"), PK, BPM, F(2))
        assert pf_via_ssel(oracle, levels_bpm(4), F(2))[0] == 1
        bps = make_oracle(sys_of("GGCC"), PK, BPS, F(3))
        assert pf_via_ssel(bps, levels_bps(4), F(3))[0] == 9  # 6 + 1*3


class TestCountReconstruction:
    def test_full_histogram(self):
        counts, t = dos_via_pf(acgt_oracle(), levels_bpm(4), F(2))
        assert counts == {0: 1, -1: 2, -2: 1}
        assert t.call_count == len(levels_bpm(4))

    def test_single_level(self):
        assert ssel_via_pf(acgt_oracle(), levels_bpm(4), F(2), -1)[0] == 2

    def test_level_below_mfe_zero(self):
        # GGCA can form at most one pair, so the candidate level -2 sits
        # below the MFE and must reconstruct to a zero count
        oracle = make_oracle(sys_of("GGCA"), PK, BPM, F(2))
        counts, _ = dos_via_pf(oracle, levels_bpm(4), F(2))
        assert oracle.dos.mfe() == -1 and counts[-2] == 0
        assert ssel_via_pf(oracle, levels_bpm(4), F(2), -2)[0] == 0

    def test_ggcc_bps(self):
        oracle = make_oracle(sys_of("GGCC"), PK, BPS, F(2))
        assert ssel_via_pf(oracle, levels_bps(4), F(2), 0)[0] == 6

    def test_fractional_base(self):
        oracle = acgt_oracle(F(1, 2))
        counts, _ = dos_via_pf(oracle, levels_bpm(4), F(1, 2))
        assert counts == {0: 1, -1: 2, -2: 1}

    def test_eighty_levels(self):
        # 79 C + 79 G under PK BPM: p pairs are a partial matching, so the
        # closed-form DoS stands in for an enumeration of 158 bases
        dos = DensityOfStates(
            {-p: math.comb(79, p) ** 2 * math.factorial(p) for p in range(80)}, F(1))
        oracle = OracleHandle(sys_of("C" * 79 + "G" * 79), dos, F(2))
        counts, t = dos_via_pf(oracle, levels_bpm(158), F(2))
        assert counts == dos.counts
        assert t.call_count == 80

    def test_base_must_match_oracle(self, monkeypatch):
        oracle = make_oracle(sys_of("GGCC"), PK, BPM, F(2))
        # the base is refused before any query reaches the oracle
        for op in ("pf", "dpf", "mfe", "dmfe", "ssel"):
            monkeypatch.setattr(oracle, op, lambda *a, **k: pytest.fail("oracle queried"))
        for run in (lambda: dos_via_pf(oracle, levels_bpm(4), F(3, 2)),
                    lambda: ssel_via_pf(oracle, levels_bpm(4), F(3, 2), -2)):
            with pytest.raises(InvalidInput, match="3/2.*2"):
                run()

    @pytest.mark.parametrize("base", [0, -2, 1])
    def test_output_base_is_checked(self, monkeypatch, base):
        # pf_via_ssel and pf_via_dpf read no base from the oracle: theirs is
        # refused before any query reaches it
        oracle = make_oracle(sys_of("ACGU"), PK, BPM, F(2))
        for op in ("pf", "dpf", "mfe", "dmfe", "ssel"):
            monkeypatch.setattr(oracle, op, lambda *a, **k: pytest.fail("oracle queried"))
        for reduction in (pf_via_ssel, pf_via_dpf):
            with pytest.raises(InvalidInput, match="Boltzmann base"):
                reduction(oracle, levels_bpm(4), base)


class TestHugeMagnification:
    def test_dmfe_via_dpf_examples(self):
        oracle = acgt_oracle()
        lv = levels_bpm(4)
        answer, t = dmfe_via_dpf(oracle, lv, -1)
        assert answer is True and t.details["threshold"] == "24/1"
        assert dmfe_via_dpf(oracle, lv, -2)[0] is True
        answer, t = dmfe_via_dpf(oracle, lv, F(-5, 2))
        assert answer is False and t.call_count == 0

    def test_dmfe_via_dpf_agrees_everywhere(self):
        rng = random.Random(4)
        for _ in range(12):
            n = rng.randint(3, 8)
            s = sys_of("".join(rng.choice("ACGT") for _ in range(n)))
            model = rng.choice((BPM, BPS))
            oracle = make_oracle(s, PK, model, F(2))
            lv = levels_bpm(n)
            mfe = oracle.dos.mfe()
            for k in list(lv.levels) + [F(1, 2), F(-7, 3), -n]:
                got, _ = dmfe_via_dpf(oracle, lv, k)
                assert got == (mfe <= k)

    def test_pf_via_dpf(self):
        answer, t = pf_via_dpf(acgt_oracle(), levels_bpm(4), F(2))
        assert answer == 9
        assert t.call_count <= len(levels_bpm(4)) * math.ceil(math.log2(24 + 1))
        oracle = make_oracle(sys_of("AAAA"), PK, BPM, F(2))
        assert pf_via_dpf(oracle, levels_bpm(4), F(2))[0] == 1
        bps = make_oracle(sys_of("GGCC"), PK, BPS, F(3))
        assert pf_via_dpf(bps, levels_bps(4), F(3))[0] == 9

    def test_small_systems_rejected(self):
        oracle = make_oracle(sys_of("AT"), PK, BPM, F(2))
        with pytest.raises(InvalidInput):
            dmfe_via_dpf(oracle, levels_bpm(2), 0)
        with pytest.raises(InvalidInput):
            pf_via_dpf(oracle, levels_bpm(2), F(2))

    def test_separation_inequality(self):
        for n in range(2, 31):
            for x in (-5, -1, 0, 3):
                assert magnified_separation_holds(n, x)


class TestComposition:
    class SselBackedPF:
        """pf oracle synthesized from a brute ssel oracle (the level-count
        expansion), used to close the reduction cycle."""

        def __init__(self, inner, levels, base):
            self.inner = inner
            self.levels = levels
            self.base = base
            self.n = inner.n

        def pf(self, j=1):
            return sum((self.inner.ssel(g) * F(self.base) ** (-j * g) for g in self.levels),
                       F(0))

    def test_cycle_is_identity_on_counts(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(3, 8)
            s = sys_of("".join(rng.choice("ACGU") for _ in range(n)))
            oracle = make_oracle(s, PK, BPM, F(2))
            lv = levels_bpm(n)
            synthetic = self.SselBackedPF(oracle, lv.levels, F(2))
            counts, _ = dos_via_pf(synthetic, lv, F(2))
            assert counts == {g: oracle.dos.ssel(g) for g in lv.levels}


class TestNNIntegration:
    """The reduction map is model-agnostic: drive it with a nearest-neighbour
    oracle and the sumset-DP candidate levels (single strand, so the
    symmetry term vanishes and the DP set is the full occupied set)."""

    def test_reductions_over_nn_oracle(self):
        from exfold.energy import nn_model, toy_params_a
        from exfold.levels import levels_nn_dp
        from exfold.strands import nn_space

        params = toy_params_a(16)
        for seq in ("GGGAAAACCC", "GCGCAAAGCGC"):
            system = sys_of(seq)
            oracle = make_oracle(system, nn_space(), nn_model(params), F(2))
            levels = levels_nn_dp(system, system.ids, params)
            assert set(oracle.dos.counts) <= set(levels.levels)

            assert mfe_via_dmfe(oracle, levels)[0] == oracle.dos.mfe()
            assert mfe_via_ssel(oracle, levels)[0] == oracle.dos.mfe()
            assert pf_via_ssel(oracle, levels, F(2))[0] == oracle.dos.pf(F(2))
            counts, _ = dos_via_pf(oracle, levels, F(2))
            assert counts == {g: oracle.dos.counts.get(g, 0) for g in levels.levels}
            for k in levels.levels:
                assert dmfe_via_dpf(oracle, levels, k)[0] == (oracle.dos.mfe() <= k)
            assert pf_via_dpf(oracle, levels, F(2))[0] == oracle.dos.pf(F(2))


class TestTranscripts:
    def test_json_shape(self):
        oracle = acgt_oracle()
        _, t = ssel_via_pf(oracle, levels_bpm(4), F(2), -1)
        payload = json.loads(t.to_json())
        assert payload["reduction"] == "ssel-via-pf"
        assert payload["call_count"] == 3 and len(payload["calls"]) == 3
        assert payload["calls"][0]["op"] == "pf"
        assert payload["calls"][0]["magnification"] == 1
        assert payload["details"]["counts"] == {"-2": "1", "-1": "2", "0": "1"}

    def test_each_transcript_names_its_own_reduction(self):
        # ssel_via_pf reuses dos_via_pf's transcript and renames it with its answer
        oracle = acgt_oracle()
        _, t = dos_via_pf(oracle, levels_bpm(4), F(2))
        assert t.reduction == json.loads(t.to_json())["reduction"] == "dos-via-pf"
        _, t = ssel_via_pf(oracle, levels_bpm(4), F(2), -1)
        assert (t.reduction, t.answer) == ("ssel-via-pf", "2")

    def test_inconsistent_oracle_detected(self):
        class Liar:
            n = 4

            def dmfe(self, k):
                return False

            def ssel(self, g):
                return 0

        with pytest.raises(OracleInconsistency):
            mfe_via_dmfe(Liar(), levels_bpm(4))
        with pytest.raises(OracleInconsistency):
            mfe_via_ssel(Liar(), levels_bpm(4))

    @pytest.mark.parametrize("counts,message", [
        ({0: F(1, 2), -1: 1}, "level 0 is 1/2"),
        ({0: -1, -1: 3}, "level 0 is -1"),
    ])
    def test_reconstruction_must_give_natural_counts(self, counts, message):
        # positive PF values that no density of states produces
        class Liar:
            base = F(2)

            def pf(self, j=1):
                return sum(c * self.base ** (-g * j) for g, c in counts.items())

        with pytest.raises(OracleInconsistency, match=message):
            dos_via_pf(Liar(), levels_bpm(2), F(2))


def all_reductions(oracle, levels, base):
    """Every reduction of the map on one oracle, as (name, answer,
    transcript) triples."""
    runs = [
        ("dmfe-via-mfe", dmfe_via_mfe(oracle, -1)),
        ("dmfe-via-mfe", dmfe_via_mfe(oracle, F(-3, 2))),
        ("dpf-via-pf", dpf_via_pf(oracle, F(9))),
        ("dpf-via-pf", dpf_via_pf(oracle, F(5, 2))),
        ("mfe-via-dmfe", mfe_via_dmfe(oracle, levels)),
        ("mfe-via-ssel", mfe_via_ssel(oracle, levels)),
        ("pf-via-ssel", pf_via_ssel(oracle, levels, base)),
        ("ssel-via-pf", ssel_via_pf(oracle, levels, base, -1)),
        ("dmfe-via-dpf", dmfe_via_dpf(oracle, levels, -1)),
        ("dmfe-via-dpf", dmfe_via_dpf(oracle, levels, F(-1, 2))),
        ("pf-via-dpf", pf_via_dpf(oracle, levels, base)),
    ]
    return [(name, answer, t) for name, (answer, t) in runs]


# sha256 prefixes of the transcript JSON of each reduction, over BPM GCAU,
# BPM ACGT and BPS GGCC at bases 2 and 1/2, plus one dMFE and one SSEL scan
# on integral Fraction levels (arguments written "-1", not "-1/1")
TRANSCRIPT_SHA256 = {
    "dmfe-via-dpf": "b6f443878ab57088",
    "dmfe-via-mfe": "4826a1817e2ac1d7",
    "dpf-via-pf": "c62b5ace640b1345",
    "mfe-via-dmfe": "3cf891e479e05d9d",
    "mfe-via-ssel": "a5c3da041691d293",
    "pf-via-dpf": "216d370e4b97c0b7",
    "pf-via-ssel": "d9c64c0b24a64f68",
    "ssel-via-pf": "2b9c16127c4815db",
}


def test_transcript_json_is_pinned():
    texts = {name: [] for name in TRANSCRIPT_SHA256}
    for seq, model in (("GCAU", BPM), ("ACGT", BPM), ("GGCC", BPS)):
        for base in (F(2), F(1, 2)):
            oracle = make_oracle(sys_of(seq), PK, model, base)
            for name, _, t in all_reductions(oracle, levels_bpm(4), base):
                texts[name].append(t.to_json())
    oracle = acgt_oracle()
    fraction_levels = [F(-2), F(-1), F(0)]
    texts["mfe-via-dmfe"].append(mfe_via_dmfe(oracle, fraction_levels)[1].to_json())
    texts["mfe-via-ssel"].append(mfe_via_ssel(oracle, fraction_levels)[1].to_json())
    assert '"argument": "-1"' in texts["mfe-via-dmfe"][-1]
    got = {name: hashlib.sha256("\n".join(v).encode()).hexdigest()[:16]
           for name, v in texts.items()}
    assert got == TRANSCRIPT_SHA256


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.text("ACGU", min_size=3, max_size=6), st.sampled_from((BPM, BPS)),
       st.sampled_from((F(1, 2), F(2), F(3))))
def test_any_density_of_states_answers_like_the_brute_oracle(seq, model, base):
    system = sys_of(seq)
    brute = make_oracle(system, PK, model, base)
    handmade = OracleHandle(system, DensityOfStates(dict(brute.dos.counts), F(1)), base)
    assert handmade.mfe() == brute.mfe()
    for g in range(-(len(seq) // 2) - 1, 2):
        assert handmade.ssel(g) == brute.ssel(g)
        assert handmade.dmfe(g) == brute.dmfe(g)
    for j in range(4):
        assert handmade.pf(j) == brute.pf(j)
        for threshold in (F(1), brute.pf(j), brute.pf(j) + F(1, 7)):
            for weight in ({base ** j, F(5)} - {1}):
                assert handmade.dpf(threshold, weight) == brute.dpf(threshold, weight)
            if j:  # pf(j) answers at the weight base**j
                assert brute.dpf(threshold, base ** j) == (brute.pf(j) >= threshold)
    lv = levels_bpm(system.n)
    for (name, a, t), (_, b, u) in zip(all_reductions(handmade, lv, base),
                                        all_reductions(brute, lv, base)):
        assert a == b and t.to_json() == u.to_json(), name
