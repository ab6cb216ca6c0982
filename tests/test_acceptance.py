"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Every equality here is exact
(integers / rationals); the only tolerances are the stated wall-clock
budgets.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from exfold.strands import (
    StrandSystem,
    StructureSpace,
    count_structures,
    enumerate_structures,
)
from exfold.energy import BPM, BPS, energy_nn_detail, toy_params_a, toy_params_b
from exfold.exactmath import factorial
from exfold.levels import (
    augment_symmetry,
    grid_slope,
    levels_bpm,
    levels_bps,
    levels_nn_dp,
    levels_nn_grid,
)
from exfold.oracles import dos_brute, make_oracle
from exfold.reductions import (
    dmfe_via_dpf,
    dmfe_via_mfe,
    dos_via_pf,
    dpf_via_pf,
    magnified_separation_holds,
    mfe_via_dmfe,
    mfe_via_ssel,
    pf_via_dpf,
    pf_via_ssel,
)
from exfold.hardness import (
    FourPartitionInstance,
    ThreeDMInstance,
    count_bps_brute,
    count_bps_chains,
    verify_parsimony_4part,
    verify_parsimony_bps,
)

PK = StructureSpace(allow_pseudoknots=True)


def report(criterion: str, ok: bool, detail: str):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def random_system(rng: random.Random, max_n=10, max_c=3) -> StrandSystem:
    c = rng.choice([1] * 3 + [2] * 2 + [3])
    c = min(c, max_c)
    lens = [rng.randint(1, 6) for _ in range(c)]
    while sum(lens) > max_n:
        lens[lens.index(max(lens))] -= 1
    lens = [max(1, L) for L in lens]
    seqs = ["".join(rng.choice("ACGT") for _ in range(L)) for L in lens]
    if c >= 2 and rng.random() < 0.25:
        seqs[1] = seqs[0]
    return StrandSystem.from_sequences(*seqs)


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_structure_count_calibration():
    t0 = time.time()
    bound_values = {3: 4, 4: 10, 5: 26}
    for n, bound in bound_values.items():
        got = count_structures(StrandSystem.from_sequences("A" * n),
                               StructureSpace(pairing="all"))
        assert got <= bound
        closed_form = sum(math.comb(n, 2 * k) * math.prod(range(2 * k - 1, 0, -2))
                          for k in range(n // 2 + 1))
        assert got == closed_form == bound
    rng = random.Random(1001)
    cases = 0
    for _ in range(220):
        n = rng.randint(3, 10)
        s = StrandSystem.from_sequences("".join(rng.choice("ACGT") for _ in range(n)))
        assert count_structures(s, PK) < math.factorial(n)
        cases += 1
    elapsed = time.time() - t0
    report("criterion 1 (count calibration)",
           cases >= 200 and elapsed < 10,
           f"{cases} random systems < n!, all-pairs counts 4/10/26, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-4 and 7 share one sweep


@pytest.fixture(scope="module")
def reduction_sweep():
    rng = random.Random(2002)
    systems = []
    while len(systems) < 102:
        system = random_system(rng)
        if system.n >= 3:
            systems.append(system)
    bases = (F(1, 2), F(2), F(3))
    stats = {
        "systems": 0,
        "checks": 0,
        "alg2_checks": 0,
        "superset_ok": True,
        "level_size_ok": True,
        "elapsed": 0.0,
    }
    t0 = time.time()
    for system in systems:
        n = system.n
        stats["systems"] += 1
        for model, levels in ((BPM, levels_bpm(n)), (BPS, levels_bps(n))):
            dos = dos_brute(system, PK, model)
            mfe = dos.mfe()
            stats["superset_ok"] &= set(dos.counts) <= set(levels.levels)
            stats["level_size_ok"] &= len(levels) == n // 2 + 1
            for base in bases:
                oracle = make_oracle(system, PK, model, base)
                pf = dos.pf(base)

                for k in (mfe, mfe - 1, 0, F(2 * mfe - 1, 2)):
                    got, t = dmfe_via_mfe(oracle, k)
                    assert got == (mfe <= k) and t.call_count == 1
                    stats["checks"] += 1

                for k in (pf, pf + 1, F(1), pf * 2):
                    got, t = dpf_via_pf(oracle, k)
                    assert got == (pf >= k) and t.call_count == 1
                    stats["checks"] += 1

                got, t = mfe_via_dmfe(oracle, levels)
                assert got == mfe
                assert t.call_count <= math.ceil(math.log2(len(levels))) + 1
                stats["checks"] += 1

                got, t = mfe_via_ssel(oracle, levels)
                assert got == mfe and t.call_count <= len(levels)
                stats["checks"] += 1

                got, t = pf_via_ssel(oracle, levels, base)
                assert got == pf and t.call_count == len(levels)
                stats["checks"] += 1

                counts, t = dos_via_pf(oracle, levels, base)
                assert t.call_count == len(levels)
                assert counts == {g: dos.counts.get(g, 0) for g in levels.levels}
                stats["checks"] += 1

                thresholds = list(levels.levels) + [F(2 * g + 1, 2) for g in levels.levels]
                for k in thresholds:
                    got, t = dmfe_via_dpf(oracle, levels, k)
                    assert got == (mfe <= k) and t.call_count <= 1
                    stats["alg2_checks"] += 1

                got, t = pf_via_dpf(oracle, levels, base)
                assert got == pf
                assert t.call_count <= len(levels) * math.ceil(math.log2(factorial(n) + 1))
                stats["checks"] += 1
    stats["elapsed"] = time.time() - t0
    return stats


def test_criterion_2_reduction_map_equivalence(reduction_sweep):
    s = reduction_sweep
    report("criterion 2 (reduction map)",
           s["systems"] >= 100 and s["checks"] > 0 and s["elapsed"] < 120,
           f"{s['systems']} systems x 2 models x 3 bases, "
           f"{s['checks']} reduction checks bit-exact, {s['elapsed']:.1f}s")


def test_criterion_3_count_reconstruction(reduction_sweep):
    # dos_via_pf equality over every level is asserted inside the sweep
    report("criterion 3 (full count reconstruction)",
           reduction_sweep["systems"] >= 100,
           f"entire density of states recovered on {reduction_sweep['systems']} systems")


def test_criterion_4_magnified_threshold_identity(reduction_sweep):
    symbolic = all(magnified_separation_holds(n, x)
                   for n in range(3, 31) for x in range(-6, 7))
    report("criterion 4 (huge-magnification identity)",
           reduction_sweep["alg2_checks"] > 0 and symbolic,
           f"{reduction_sweep['alg2_checks']} threshold queries match MFE <= k; "
           f"separation holds symbolically for n <= 30")


# ---------------------------------------------------------------------------
# criterion 5


def occupied_symfree(system, ordering, params):
    space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                           min_hairpin=params.min_hairpin)
    out = set()
    for st in enumerate_structures(system, space, 64, fixed_ordering=ordering):
        d = energy_nn_detail(system, ordering, st, params)
        out.add(d.loops_quanta + d.assoc_quanta)
    return out


def occupied_full(system, ordering, params):
    space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                           min_hairpin=params.min_hairpin)
    return {energy_nn_detail(system, ordering, st, params).total
            for st in enumerate_structures(system, space, 64, fixed_ordering=ordering)}


def test_criterion_5_sumset_dp_exactness():
    t0 = time.time()
    rng = random.Random(3003)
    params_sets = (toy_params_a(16), toy_params_b(16))
    systems = [random_system(rng) for _ in range(56)]
    grid_ok = True
    checked = 0
    for system in systems:
        ordering = rng.choice(list(system.circular_orderings()))
        for params in params_sets:
            exact = occupied_symfree(system, ordering, params)
            dp = levels_nn_dp(system, ordering, params)
            assert set(dp.levels) == exact, (system, ordering, params.delta)
            aug = augment_symmetry(dp, system, ordering, params)
            full = occupied_full(system, ordering, params)
            assert full <= set(aug.levels)
            grid = levels_nn_grid(system, params)
            grid_ok &= exact <= set(grid.levels)
            grid_ok &= len(grid) <= 1 + system.n * grid_slope(params, system.c)
        checked += 1
    elapsed = time.time() - t0
    report("criterion 5 (sumset DP exactness)",
           checked >= 50 and grid_ok and elapsed < 120,
           f"{checked} systems x 2 parameter sets: DP == occupied levels, "
           f"augmented superset holds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_6_parsimony_identities():
    headline = FourPartitionInstance((2, 2, 2, 2), 8)
    strand = "CCACCACCACCAAAGGGGGGGG"
    by_enum = count_bps_brute(strand, 4)
    by_chain = count_bps_chains(strand, 4)
    assert by_enum == by_chain == 24 == 1 * factorial(1) * factorial(4) ** 1
    assert verify_parsimony_bps(headline).ok

    further = [
        FourPartitionInstance((2, 2, 2, 2), 7),   # zero solutions
        FourPartitionInstance((3, 3, 3, 3), 11),  # zero solutions
        FourPartitionInstance((3, 3, 3, 3), 12),
        FourPartitionInstance((3, 3, 4, 4), 14),
        FourPartitionInstance((4, 4, 4, 4), 16),
        FourPartitionInstance((5, 5, 5, 5), 20),
    ]
    for inst in further:
        rep = verify_parsimony_bps(inst)
        assert rep.ok, rep.to_json()

    univ = list(itertools.product((1, 2), (1, 2), (1, 2)))
    sweep = 0
    for q in (1, 2):
        pool = univ if q == 2 else [(1, 1, 1)]
        ids = tuple(range(1, q + 1))
        for size in range(0, 5):
            for T in itertools.combinations(pool, size):
                inst = ThreeDMInstance(ids, ids, ids, T)
                rep = verify_parsimony_4part(inst)
                assert rep.ok, (T, rep.to_json())
                sweep += 1
    report("criterion 6 (parsimony identities)", True,
           f"headline 24 == 1*1!*24^1 on both counting routes, "
           f"{len(further)} further instances, {sweep} 3DM instances (|X|<=2, |T|<=4)")


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_superset_law(reduction_sweep):
    report("criterion 7 (superset law)",
           reduction_sweep["superset_ok"] and reduction_sweep["level_size_ok"],
           "every occupied level inside its candidate set; "
           "|levels| == floor(n/2)+1 for the pair-count models "
           "(grid bound asserted under criterion 5)")


# ---------------------------------------------------------------------------
# criterion 8


GOLDEN = [
    ("enumerate", "ACGT", "--model", "bpm"),
    ("enumerate", "GGCC", "--pseudoknots", "--dump"),
    ("solve", "ACGT", "--base", "2", "--level", "-1", "--pseudoknots"),
    ("solve", "GGCC", "--model", "bps", "--base", "3", "--pseudoknots"),
    ("reduce", "ssel-via-pf", "ACGT", "--base", "2", "-k", "-1", "--pseudoknots"),
    ("reduce", "dmfe-via-dpf", "ACGT", "-k", "-1", "--pseudoknots"),
    ("reduce", "pf-via-dpf", "GCAU", "--base", "1/2", "--pseudoknots"),
    ("levels", "--model", "bpm", "-n", "7"),
]


def test_criterion_8_cli_determinism():
    outputs = []
    for case in GOLDEN:
        runs = [subprocess.run([sys.executable, "-m", "exfold.cli", *case],
                               capture_output=True, text=True) for _ in range(2)]
        assert runs[0].returncode == 0 and runs[1].returncode == 0, case
        assert runs[0].stdout.encode() == runs[1].stdout.encode(), case
        outputs.append(json.loads(runs[0].stdout))
    assert outputs[0] == {"count": 4}
    report("criterion 8 (CLI determinism)", True,
           f"{len(GOLDEN)} golden cases byte-identical across two runs")
