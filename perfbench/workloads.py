"""The benchmark's four workloads: seeded inputs, the library calls that are
timed, and the exact checks on their outputs.

A workload is an endless sequence of rounds.  A round is a fixed list of
slots (an op kind at a stated size); the seed only draws the inputs that
fill the slots, so every round carries the same mix of work and a run is a
whole number of rounds.  Where a slot's cost would otherwise swing with the
drawn sequence, the draw is constrained (a fixed base composition, or a
band on the number of crossing-free matchings, which is what the
enumerators walk) so that the seed changes the inputs but not the amount
of work.

An op is one closed-loop call into the library (one child process for
``cli-cold``).  Its output is checked after the timed span, against a
reference that does not share the code under test where one exists, and
against the committed digest of its canonical output for the default seed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from exfold import hardness, levels, oracles, reductions, strands

# the package re-exports the function ``energy`` under the module's name
energy = importlib.import_module("exfold.energy")

DEFAULT_SEED = 0
PK = strands.StructureSpace(allow_pseudoknots=True)
KNOT_FREE = strands.StructureSpace(allow_pseudoknots=False)

# Known defects of the library at the commit that defined this benchmark.
# Their ops stay in the workloads and count as failed; a failure is excused
# from ``correct`` only when its message carries the defect's signature.
KNOWN_DEFECTS = {
    # rat_to_str of the (n!)**-x threshold logged by _Recorder.dpf exceeds
    # sys.get_int_max_str_digits() once n >= 80 and x <= -40
    "digit-limit": "Exceeds the limit",
    # the shipped NN parameter files stop at loop size 16 and are never
    # extended, so longer hairpins have no table entry
    "nn-long-loop": "missing hairpin parameter entry",
}


class WrongAnswer(AssertionError):
    """An op's output disagrees with its reference."""


class ChildFailed(RuntimeError):
    """A CLI child process exited with an unexpected code."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Op:
    """One closed-loop operation.

    ``call`` is the timed library call; ``check`` takes its result, raises
    ``WrongAnswer`` on a mismatch with the reference and returns the
    canonical output string whose digest is committed for the default seed.
    ``known`` names the entry of KNOWN_DEFECTS the op reproduces;
    ``inputs`` describes the generated inputs (for reports and tests).
    """

    __slots__ = ("id", "kind", "call", "check", "known", "warm", "inputs")

    def __init__(self, kind, call, check, known=None, warm=False, inputs=None):
        self.id = ""
        self.kind = kind
        self.call = call
        self.check = check
        self.known = known
        self.warm = warm
        self.inputs = inputs


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# references that share no code with the library


PAIRS = {("A", "U"), ("U", "A"), ("A", "T"), ("T", "A"), ("C", "G"), ("G", "C")}


def matchings(x: int, y: int, p: int) -> int:
    """Ways to pick p disjoint pairs between x and y bases."""
    return comb(x, p) * comb(y, p) * factorial(p)


def pk_bpm_counts(seq: str) -> dict[int, int]:
    """Pseudoknotted pair-count density of states of one strand: the A-U and
    C-G pairs form independent complete bipartite matchings."""
    au = (seq.count("A"), seq.count("U") + seq.count("T"))
    cg = (seq.count("C"), seq.count("G"))
    out: dict[int, int] = {}
    for p1 in range(min(au) + 1):
        for p2 in range(min(cg) + 1):
            out[-(p1 + p2)] = out.get(-(p1 + p2), 0) + matchings(*au, p1) * matchings(*cg, p2)
    return out


def noncrossing_count(seq: str, min_loop: int = 0) -> int:
    """Crossing-free matchings of complementary pairs (Nussinov count); with
    min_loop > 0 a pair must enclose at least that many bases."""
    n = len(seq)
    table = [[1] * (n + 1) for _ in range(n + 2)]
    for i in range(n - 1, -1, -1):
        for j in range(i, n):
            total = table[i + 1][j]
            for k in range(i + min_loop + 1, j + 1):
                if (seq[i], seq[k]) in PAIRS:
                    total += table[i + 1][k - 1] * table[k + 1][j]
            table[i][j] = total
    return table[0][n - 1]


def orderings_noncrossing(seqs) -> int:
    """Sum over circular orderings of the crossing-free matchings of the
    concatenation: the size of the knot-free search, up to overlaps."""
    first, rest = seqs[0], seqs[1:]
    return sum(noncrossing_count(first + "".join(p))
               for p in itertools.permutations(rest))


def pf_of(counts: dict, base) -> Fraction:
    base = Fraction(base)
    return sum((c * base ** -g for g, c in counts.items()), Fraction(0))


def shuffled(rng: random.Random, composition: dict[str, int]) -> str:
    letters = [b for b, k in composition.items() for _ in range(k)]
    rng.shuffle(letters)
    return "".join(letters)


def balanced(rng: random.Random, n: int) -> str:
    """Shuffled strand with (nearly) equal counts of A, C, G and U: the DP's
    cell sets, hence its time and memory, depend mostly on the composition."""
    return shuffled(rng, {b: n // 4 + (i < n % 4) for i, b in enumerate("ACGU")})


def banded(rng, draw, measure, band):
    """Redraw until ``measure`` falls inside ``band``."""
    lo, hi = band
    while True:
        value = draw()
        if lo <= measure(value) <= hi:
            return value


def random_system(rng: random.Random, max_n: int = 10, max_c: int = 3):
    """Random strand system in the acceptance-suite range (n >= 3)."""
    while True:
        c = min(rng.choice([1, 1, 1, 2, 2, 3]), max_c)
        lens = [rng.randint(1, 6) for _ in range(c)]
        while sum(lens) > max_n:
            lens[lens.index(max(lens))] -= 1
        seqs = ["".join(rng.choice("ACGT") for _ in range(max(1, n))) for n in lens]
        if c >= 2 and rng.random() < 0.25:
            seqs[1] = seqs[0]
        system = strands.StrandSystem.from_sequences(*seqs)
        if system.n >= 3:
            return system


# ---------------------------------------------------------------------------
# oracle-enum: the in-process `exfold solve`

# Fifteen ops per round, so that p50 and p90 fall inside one slot's block
# of samples (the 8th and 14th fastest slots, both pseudoknotted strands of
# fixed work) rather than on the edge between two slots.
#
# pseudoknotted single strands: model, (A, U) and (C, G) counts; the
# structure count depends only on these, so every seed does the same work
PK_SLOTS = (
    ("bpm", (4, 3), (4, 3)),   # n=14, 5 329 structures
    ("bpm", (5, 2), (4, 4)),   # n=15, 6 479
    ("bpm", (6, 2), (4, 4)),   # n=16, 8 987
    ("bpm", (8, 1), (5, 5)),   # n=19, 13 914
    ("bps", (3, 3), (3, 3)),   # n=12, 1 156
    ("bps", (4, 3), (4, 3)),
)
# knot-free multistrand systems: model, strand lengths, band on the summed
# crossing-free matchings over the circular orderings
KF_SLOTS = (
    ("bps", (4, 4, 4), (300, 420)),
    ("bpm", (3, 3, 3, 3), (500, 700)),
    ("bpm", (5, 5, 4), (1150, 1500)),
)
# nearest-neighbour systems: toy parameter set, strand lengths, band on the
# crossing-free matchings of the concatenation (the enumerator's search)
NN_SLOTS = (
    ("a", (12,), (150, 210)),
    ("b", (14,), (380, 560)),
    ("a", (16,), (1300, 1700)),
    ("b", (18,), (4000, 5000)),
    ("a", (7, 7), (400, 560)),
)
NN_LONG_LOOP = "GAAAAAAAAAAAAAAAAAAC"


def solve_op(kind, system, space, model, rng, reference=None, known=None, warm=False):
    n = system.n
    base = rng.choice((Fraction(2), Fraction(1, 2), Fraction(3), Fraction(3, 2)))
    level = -rng.randint(0, n // 2)
    threshold = Fraction(rng.randint(1, 1 << n), rng.randint(1, 8))

    def call():
        dos = oracles.dos_brute(system, space, model)
        pf = dos.pf(base)
        return dos.counts, dos.mfe(), pf, dos.ssel(level), pf >= threshold, dos.mfe() <= level

    def check(raw):
        counts, mfe, pf, ssel, dpf, dmfe = raw
        want_pf = pf_of(counts, base)
        expect(mfe == min(counts), "mfe is not the lowest occupied level")
        expect(pf == want_pf, "pf differs from the sum over the density of states")
        expect(ssel == counts.get(level, 0), "ssel differs from the level count")
        expect(dpf == (want_pf >= threshold) and dmfe == (mfe <= level), "decision answers")
        if reference is not None:
            reference(counts)
        return canon({"dos": {str(g): str(c) for g, c in sorted(counts.items())},
                      "mfe": mfe, "pf": q(pf), "ssel": ssel, "dpf": dpf, "dmfe": dmfe,
                      "base": q(base), "level": level, "threshold": q(threshold)})

    return Op(kind, call, check, known, warm, {
        "strands": [s.sequence for s in system.strands], "model": model.kind,
        "base": q(base), "level": level, "threshold": q(threshold)})


def oracle_enum_prepare():
    params = {}
    for name, lens, _ in NN_SLOTS:
        n = sum(lens)
        maker = energy.toy_params_a if name == "a" else energy.toy_params_b
        params[(name, n)] = maker(n)
    long_loop = strands.StrandSystem.from_sequences(NN_LONG_LOOP)
    expected = oracles.dos_brute(long_loop, strands.nn_space(),
                                 energy.nn_model(energy.toy_params_a(long_loop.n)))
    shipped = energy.load_nn_params(energy.toy_params_file("toy_nn_a"))
    return {"params": params, "long_loop": (long_loop, expected.counts, shipped)}


def oracle_enum_round(fx, rng: random.Random) -> list[Op]:
    ops = []
    for i, (model, au, cg) in enumerate(PK_SLOTS):
        if rng.random() < 0.5:
            au, cg = cg, au
        letters = ("AU" if rng.random() < 0.5 else "UA") + ("CG" if rng.random() < 0.5 else "GC")
        seq = shuffled(rng, dict(zip(letters, au + cg)))
        system = strands.StrandSystem.from_sequences(seq)
        want = pk_bpm_counts(seq)
        if model == "bpm":
            def ref(counts, want=want):
                expect(counts == want, "pair-count DoS differs from the closed form")
        else:
            def ref(counts, want=sum(want.values())):
                expect(sum(counts.values()) == want, "structure total differs from the closed form")
        m = energy.BPM if model == "bpm" else energy.BPS
        ops.append(solve_op(f"pk-{model}", system, PK, m, rng, ref, warm=i == 0))

    for i, (model, lens, band) in enumerate(KF_SLOTS):
        seqs = banded(rng, lambda: ["".join(rng.choice("ACGU") for _ in range(k)) for k in lens],
                      orderings_noncrossing, band)
        system = strands.StrandSystem.from_sequences(*seqs)
        single_pairs = sum(1 for a, b in itertools.combinations("".join(seqs), 2) if (a, b) in PAIRS)

        def ref(counts, single_pairs=single_pairs, model=model):
            expect(counts.get(0, 0) >= 1, "the empty structure is missing")
            if model == "bpm":
                expect(counts.get(-1, 0) == single_pairs, "one-pair level differs from the pair count")
        m = energy.BPM if model == "bpm" else energy.BPS
        ops.append(solve_op(f"kf-{model}", system, KNOT_FREE, m, rng, ref, warm=i == 0))

    for i, (name, lens, band) in enumerate(NN_SLOTS):
        seqs = banded(rng, lambda: ["".join(rng.choice("ACGU") for _ in range(k)) for k in lens],
                      lambda s: noncrossing_count("".join(s)), band)
        system = strands.StrandSystem.from_sequences(*seqs)
        model = energy.nn_model(fx["params"][(name, system.n)])
        ref = None
        if len(seqs) == 1:
            total = noncrossing_count(seqs[0], min_loop=3)

            def ref(counts, total=total):
                expect(sum(counts.values()) == total, "structure total differs from the Nussinov count")
        ops.append(solve_op(f"nn-c{len(seqs)}", system, strands.nn_space(), model, rng, ref,
                            warm=i == 0))

    system, want, shipped = fx["long_loop"]

    def ref(counts, want=want):
        expect(counts == want, "DoS differs from dos_brute under toy_params_a(20)")
    ops.append(solve_op("nn-long-loop", system, strands.nn_space(), energy.nn_model(shipped),
                        rng, ref, known="nn-long-loop", warm=True))
    return ops


# ---------------------------------------------------------------------------
# reduce-reconstruct: the eight reductions


def reduction_map_op(system, model, base, rng, warm=False) -> Op:
    """Part (a): all eight reductions on a brute-force oracle, checked
    against that oracle's own density of states."""
    lv = levels.levels_bpm(system.n) if model is energy.BPM else levels.levels_bps(system.n)
    k = rng.choice(lv.levels)
    k_half = Fraction(2 * rng.choice(lv.levels) - 1, 2)
    pf_threshold = Fraction(rng.randint(1, 60), rng.randint(1, 4))
    R = reductions

    def call():
        oracle = oracles.make_oracle(system, PK, model, base)
        return oracle.dos, {
            "dmfe_via_mfe": R.dmfe_via_mfe(oracle, k_half),
            "dpf_via_pf": R.dpf_via_pf(oracle, pf_threshold),
            "mfe_via_dmfe": R.mfe_via_dmfe(oracle, lv),
            "mfe_via_ssel": R.mfe_via_ssel(oracle, lv),
            "pf_via_ssel": R.pf_via_ssel(oracle, lv, base),
            "ssel_via_pf": R.ssel_via_pf(oracle, lv, base, k),
            "dmfe_via_dpf": R.dmfe_via_dpf(oracle, lv, k),
            "pf_via_dpf": R.pf_via_dpf(oracle, lv, base),
        }

    def check(raw):
        dos, out = raw
        counts, mfe = dos.counts, min(dos.counts)
        pf = pf_of(counts, base)
        ans = {name: answer for name, (answer, _) in out.items()}
        expect(ans["dmfe_via_mfe"] == (mfe <= k_half), "dmfe-via-mfe")
        expect(ans["dpf_via_pf"] == (pf >= pf_threshold), "dpf-via-pf")
        expect(ans["mfe_via_dmfe"] == mfe and ans["mfe_via_ssel"] == mfe, "mfe reductions")
        expect(ans["pf_via_ssel"] == pf and ans["pf_via_dpf"] == pf, "pf reductions")
        expect(ans["ssel_via_pf"] == counts.get(k, 0), "ssel-via-pf")
        expect(out["ssel_via_pf"][1].details["counts"]
               == {str(g): str(counts.get(g, 0)) for g in lv.levels}, "count reconstruction")
        expect(ans["dmfe_via_dpf"] == (mfe <= k), "dmfe-via-dpf")
        return canon({name: [str(a) if isinstance(a, Fraction) else a, t.call_count]
                      for name, (a, t) in out.items()})

    return Op("map", call, check, warm=warm, inputs={
        "strands": [s.sequence for s in system.strands], "model": model.kind, "base": q(base),
        "k": k, "k_half": q(k_half), "pf_threshold": q(pf_threshold)})


def cf_counts(seq: str) -> dict[int, int]:
    """Closed-form BPM pseudoknotted DoS of a strand over {A, C, G}."""
    c, g = seq.count("C"), seq.count("G")
    return {-p: matchings(c, g, p) for p in range(min(c, g) + 1)}


def closed_form_oracle(seq: str, base):
    """A real OracleHandle whose density of states is the closed form,
    built without enumerating structures."""
    handle = object.__new__(oracles.OracleHandle)
    handle.system = strands.StrandSystem.from_sequences(seq)
    handle.space, handle.model = PK, energy.BPM
    handle.base = oracles.check_base(base)
    handle.dos = oracles.DensityOfStates(cf_counts(seq), Fraction(1), PK)
    handle.calls = 0
    return handle


def level_counts(counts: dict, n: int) -> dict:
    """A reconstruction transcript's counts: every BPM level of n bases."""
    return {str(-p): str(counts.get(-p, 0)) for p in range(n // 2 + 1)}


def acg_strand(rng: random.Random, n: int, max_a: int = 2) -> str:
    a = rng.randint(0, max_a)
    c = (n - a) // 2 + rng.randint(-1, 1)
    return shuffled(rng, {"A": a, "C": c, "G": n - a - c})


def cf_op(kind, seq, base, run, check_answer, known=None, warm=False, **args) -> Op:
    """Part (b): one reduction on a closed-form oracle."""
    lv = levels.levels_bpm(len(seq))
    counts = cf_counts(seq)

    def call():
        return run(closed_form_oracle(seq, base), lv)

    def check(raw):
        answer, transcript = raw
        check_answer(answer, transcript, counts)
        shown = str(answer) if isinstance(answer, Fraction) else answer
        return canon({"seq": seq, "answer": shown, "calls": transcript.call_count})

    return Op(kind, call, check, known, warm, {"seq": seq, "base": q(base), **args})


CF_SSEL_SIZES = (16, 24, 32, 40, 48, 56, 64)     # Vandermonde N = 9..33
CF_PF_DPF_SIZES = (12, 16, 20, 24)
CF_DMFE_SIZES = (16, 32, 48, 64)
CF_SCAN_SIZES = (48, 80)


def reduce_round(fx, rng: random.Random) -> list[Op]:
    R = reductions
    ops = []
    for i in range(6):
        model = (energy.BPM, energy.BPS)[i % 2]
        base = (Fraction(1, 2), Fraction(2), Fraction(3))[i % 3]
        ops.append(reduction_map_op(random_system(rng), model, base, rng, warm=i == 0))

    for n in CF_SSEL_SIZES:
        seq = acg_strand(rng, n)
        level = -rng.randint(0, min(seq.count("C"), seq.count("G")))

        def check(answer, t, counts, level=level, n=n):
            expect(answer == counts.get(level, 0), "ssel-via-pf count")
            expect(t.details["counts"] == level_counts(counts, n),
                   "reconstructed DoS differs from the closed form")
        ops.append(cf_op("cf-ssel-via-pf", seq, 2,
                         lambda o, lv, level=level: R.ssel_via_pf(o, lv, Fraction(2), level),
                         check, warm=n == CF_SSEL_SIZES[0], level=level))

    for n in CF_PF_DPF_SIZES:
        seq = acg_strand(rng, n)

        def check(answer, t, counts):
            expect(answer == pf_of(counts, 2), "pf-via-dpf differs from the closed-form PF")
        ops.append(cf_op("cf-pf-via-dpf", seq, 2,
                         lambda o, lv: R.pf_via_dpf(o, lv, Fraction(2)), check,
                         warm=n == CF_PF_DPF_SIZES[0]))

    for n in CF_DMFE_SIZES:
        seq = acg_strand(rng, n)
        threshold = -rng.randint(0, n // 2)

        def check(answer, t, counts, threshold=threshold):
            expect(answer == (min(counts) <= threshold), "dmfe-via-dpf")
        ops.append(cf_op("cf-dmfe-via-dpf", seq, 2,
                         lambda o, lv, k=threshold: R.dmfe_via_dpf(o, lv, k), check,
                         threshold=threshold))

    # the digit-limit defect: 40 C + 40 G, threshold -40
    seq = shuffled(rng, {"C": 40, "G": 40})

    def check(answer, t, counts):
        expect(answer is True, "dmfe-via-dpf at the deep threshold")
    ops.append(cf_op("cf-dmfe-deep", seq, 2, lambda o, lv: R.dmfe_via_dpf(o, lv, -40), check,
                     known="digit-limit", warm=True))

    for n in CF_SCAN_SIZES:
        seq = acg_strand(rng, n)
        k = -rng.randint(0, n // 2)

        def run(o, lv, k=k, n=n):
            answers = (R.dmfe_via_mfe(o, k), R.dpf_via_pf(o, Fraction(1 << n)),
                       R.mfe_via_dmfe(o, lv), R.mfe_via_ssel(o, lv), R.pf_via_ssel(o, lv, 3))
            return [str(a) for a, _ in answers], answers[-1][1]

        def check(answer, t, counts, k=k, n=n):
            mfe = min(counts)
            want = [mfe <= k, pf_of(counts, 2) >= (1 << n), mfe, mfe, pf_of(counts, 3)]
            want = [str(w) for w in want]
            expect(answer == want, "scan reductions")
        ops.append(cf_op("cf-scan", seq, 2, run, check, k=k))

    # the closed form itself against brute-force enumeration (n <= 12)
    seq = acg_strand(rng, rng.randint(8, 10))

    def check(answer, t, counts, seq=seq):
        brute = oracles.dos_brute(strands.StrandSystem.from_sequences(seq), PK, energy.BPM)
        expect(brute.counts == counts, "closed form differs from dos_brute")
        expect(t.details["counts"] == level_counts(counts, len(seq)), "count reconstruction")
    ops.append(cf_op("cf-small", seq, Fraction(1, 2),
                     lambda o, lv: R.ssel_via_pf(o, lv, Fraction(1, 2), 0), check))
    return ops


# ---------------------------------------------------------------------------
# levels-hardness: polynomial routes, no structure enumeration in the timed call

# a ladder of sizes, so that the DP fills the middle and the upper tail of
# the latency distribution without gaps
DP_SINGLE = tuple(("ab"[i % 2], n) for i, n in enumerate(range(24, 41, 2)))
DP_MULTI = (("b", (12, 12)), ("a", (8, 8, 8)), ("b", (14, 14)), ("a", (10, 10, 10)),
            ("b", (16, 16)))
# 3DM instances: (|X|, number of triples) -> k = 4 * triples elements
PART4_SLOTS = ((3, 3), (3, 4), (2, 6), (4, 7))
LEVELS_LONG_LOOP = "GGG" + "A" * 18 + "CCC"


def dp_op(kind, system, ordering, params, exact=False, warm=False, known=None,
          reference=None) -> Op:
    L = levels

    def call():
        lv = L.levels_nn_dp(system, ordering, params)
        return lv, L.augment_symmetry(lv, system, ordering, params), L.levels_nn_grid(system, params)

    def check(raw):
        lv, aug, grid = raw
        expect(set(lv.levels) <= set(grid.levels), "DP level outside the sound grid")
        expect(set(lv.levels) <= set(aug.levels), "augmentation dropped a level")
        if exact:
            expect(set(lv.levels) == occupied_levels(system, ordering, params),
                   "DP differs from the enumerated occupied levels")
        if reference is not None:
            expect(lv == reference, "DP differs from the reference level set")
        return canon({"dp": lv.to_json(), "aug": aug.to_json(),
                      "grid": [grid.levels[0], grid.levels[-1], len(grid)]})

    return Op(kind, call, check, known, warm, {
        "strands": [s.sequence for s in system.strands], "ordering": list(ordering),
        "delta": q(params.delta), "kbt": q(params.kbt)})


def occupied_levels(system, ordering, params) -> set:
    """Symmetry-free levels of the enumerated ensemble (the DP's contract)."""
    space = strands.StructureSpace(allow_pseudoknots=False, require_connected=True,
                                   min_hairpin=params.min_hairpin)
    out = set()
    for st in strands.enumerate_structures(system, space, 64, fixed_ordering=ordering):
        d = energy.energy_nn_detail(system, ordering, st, params)
        out.add(d.loops_quanta + d.assoc_quanta)
    return out


def three_dm(rng: random.Random, q: int, t: int):
    """Random 3DM instance with a perfect matching planted, so no element is
    left uncovered (which would send the generator to its zero fallback)."""
    ids = tuple(range(1, q + 1))
    triples = set(zip(ids, rng.sample(ids, q), rng.sample(ids, q)))
    rest = [x for x in itertools.product(ids, ids, ids) if x not in triples]
    triples |= set(rng.sample(rest, t - q))
    order = sorted(triples)
    rng.shuffle(order)
    return hardness.ThreeDMInstance(ids, ids, ids, tuple(order))


def four_part_op(inst, warm=False) -> Op:
    H = hardness
    k = 4 * len(inst.triples)

    def call():
        built = H.gen_4part_from_3dm(inst)
        return built, H.verify_parsimony_4part(inst, partition_budget=k)

    def check(raw):
        built, report = raw
        expect(not built.degenerate, "generator fell back to the zero instance")
        expect(report.status == "ok" and report.lhs == report.rhs, "4-PARTITION parsimony")
        expect(report.coefficient == built.alpha, "alpha")
        return canon({"weights": [str(w) for w in built.instance.weights],
                      "bound": str(built.instance.bound), "report": report.to_json()})

    return Op("4part", call, check, warm=warm, inputs={"triples": [list(t) for t in inst.triples]})


def bps_op(kind, inst, route, warm=False) -> Op:
    H = hardness

    def call():
        return H.gen_bps_from_4part(inst), H.verify_parsimony_bps(inst)

    def check(raw):
        bps, report = raw
        expect(report.status == "ok" and report.lhs == report.rhs, "stacking parsimony")
        expect(report.route == route, f"expected the {route} route")
        return canon({"strand": bps.strand, "target": bps.target_stacks,
                      "report": report.to_json()})

    return Op(kind, call, check, warm=warm,
              inputs={"weights": list(inst.weights), "bound": inst.bound})


def four_part_k4(rng: random.Random):
    """Balanced k=4 instance with bound 12..16 (weights strictly inside
    (B/5, B/3)); these take the chain-count route.  There are few such
    instances, so the chain counter's cache stops growing after a few rounds
    and peak memory does not depend on how many rounds a run completes."""
    while True:
        bound = rng.randint(12, 16)
        lo, hi = bound // 5 + 1, -(-bound // 3) - 1
        weights = [rng.randint(lo, hi) for _ in range(3)]
        last = bound - sum(weights)
        if lo <= last <= hi:
            return hardness.FourPartitionInstance(tuple(weights + [last]), bound)


def chain_strand(rng: random.Random) -> str:
    """Strand over {A, C, G} with A-separated C and G runs and at most ten
    pairable bases, small enough for count_bps_brute."""
    runs_c = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    runs_g = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    while sum(runs_c) + sum(runs_g) > 10:
        runs_c.pop() if len(runs_c) > 1 else runs_g.pop()
    return "A".join("C" * r for r in runs_c) + "AA" + "A".join("G" * r for r in runs_g)


def chain_op(strand: str) -> Op:
    H = hardness
    top = min(strand.count("C"), strand.count("G"))

    def call():
        return [H.count_bps_chains(strand, s) for s in range(top + 1)]

    def check(raw):
        want = [H.count_bps_brute(strand, s) for s in range(top + 1)]
        expect(raw == want, "chain count differs from count_bps_brute")
        return canon({"strand": strand, "counts": [str(c) for c in raw]})

    return Op("chain-vs-brute", call, check, inputs={"strand": strand})


def levels_prepare():
    params = {}
    for name, n in DP_SINGLE + tuple((nm, sum(lens)) for nm, lens in DP_MULTI) \
            + (("a", 12), ("b", 12)):
        maker = energy.toy_params_a if name == "a" else energy.toy_params_b
        params[(name, n)] = maker(n)
    system = strands.StrandSystem.from_sequences(LEVELS_LONG_LOOP)
    expected = levels.levels_nn_dp(system, system.ids, energy.toy_params_a(system.n))
    shipped = energy.load_nn_params(energy.toy_params_file("toy_nn_a"))
    return {"params": params, "long_loop": (system, expected, shipped)}


def levels_round(fx, rng: random.Random) -> list[Op]:
    P = fx["params"]
    ops = []
    for name, n in DP_SINGLE:
        system = strands.StrandSystem.from_sequences(balanced(rng, n))
        ops.append(dp_op("dp-single", system, system.ids, P[(name, n)], warm=n == 24))
    for name, lens in DP_MULTI:
        seqs = [balanced(rng, k) for k in lens]
        if rng.random() < 0.5:
            seqs = [seqs[0]] * len(seqs)  # rotationally symmetric: augmentation adds levels
        system = strands.StrandSystem.from_sequences(*seqs)
        ordering = rng.choice(list(system.circular_orderings()))
        ops.append(dp_op(f"dp-c{len(lens)}", system, ordering, P[(name, sum(lens))]))
    for name in ("a", "b"):
        system = random_system(rng, max_n=12)
        ordering = rng.choice(list(system.circular_orderings()))
        ops.append(dp_op("dp-vs-enum", system, ordering, P[(name, 12)], exact=True))
    for i, (q_, t) in enumerate(PART4_SLOTS):
        ops.append(four_part_op(three_dm(rng, q_, t), warm=i == 0))
    ops.append(bps_op("bps-chain-k4", four_part_k4(rng), "chain-count", warm=True))
    ops.append(bps_op("bps-chain-k8", hardness.FourPartitionInstance((3,) * 8, 12), "chain-count"))
    ops.append(bps_op("bps-enum", hardness.FourPartitionInstance((2, 2, 2, 2), 8), "enumeration"))
    ops.append(chain_op(chain_strand(rng)))
    system, expected, shipped = fx["long_loop"]
    ops.append(dp_op("dp-long-loop", system, system.ids, shipped, known="nn-long-loop",
                     reference=expected, warm=True))
    return ops


# ---------------------------------------------------------------------------
# cli-cold: every README and criterion-8 command line as a fresh process

README_W_JSON = {"weights": ["3", "3", "3", "3"], "bound": "12"}
CLI_COMMANDS = (
    ("enumerate", "ACGT", "--model", "bpm"),
    ("enumerate", "GGCC", "--pseudoknots"),
    ("enumerate", "GGCC", "--pseudoknots", "--dump"),
    ("solve", "ACGT", "--base", "2", "--level", "-1", "--pseudoknots"),
    ("solve", "GGCC", "--model", "bps", "--base", "3", "--pseudoknots"),
    ("reduce", "ssel-via-pf", "ACGT", "--base", "2", "-k", "-1", "--pseudoknots"),
    ("reduce", "dmfe-via-dpf", "ACGT", "-k", "-1", "--pseudoknots"),
    ("reduce", "pf-via-dpf", "GCAU", "--base", "1/2", "--pseudoknots"),
    ("levels", "--model", "bpm", "-n", "7"),
    ("levels", "GGGAAAACCC", "--model", "nn", "--dp", "--params", "src/exfold/data/toy_nn_a.txt"),
    ("hardgen", "bps-from-4part", "{w}"),
    ("hardgen", "verify-bps", "{w}"),
    ("solve", NN_LONG_LOOP, "--model", "nn", "--params", "src/exfold/data/toy_nn_a.txt"),
)
CLI_KNOWN = {12: "nn-long-loop"}


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cli_prepare(root: Path, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    w = work / "w.json"
    w.write_text(json.dumps(README_W_JSON, sort_keys=True) + "\n")
    rel = os.path.relpath(w, root)
    argvs = [tuple(rel if a == "{w}" else a for a in cmd) for cmd in CLI_COMMANDS]
    return {"root": root, "env": cli_env(root), "argvs": argvs}


def cli_op(fx, index: int, expected_stdout) -> Op:
    argv = [sys.executable, "-m", "exfold.cli", *fx["argvs"][index]]
    root, env = fx["root"], fx["env"]

    def call():
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        return proc.stdout

    def check(stdout):
        if expected_stdout is not None:
            expect(stdout == expected_stdout.encode(), "stdout differs from the expected bytes")
        return stdout.decode()

    return Op(f"cli-{CLI_COMMANDS[index][0]}", call, check, CLI_KNOWN.get(index),
              warm=index == 0, inputs={"argv": list(fx["argvs"][index])})


def cli_round(fx, rng: random.Random) -> list[Op]:
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    expected = fx.get("stdout") or {}
    return [cli_op(fx, i, expected.get(str(i))) for i in order]


def nn_long_loop_stdout() -> str:
    """What `exfold solve GAAAAAAAAAAAAAAAAAAC --model nn --params
    toy_nn_a.txt` should print: the DoS under toy_params_a(20), which
    extends the shipped file's tables with the same anchor."""
    system = strands.StrandSystem.from_sequences(NN_LONG_LOOP)
    model = energy.nn_model(energy.toy_params_a(system.n))
    dos = oracles.dos_brute(system, strands.nn_space(), model)
    return json.dumps({
        "delta": q(model.delta),
        "mfe": str(dos.mfe()),
        "dos": {str(g): str(c) for g, c in sorted(dos.counts.items())},
        "count": str(dos.total()),
    }, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, prepare, build, trace_rounds):
        self.name = name
        self.prepare = prepare
        self.build = build
        self.trace_rounds = trace_rounds

    def round(self, fx, seed: int, r: int) -> list[Op]:
        ops = self.build(fx, random.Random(f"{self.name}/{seed}/{r}"))
        for slot, op in enumerate(ops):
            op.id = f"{r}.{slot}"
        return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle-enum", lambda root, work: oracle_enum_prepare(), oracle_enum_round, 6),
        Workload("reduce-reconstruct", lambda root, work: {}, reduce_round, 12),
        Workload("levels-hardness", lambda root, work: levels_prepare(), levels_round, 5),
        Workload("cli-cold", cli_prepare, cli_round, 4),
    )
}
