import bisect
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from exfold.strands import BudgetExceeded, InvalidInput, StrandSystem, StructureSpace
from exfold.energy import BPM, BPS
from exfold.exactmath import factorial
from exfold.hardness import (
    FourPartitionInstance,
    ThreeDMInstance,
    count_3dm_brute,
    count_4part_brute,
    count_bps_auto,
    count_bps_brute,
    count_bps_chains,
    gen_4part_from_3dm,
    gen_bps_from_4part,
    verify_parsimony_4part,
    verify_parsimony_bps,
)
from exfold.oracles import dos_brute
from exfold.strands import count_structures


def tdm(q, triples):
    base = tuple(range(1, q + 1))
    return ThreeDMInstance(base, base, base, triples)


ALL8 = tuple(itertools.product((1, 2), (1, 2), (1, 2)))


def plain_4part_count(weights, bound):
    """Reference: the exhaustive search over element indices, unmemoised."""
    if sum(weights) != bound * (len(weights) // 4):
        return 0

    def rec(remaining):
        if not remaining:
            return 1
        first, rest = remaining[0], remaining[1:]
        total = 0
        for trio in itertools.combinations(range(len(rest)), 3):
            if weights[first] + sum(weights[rest[i]] for i in trio) == bound:
                chosen = set(trio)
                total += rec(tuple(rest[i] for i in range(len(rest)) if i not in chosen))
        return total

    return rec(tuple(range(len(weights))))


def plain_bps_count(strand, target):
    """Reference: every C-G matching one at a time, unmemoised."""
    cpos = [i for i, b in enumerate(strand, 1) if b == "C"]
    gset = [i for i, b in enumerate(strand, 1) if b == "G"]
    partner = {}
    used = [False] * len(gset)

    def stacks_gained(c, g):
        gained = 0
        if partner.get(c - 1) == g + 1:
            gained += 1
        if partner.get(c + 1) == g - 1:
            gained += 1
        return gained

    def rec(idx, stacks):
        if idx == len(cpos):
            return 1 if stacks == target else 0
        c = cpos[idx]
        total = rec(idx + 1, stacks)
        for gi, g in enumerate(gset):
            if used[gi]:
                continue
            used[gi] = True
            gained = stacks_gained(c, g)
            partner[c] = g
            partner[g] = c
            total += rec(idx + 1, stacks + gained)
            del partner[c]
            del partner[g]
            used[gi] = False
        return total

    return rec(0, 0)


def palette_instance(rng, k, colours, balance):
    """k weights from a palette of ``colours`` values strictly inside
    (bound/5, bound/3), moved towards a total of bound * k/4 with
    probability ``balance``: equal weights and partitions both occur often."""
    bound = rng.randint(11, 24)
    lo, hi = bound // 5 + 1, -(-bound // 3) - 1
    palette = [rng.randint(lo, hi) for _ in range(colours)]
    weights = [rng.choice(palette) for _ in range(k)]
    if rng.random() < balance:
        gap = bound * (k // 4) - sum(weights)
        for i in range(k):
            step = max(lo - weights[i], min(hi - weights[i], gap))
            weights[i] += step
            gap -= step
    rng.shuffle(weights)
    return weights, bound


def trio_4part_count(weights, bound):
    """Reference: the memoised search testing every index trio of the sorted
    remainder for the anchor's partners."""
    if sum(weights) != bound * (len(weights) // 4):
        return 0
    memo = {(): 1}

    def rec(remaining):
        if remaining not in memo:
            need, rest = bound - remaining[0], remaining[1:]
            memo[remaining] = sum(
                rec(tuple(w for i, w in enumerate(rest) if i not in trio))
                for trio in itertools.combinations(range(len(rest)), 3)
                if sum(rest[i] for i in trio) == need)
        return memo[remaining]

    return rec(tuple(sorted(weights)))


def list_histogram_bps(strand):
    """Reference: the memoised matching search returning each state's
    histogram by stacks gained as a list; entry s counts s stacks."""
    cpos = [i for i, b in enumerate(strand, 1) if b == "C"]
    gpos = [i for i, b in enumerate(strand, 1) if b == "G"]
    watched = [sorted({p for c in cpos[idx:] for p in (c - 1, c + 1)
                       if p in gpos or p in cpos[:idx]})
               for idx in range(len(cpos))]
    partner, memo = {}, {}

    def rec(idx, used):
        if idx == len(cpos):
            return [1]
        key = (idx, used, tuple(partner.get(p) for p in watched[idx]))
        if key not in memo:
            c = cpos[idx]
            hist = list(rec(idx + 1, used))
            for gi, g in enumerate(gpos):
                if used >> gi & 1:
                    continue
                gained = (partner.get(c - 1) == g + 1) + (partner.get(c + 1) == g - 1)
                partner[c], partner[g] = g, c
                sub = rec(idx + 1, used | 1 << gi)
                del partner[c], partner[g]
                hist.extend([0] * (len(sub) + gained - len(hist)))
                for stacks, n in enumerate(sub):
                    hist[stacks + gained] += n
            memo[key] = hist
        return memo[key]

    return rec(0, 0)


def sorted_tuple_chain_count(strand, target):
    """Reference: the chain route over sorted-tuple length multisets, which
    places single pairs as chains of length 1, without a state ceiling."""
    runs = {ch: tuple(len(list(g)) for k, g in itertools.groupby(strand) if k == ch)
            for ch in "CG"}
    if not runs["C"] or not runs["G"]:
        return 1 if target == 0 else 0

    def length_multisets(max_len, max_total):
        def rec(smallest, room):
            for first in range(smallest, max_len + 1):
                if first > room:
                    return
                yield (first,)
                for rest in rec(first, room - first):
                    yield (first,) + rest
        yield from rec(1, max_total)

    def sub_multisets(multiset, capacity):
        items = sorted(set(multiset))

        def rec(idx, room):
            if idx == len(items):
                yield ()
                return
            v = items[idx]
            for take in range(min(multiset.count(v), room // v) + 1):
                for rest in rec(idx + 1, room - take * v):
                    yield (v,) * take + rest
        yield from rec(0, capacity)

    def multiset_minus(a, b):
        out = list(a)
        for v in b:
            out.remove(v)
        return tuple(out)

    def arrangements(lam):
        perm = factorial(len(lam))
        for _, grp in itertools.groupby(lam):
            perm //= factorial(len(list(grp)))
        return perm

    def ways_in_run(length, lam):
        if sum(lam) > length:
            return 0
        return arrangements(lam) * comb(length - sum(lam) + len(lam), len(lam))

    memo = {}

    def placements(runs, lam):
        if not lam:
            return 1
        if not runs:
            return 0
        if (runs, lam) not in memo:
            memo[(runs, lam)] = sum(ways_in_run(runs[0], sub)
                                    * placements(runs[1:], multiset_minus(lam, sub))
                                    for sub in sub_multisets(lam, runs[0]))
        return memo[(runs, lam)]

    q = {0: 1}  # the empty packing
    for lam in length_multisets(min(max(runs["C"]), max(runs["G"])),
                                min(sum(runs["C"]), sum(runs["G"]))):
        pairing = factorial(len(lam)) // arrangements(lam)
        s = sum(lam) - len(lam)
        q[s] = q.get(s, 0) + placements(runs["C"], lam) * placements(runs["G"], lam) * pairing
    if target < 0:
        return 0
    return sum((-1) ** (s - target) * comb(s, target) * n for s, n in q.items() if s >= target)


def random_strands(rng, alphabet, count, max_pairable):
    out = []
    while len(out) < count:
        strand = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        if strand.count("C") + strand.count("G") <= max_pairable:
            out.append(strand)
    return out


def equal_blocks_strand(rng, marked):
    """A-separated C runs, of one C or, when ``marked``, of two or three
    (a C after a C marks the block its predecessor's pair tops), and three
    or four open G blocks of one length, maybe one more G run; at most 16
    pairable bases."""
    while True:
        runs = ["C" * rng.randint(1 + marked, 1 + 2 * marked) for _ in range(rng.randint(1, 3))]
        runs += ["G" * rng.randint(1, 3)] * rng.randint(3, 4)
        runs += ["G" * rng.randint(1, 3)] * rng.randint(0, 1)
        rng.shuffle(runs)
        if sum(map(len, runs)) <= 16:
            return "A".join(runs)


def block_shape_strand(rng, kind):
    """A strand of A-separated C runs and G runs; kind 0 has two or more G
    runs of one length and no C/G boundary, kind 1 one G run fused to a C
    run, kind 2 both."""
    c_runs = ["C" * rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    length = rng.randint(1, 3)
    g_runs = [] if kind == 1 else ["G" * length] * rng.randint(2, 3)
    g_runs += ["G" * rng.randint(1, 3)] * rng.randint(kind == 1, 1)
    runs = c_runs + g_runs
    rng.shuffle(runs)
    if kind:
        fused = runs.pop(next(j for j, r in enumerate(runs) if r[0] == "G"))
        i = rng.choice([i for i, r in enumerate(runs) if r[0] == "C"])
        runs.insert(i + rng.randint(0, 1), fused)
        runs[i:i + 2] = ["".join(runs[i:i + 2])]
    return "".join(r + "A" * rng.randint(1, 2) for r in runs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ThreeDMInstance((1, 2), (1, 2), (1,), ()), InvalidInput,
     "X, Y, Z must have equal sizes"),
    (lambda: ThreeDMInstance((1, 1), (1, 2), (1, 2), ()), InvalidInput,
     "element sets contain duplicates"),
    (lambda: tdm(2, ((1, 2, 3),)), InvalidInput, "triple (1, 2, 3) is not in X x Y x Z"),
    (lambda: FourPartitionInstance((3, 3, 3), 9), InvalidInput,
     "the number of elements must be a multiple of 4"),
    (lambda: FourPartitionInstance((3, 3, 3, 3), 0), InvalidInput, "bound must be positive"),
    (lambda: count_3dm_brute(tdm(7, ())), BudgetExceeded, "|X| = 7 exceeds the 3DM budget 6"),
    (lambda: count_bps_brute("CCAUGG", 1), InvalidInput,
     "stack counting expects strands over A, C, G only"),
], ids=["unequal-axes", "duplicate-elements", "triple-outside", "k-not-4m", "bound-0",
        "3dm-budget", "bps-u-strand"])
def test_refused_input(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


class TestThreeDM:
    def test_singleton(self):
        assert count_3dm_brute(tdm(1, ((1, 1, 1),))) == 1

    def test_all_eight_triples(self):
        assert count_3dm_brute(tdm(2, ALL8)) == 4

    def test_no_triples(self):
        assert count_3dm_brute(tdm(1, ())) == 0

    def test_empty_instance(self):
        assert count_3dm_brute(ThreeDMInstance((), (), (), ())) == 1

    def test_duplicate_triples_rejected(self):
        with pytest.raises(InvalidInput):
            tdm(1, ((1, 1, 1), (1, 1, 1)))

    def test_json_roundtrip(self):
        inst = tdm(2, ((1, 1, 2), (2, 2, 1)))
        assert ThreeDMInstance.from_json(inst.to_json()) == inst


class TestFourPartition:
    def test_uniform(self):
        assert count_4part_brute(FourPartitionInstance((2, 2, 2, 2), 8)) == 1

    def test_eight_equal_elements(self):
        inst = FourPartitionInstance((5,) * 8, 20)
        # labeled elements: C(8,4)/2 unordered splits into two B-tuples
        assert count_4part_brute(inst) == 35

    def test_range_strictness_rejected(self):
        with pytest.raises(InvalidInput):
            FourPartitionInstance((2, 2, 2, 3), 9)  # 3 == 9/3 fails strict <

    def test_unbalanced_counts_zero(self):
        assert count_4part_brute(FourPartitionInstance((2, 2, 2, 2), 7)) == 0

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_4part_brute(FourPartitionInstance((5,) * 24, 20), budget=20)

    def test_json_roundtrip(self):
        inst = FourPartitionInstance((2, 2, 2, 2), 8)
        assert FourPartitionInstance.from_json(inst.to_json()) == inst

    @pytest.mark.parametrize("weights,bound,field", [
        ((12.5, 12, 12, 12), 48, "'weights'"),
        ((12.9, 12, 12, 12), 48, "'weights'"),
        ((12, 12, 12, 12), 48.5, "'bound'"),
        ((12, 12, 12, 12), Fraction(97, 2), "'bound'"),
    ])
    def test_fractional_numbers_refused(self, weights, bound, field):
        # int() would have read each of these as a nearby integer instance
        with pytest.raises(InvalidInput, match=f"{field} holds .*, not an integer"):
            FourPartitionInstance(weights, bound)

    def test_memo_matches_plain_search(self):
        # few distinct weights, so that equal weights and many partitions occur
        rng = random.Random(23)
        nonzero = 0
        for k in (4, 8, 12):
            for _ in range(40):
                weights, bound = palette_instance(rng, k, 3, 0.7)
                want = plain_4part_count(weights, bound)
                assert count_4part_brute(FourPartitionInstance(weights, bound)) == want, \
                    (weights, bound)
                nonzero += want > 0
        assert nonzero >= 30

    def test_bisected_partners_match_trio_search(self, monkeypatch):
        # a palette of two or three weights makes runs of equal third partners
        # common; the spy counts the runs longer than one that were taken
        from exfold import hardness
        runs = []

        def spy(rest, third, lo):
            hi = bisect.bisect_right(rest, third, lo)
            runs.append(hi - lo)
            return hi

        monkeypatch.setattr(hardness, "bisect_right", spy)
        rng = random.Random(29)
        nonzero = 0
        for k in (4, 8, 12, 16):
            for _ in range(25):
                weights, bound = palette_instance(rng, k, rng.choice((2, 3)), 0.8)
                want = trio_4part_count(weights, bound)
                assert count_4part_brute(FourPartitionInstance(weights, bound)) == want, \
                    (weights, bound)
                nonzero += want > 0
        assert nonzero >= 30
        assert sum(n > 1 for n in runs) >= 100


class TestGen4Part:
    def test_singleton_alpha_one(self):
        built = gen_4part_from_3dm(tdm(1, ((1, 1, 1),)))
        assert built.alpha == 1 and built.instance.k == 4
        assert built.instance.balanced()
        assert count_4part_brute(built.instance) == 1

    def test_alpha_formula(self):
        # x=1 occurs 3 times on the X axis: alpha gains (3-1)! = 2
        inst = tdm(2, ((1, 1, 1), (1, 2, 2), (1, 1, 2), (2, 2, 1)))
        built = gen_4part_from_3dm(inst)
        expected = 1
        for axis, members in enumerate((inst.x, inst.y, inst.z)):
            for a in members:
                expected *= factorial(inst.occurrences(axis, a) - 1)
        assert built.alpha == expected

    def test_weights_in_strict_range(self):
        built = gen_4part_from_3dm(tdm(2, ALL8[:4]))
        inst = built.instance
        for w in inst.weights:
            assert 5 * w > inst.bound and 3 * w < inst.bound

    def test_degenerate_occurrence_fallback(self):
        # q=2 with a single triple: matchings = 0, and a literal construction
        # would still admit one partition; the fallback forces both sides to 0
        built = gen_4part_from_3dm(tdm(2, ((1, 1, 1),)))
        assert built.degenerate and built.alpha == 1
        assert count_4part_brute(built.instance) == 0


class TestBPSGeneration:
    def test_headline_strand(self):
        bps = gen_bps_from_4part(FourPartitionInstance((2, 2, 2, 2), 8))
        assert bps.strand == "CCACCACCACCAAAGGGGGGGG"
        assert bps.target_stacks == 4

    def test_five_weights(self):
        bps = gen_bps_from_4part(FourPartitionInstance((5, 5, 5, 5), 20))
        assert bps.strand == "A".join(["CCCCC"] * 4) + "AAA" + "G" * 20
        assert bps.target_stacks == 16

    def test_two_g_blocks(self):
        bps = gen_bps_from_4part(FourPartitionInstance((2,) * 8, 8))
        assert bps.strand.count("G" * 8) >= 1
        assert bps.strand.endswith("G" * 8 + "A" + "G" * 8)

    def test_slack_rejected(self):
        # total weight below the G capacity admits off-partition structures
        with pytest.raises(InvalidInput):
            gen_bps_from_4part(FourPartitionInstance((2, 2, 2, 2), 9))

    def test_strand_budget_counts_every_base(self, monkeypatch):
        from exfold import hardness
        for weights, bound in (((5, 5, 5, 5), 20), ((2,) * 8, 8), ((), 5)):
            inst = FourPartitionInstance(weights, bound)
            length = len(gen_bps_from_4part(inst).strand)
            monkeypatch.setattr(hardness, "BPS_STRAND_BASES", length)
            assert len(gen_bps_from_4part(inst).strand) == length
            monkeypatch.setattr(hardness, "BPS_STRAND_BASES", length - 1)
            with pytest.raises(BudgetExceeded, match=f"{length} strand bases"):
                gen_bps_from_4part(inst)

    def test_3dm_derived_strand_is_refused_unbuilt(self):
        # one triple: k = 4, bound 6 611 728 523, a 13e9-base strand
        inst = gen_4part_from_3dm(tdm(1, ((1, 1, 1),))).instance
        assert sum(inst.weights) + inst.bound + 6 == 13_223_457_052
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="13223457052 strand bases"):
                gen_bps_from_4part(inst)
            report = verify_parsimony_bps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "skipped" and report.coefficient == 24
        assert peak < 1 << 20


class TestStackCounting:
    def test_ggcc(self):
        assert count_bps_brute("GGCC", 1) == 1
        assert count_bps_brute("GGCC", 0) == 6
        assert count_bps_brute("AAAA", 0) == 1

    def test_chains_match_brute_small(self):
        assert count_bps_chains("GGCC", 1) == 1
        assert count_bps_chains("GGCC", 0) == 6

    def test_chains_match_brute_random(self):
        rng = random.Random(19)
        for _ in range(25):
            # A-separated C/G runs keep the chain model exact
            parts = []
            for _ in range(rng.randint(1, 4)):
                parts.append(rng.choice("CG") * rng.randint(1, 3))
                parts.append("A" * rng.randint(1, 2))
            strand = "".join(parts)
            if strand.count("C") + strand.count("G") > 12:
                continue
            top = strand.count("C") + strand.count("G")
            for k in range(0, top):
                assert count_bps_chains(strand, k) == count_bps_brute(strand, k), \
                    (strand, k)

    def test_chains_match_sorted_tuple_route(self):
        # A-separated runs, one adjacent C/G boundary, or a single run on one
        # side, against the route that places single pairs as chains
        rng = random.Random(43)
        strands = ["CCCCAGG", "GAGGACCCCC", "CCCGGGAGGACC", "CCAGGGGACCC"]
        for i in range(60):
            runs = [rng.choice("CG") * rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
            if i % 3 == 1:
                j = rng.randrange(len(runs))
                runs[j] += ("G" if runs[j][0] == "C" else "C") * rng.randint(1, 3)
            elif i % 3 == 2:
                lone = rng.choice("CG")
                runs = [lone * rng.randint(1, 6)] + ["CG".replace(lone, "") * len(r) for r in runs]
            strands.append("".join(r + "A" * rng.randint(1, 2) for r in runs))
        for strand in strands:
            top = strand.count("C") + strand.count("G")
            for k in range(-1, top + 2):
                assert count_bps_chains(strand, k) == sorted_tuple_chain_count(strand, k), \
                    (strand, k)

    @pytest.mark.parametrize("weights,bound,states", [
        ((5,) * 8, 20, 16276),
        ((4,) * 8, 16, 3368),
        ((3, 3, 4, 4, 3, 3, 4, 4), 14, 2392),
    ])
    def test_chain_state_count_is_pinned(self, monkeypatch, weights, bound, states):
        # the memo key (runs suffix, chain count vector) decides the state count
        from exfold import hardness
        inst = FourPartitionInstance(weights, bound)
        bps = gen_bps_from_4part(inst)
        monkeypatch.setattr(hardness, "CHAIN_MEMO_STATES", states)
        hardness._chain_packings.cache_clear()
        count = count_bps_chains(bps.strand, bps.target_stacks)
        monkeypatch.setattr(hardness, "CHAIN_MEMO_STATES", states - 1)
        hardness._chain_packings.cache_clear()
        with pytest.raises(BudgetExceeded) as err:
            count_bps_chains(bps.strand, bps.target_stacks)
        assert str(err.value) == f"chain counting exceeds {states - 1} placement states"
        assert count == 1152 * count_4part_brute(inst)

    def test_chains_guard_mixed_boundaries(self):
        with pytest.raises(InvalidInput):
            count_bps_chains("CGCG", 1)

    def test_memo_matches_plain_search(self):
        # directly adjacent C/G runs let a stack read a G's partner
        rng = random.Random(31)
        strands = ["CGCGGGGCC", "GCCG", "CCGG", "GGCGCC"]
        strands += random_strands(rng, "CG", 30, 12)
        strands += random_strands(rng, "ACG", 30, 12)
        for strand in strands:
            top = strand.count("C") + strand.count("G")
            for k in range(-1, top + 2):
                assert count_bps_brute(strand, k) == plain_bps_count(strand, k), \
                    (strand, k)

    def test_block_shape_key_matches_positional_searches(self):
        # open G runs are keyed by block shape; both references key every G
        # by position, so they share no key with the library
        rng = random.Random(53)
        strands = ["CCACCAGGAGG", "CCCAGGAGGAGG", "CCGGACCAGGAGG", "GGACCACCCAGG"]
        strands += [block_shape_strand(rng, i % 3) for i in range(60)]
        for strand in strands:
            c, g = strand.count("C"), strand.count("G")
            if c + g > 16:
                continue
            want = list_histogram_bps(strand)
            want = [0] + want + [0] * (c + g + 2 - len(want))
            got = [count_bps_brute(strand, k) for k in range(-1, c + g + 2)]
            assert got == want, strand
            if c + g <= 10:
                assert got == [plain_bps_count(strand, k) for k in range(-1, c + g + 2)], strand

    def test_open_block_classes_match_a_positional_search(self):
        # the library recurses once per offset into the open G blocks of one
        # length; the references try every G by position, one at a time
        rng = random.Random(67)
        strands = ["CACACACAAGGAGGAGGAGG", "CCACCACCAAGGAGGAGGAGG", "CCCAAGGGAGGGAGGGAGG",
                   "GAGAGAGAACCACCAC", "CCAGGAGGAGGACGG"]
        strands += [equal_blocks_strand(rng, i % 2) for i in range(40)]
        for strand in strands:
            c, g = strand.count("C"), strand.count("G")
            want = list_histogram_bps(strand)
            want = [0] + want + [0] * (c + g + 2 - len(want))
            got = [count_bps_brute(strand, k) for k in range(-1, c + g + 2)]
            assert got == want, strand
            if c + g <= 10:
                assert got == [plain_bps_count(strand, k) for k in range(-1, c + g + 2)], strand

    @pytest.mark.parametrize("weights,bound,targets", [
        ((3, 3, 3, 3), 12, None),
        ((3, 3, 3, 4), 13, None),
        ((3, 3, 4, 4), 14, None),
        ((4, 4, 4, 4), 16, (11, 12, 13)),
    ])
    def test_enumeration_matches_chain_route(self, weights, bound, targets):
        # the balanced k=4 strands the chain route serves, recounted by
        # enumeration past its default budget
        bps = gen_bps_from_4part(FourPartitionInstance(weights, bound))
        assert targets is None or bps.target_stacks == targets[1]
        for s in targets or range(-1, bps.target_stacks + 2):
            assert count_bps_brute(bps.strand, s, budget=100) \
                == count_bps_chains(bps.strand, s), (weights, s)

    def test_counts_sum_to_all_matchings(self):
        rng = random.Random(37)
        for strand in random_strands(rng, "ACG", 40, 14):
            c, g = strand.count("C"), strand.count("G")
            matchings = sum(comb(c, p) * comb(g, p) * factorial(p)
                            for p in range(min(c, g) + 1))
            assert sum(count_bps_brute(strand, k) for k in range(c + g + 1)) == matchings, strand

    def test_matches_energy_model_histogram(self):
        # independent route: stack counts via the BPS density of states
        rng = random.Random(41)
        strands = ["GGACC"] + ["".join(rng.choice("ACG") for _ in range(rng.randint(1, 9)))
                               for _ in range(25)]
        for strand in strands:
            system = StrandSystem.from_sequences(strand)
            dos = dos_brute(system, StructureSpace(allow_pseudoknots=True), BPS)
            for k in range(-1, len(strand) + 1):
                assert count_bps_brute(strand, k) == dos.counts.get(-k, 0), (strand, k)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_bps_brute("C" * 12 + "G" * 12, 4, budget=16)

    def test_memo_ceiling(self, monkeypatch):
        from exfold import hardness
        # the most memo states found on 16 pairable bases: well under the ceiling
        assert count_bps_brute("CCCCCCGGCGGCGGCG", 2) == 14386
        monkeypatch.setattr(hardness, "BPS_MEMO_STATES", 1000)
        with pytest.raises(BudgetExceeded, match="more than 1000 matching states"):
            count_bps_brute("CCCCCCGGCGGCGGCG", 0)
        # (3,)*8/12 takes enumeration at this budget and needs 99 690 states
        report = verify_parsimony_bps(FourPartitionInstance((3, 3, 3, 3, 3, 3, 3, 3), 12),
                                      enum_budget=100)
        assert report.status == "skipped" and "matching states" in report.notes

    @pytest.mark.parametrize("strand,target,states", [
        ("CCACCACCACCAAAGGGGGGGG", 4, 260),  # one open G run: keyed by block shape
        ("CCACCACCAAGGAGGAGGAGG", 3, 46),  # four equal open G blocks, each C after a C marked
        ("CCCCCCGGCGGCGGCG", 2, 55619),
        ("C" * 8 + "G" * 8, 3, 10648),
    ])
    def test_memo_state_count_is_pinned(self, monkeypatch, strand, target, states):
        # the memo key decides the state count: a drifting key changes it; the
        # all-C/G strands pin the positional part
        from exfold import hardness
        monkeypatch.setattr(hardness, "BPS_MEMO_STATES", states)
        count = count_bps_brute(strand, target)
        monkeypatch.setattr(hardness, "BPS_MEMO_STATES", states - 1)
        with pytest.raises(BudgetExceeded) as err:
            count_bps_brute(strand, target)
        assert str(err.value) == f"stack counting needs more than {states - 1} matching states"
        assert count == list_histogram_bps(strand)[target]

    @pytest.mark.parametrize("strand", ["C" * 8 + "G" * 8, "CG" * 8, "C" * 5 + "G" * 11])
    def test_packed_slots_hold_the_largest_counts(self, strand):
        # all-C/G strands with 16 pairable bases fill the slots the most
        c, g = strand.count("C"), strand.count("G")
        want = list_histogram_bps(strand)
        got = [count_bps_brute(strand, k) for k in range(-1, c + g + 2)]
        assert got == [0] + want + [0] * (c + g + 2 - len(want))
        matchings = sum(comb(c, p) * comb(g, p) * factorial(p) for p in range(min(c, g) + 1))
        assert sum(got) == matchings

    def test_auto_route_selection(self):
        n, route = count_bps_auto("GGCC", 1)
        assert n == 1 and route == "enumeration"
        big = gen_bps_from_4part(FourPartitionInstance((5, 5, 5, 5), 20))
        n, route = count_bps_auto(big.strand, big.target_stacks)
        assert n == 24 and route == "chain-count"


class TestParsimonyBPS:
    def test_headline_instance(self):
        report = verify_parsimony_bps(FourPartitionInstance((2, 2, 2, 2), 8))
        assert report.ok and report.lhs == 24 and report.rhs == 24
        assert report.coefficient == 24

    def test_zero_solution_instance(self):
        report = verify_parsimony_bps(FourPartitionInstance((2, 2, 2, 2), 7))
        assert report.ok and report.lhs == 0 and report.rhs == 0

    @pytest.mark.parametrize("weights,bound,expected", [
        ((3, 3, 3, 3), 12, 24),
        ((3, 3, 4, 4), 14, 24),
        ((4, 4, 4, 4), 16, 24),
        ((5, 5, 5, 5), 20, 24),
        ((3, 3, 3, 3), 11, 0),
    ])
    def test_further_k4_instances(self, weights, bound, expected):
        report = verify_parsimony_bps(FourPartitionInstance(weights, bound))
        assert report.ok and report.lhs == expected

    def test_k8_instance_chain_route(self):
        report = verify_parsimony_bps(FourPartitionInstance((2,) * 8, 8))
        assert report.ok and report.route == "chain-count"
        assert report.lhs == 35 * 2 * factorial(4) ** 2 == 40320

    @pytest.mark.parametrize("weight", [4, 5])
    def test_k8_long_runs_chain_route(self, weight):
        # runs of 4 and 5 bases: counted below the placement-state ceiling
        report = verify_parsimony_bps(FourPartitionInstance((weight,) * 8, 4 * weight))
        assert report.ok and report.route == "chain-count"
        assert report.lhs == report.rhs == 40320

    def test_invalid_slack_instance(self):
        with pytest.raises(InvalidInput, match="G-side slack"):
            verify_parsimony_bps(FourPartitionInstance((2, 2, 2, 2), 9))

    def test_chain_state_ceiling(self):
        # eight 6s, bound 24: the chain-length multisets and their placement
        # states grow without a polynomial bound; the count stops at the ceiling
        report = verify_parsimony_bps(FourPartitionInstance((6,) * 8, 24))
        assert report.status == "skipped" and report.coefficient == 1152
        assert report.notes == "chain counting exceeds 32768 placement states"


class TestParsimony4Part:
    def test_singleton(self):
        assert verify_parsimony_4part(tdm(1, ((1, 1, 1),))).ok

    def test_no_matching(self):
        report = verify_parsimony_4part(tdm(1, ()))
        assert report.ok and report.lhs == 0

    def test_skipped_past_the_3dm_budget(self):
        report = verify_parsimony_4part(tdm(7, ()))
        assert report.status == "skipped" and report.lhs is None
        assert report.notes == "|X| = 7 exceeds the 3DM budget 6"

    def test_sweep_small(self):
        univ = list(itertools.product((1, 2), (1, 2), (1, 2)))
        rng = random.Random(6)
        pool = [tuple(T) for size in (0, 1, 2, 3, 4)
                for T in itertools.combinations(univ, size)]
        for T in rng.sample(pool, 40):
            report = verify_parsimony_4part(tdm(2, T))
            assert report.ok, (T, report.to_json())

    def test_all_eight_triples(self):
        # 32 elements; the largest exhaustive cross-check in the suite
        report = verify_parsimony_4part(tdm(2, ALL8), partition_budget=32)
        assert report.ok
        assert report.lhs == 46656 * 4
        assert report.coefficient == factorial(3) ** 6


class TestMultiPKF:
    """Knot-free multi-strand structures by pair count, read off the BPM
    density of states."""

    @staticmethod
    def by_pairs(s, k):
        return dos_brute(s, StructureSpace(allow_pseudoknots=False), BPM).ssel(-k)

    def test_single_strand_levels(self):
        s = StrandSystem.from_sequences("ACGT")
        assert self.by_pairs(s, 2) == 1
        assert self.by_pairs(s, 0) == 1

    def test_sums_to_unpseudoknotted_total(self):
        rng = random.Random(44)
        for _ in range(8):
            c = rng.choice((1, 2))
            seqs = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 4)))
                    for _ in range(c)]
            s = StrandSystem.from_sequences(*seqs)
            total = count_structures(s, StructureSpace(allow_pseudoknots=False))
            by_k = sum(self.by_pairs(s, k) for k in range(0, s.n // 2 + 1))
            assert by_k == total

    def test_two_strands(self):
        s = StrandSystem.from_sequences("AC", "GT")
        counts = {k: self.by_pairs(s, k) for k in range(0, 3)}
        assert counts[0] == 1
        assert sum(counts.values()) == count_structures(
            s, StructureSpace(allow_pseudoknots=False))
