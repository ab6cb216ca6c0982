import dataclasses
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from exfold.strands import (
    DEFAULT_PAIR_BUDGET,
    ORDERING_BUDGET,
    BaseRef,
    BudgetExceeded,
    EMPTY_STRUCTURE,
    Flattening,
    InvalidInput,
    SecondaryStructure,
    Strand,
    StrandSystem,
    StructureSpace,
    candidate_pairs,
    complementary,
    count_structures,
    enumerate_structures,
    flattening,
    is_unpseudoknotted_multi,
    nn_space,
    parse_strands,
    place,
    validate_structure,
)

ROOT = Path(__file__).resolve().parent.parent


def sys_of(*seqs):
    return StrandSystem.from_sequences(*seqs)


def flat(system, pairs):
    identity = flattening(system)
    return SecondaryStructure.from_refs(system, [(identity.ref(i), identity.ref(j))
                                                 for i, j in pairs])


def crossing_free(flat_pairs):
    """No two pairs cross: the definition, on any flat pairs."""
    pairs = sorted(flat_pairs)
    return not any(i < k < j < l for (i, j), (k, l) in itertools.combinations(pairs, 2))


def looked_up(under, structure):
    """The sorted flat pairs of ``structure`` under the flattening ``under``,
    looked up base by base."""
    return sorted(tuple(sorted((under.flat(a), under.flat(b)))) for a, b in structure.pairs)


@pytest.mark.parametrize("a,b,expected", [
    ("A", "T", True), ("T", "A", True), ("A", "U", True), ("C", "G", True),
    ("G", "C", True), ("A", "A", False), ("G", "T", False), ("G", "U", False),
    ("C", "T", False), ("A", "C", False),
])
def test_complementary(a, b, expected):
    assert complementary(a, b) is expected


class TestValidation:
    def test_ok(self):
        s = sys_of("ACGT")
        assert validate_structure(s, flat(s, [(1, 4), (2, 3)])) is None

    def test_reused_base(self):
        s = sys_of("ACGT")
        bad = SecondaryStructure.from_refs(s, [((1, 1), (1, 4)), ((1, 1), (1, 3))])
        msg = validate_structure(s, bad)
        assert msg is not None and "more than one pair" in msg

    def test_not_complementary(self):
        s = sys_of("ACGT")
        msg = validate_structure(s, flat(s, [(1, 2)]))
        assert msg is not None and "not complementary" in msg

    def test_out_of_range(self):
        s = sys_of("ACGT")
        out = SecondaryStructure(frozenset({(BaseRef(1, 1), BaseRef(1, 9))}))
        msg = validate_structure(s, out)
        assert msg is not None and "out of range" in msg

    def test_reversed_pair(self):
        # one pair set, two orientations: only the canonical one is valid
        for s, canon in ((sys_of("GGCC"), [(1, 4)]), (sys_of("GG", "CC"), [(2, 3)])):
            ok = flat(s, canon)
            rev = SecondaryStructure(frozenset((b, a) for a, b in ok.pairs))
            assert ok != rev and validate_structure(s, ok) is None
            (a, b), = ok.pairs
            msg = validate_structure(s, rev)
            assert msg is not None and "reversed" in msg and f"({b}, {a})" in msg


    @pytest.mark.parametrize("pair, message", [
        (((1, 2), (1, 2)), "pair (BaseRef(strand=1, index=2), BaseRef(strand=1, index=2)) "
                           "joins a base to itself"),
        (((1, 1), (3, 1)), "base BaseRef(strand=3, index=1) names an unknown strand"),
    ], ids=["self-pair", "unknown-strand"])
    def test_refused_pair(self, pair, message):
        s = sys_of("ACGT")
        st = SecondaryStructure(frozenset({tuple(BaseRef(*ref) for ref in pair)}))
        assert validate_structure(s, st) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Strand(1, ""), "strand 1 has an empty sequence"),
    (lambda: StrandSystem(()), "a strand system needs at least one strand"),
    (lambda: StrandSystem((Strand(1, "AC"), Strand(1, "GU"))), "duplicate strand ids in [1, 1]"),
    (lambda: sys_of("AC", "GU").strand_by_id(3), "no strand with id 3"),
    (lambda: StructureSpace(pairing="wobble"), "unknown pairing rule 'wobble'"),
    (lambda: StructureSpace(min_hairpin=-1), "min_hairpin must be >= 0"),
], ids=["empty-strand", "no-strands", "duplicate-ids", "missing-id", "pairing", "min-hairpin"])
def test_refused_input(build, message):
    with pytest.raises(InvalidInput) as raised:
        build()
    assert str(raised.value) == message


class TestPseudoknots:
    """Crossing pairs, through the ordering search and ``place``."""

    def test_nested_ok(self):
        s = sys_of("GGCC")
        assert is_unpseudoknotted_multi(s, flat(s, [(1, 4), (2, 3)])) == (True, (1,))
        assert place(s, flat(s, [(1, 4), (2, 3)]), (1,))[1] == [(1, 4), (2, 3)]

    def test_crossing(self):
        s = sys_of("GGCC")
        assert is_unpseudoknotted_multi(s, flat(s, [(1, 3), (2, 4)])) == (False, None)
        with pytest.raises(InvalidInput, match="pseudoknotted under this ordering"):
            place(s, flat(s, [(1, 3), (2, 4)]), (1,))

    def test_empty(self):
        s = sys_of("GGCC")
        assert is_unpseudoknotted_multi(s, EMPTY_STRUCTURE) == (True, (1,))

    def test_multi_reordering_recovers(self):
        # crossing under ordering 1,3,2,4 disappears under 1,2,3,4
        s = sys_of("GG", "CC", "GG", "CC")
        pairs = [((1, 1), (2, 2)), ((1, 2), (2, 1)), ((3, 1), (4, 2)), ((3, 2), (4, 1))]
        st = SecondaryStructure.from_refs(s, pairs)
        crossed = looked_up(Flattening(s, (1, 3, 2, 4)), st)
        assert not crossing_free(crossed)
        with pytest.raises(InvalidInput, match="pseudoknotted under this ordering"):
            place(s, st, (1, 3, 2, 4))
        ok, witness = is_unpseudoknotted_multi(s, st)
        assert ok and witness == (1, 2, 3, 4)

    def test_multi_single_strand(self):
        s = sys_of("ACGT")
        ok, witness = is_unpseudoknotted_multi(s, flat(s, [(1, 4), (2, 3)]))
        assert ok and witness == (1,)

    def test_multi_knotted_everywhere(self):
        # parallel inter-strand pairs cross in the only circular ordering of
        # two strands (its rotation is the same ordering)
        s = sys_of("AC", "TG")
        st = SecondaryStructure.from_refs(s, [((1, 1), (2, 1)), ((1, 2), (2, 2))])
        ok, witness = is_unpseudoknotted_multi(s, st)
        assert not ok and witness is None


class TestConnectivity:
    def test_two_strands_empty(self):
        assert not flattening(sys_of("GC", "GC")).connected([])

    def test_single_strand_empty(self):
        assert flattening(sys_of("ACGT")).connected([])

    def test_bridge(self):
        s = sys_of("GC", "GC")
        assert flattening(s).connected(
            SecondaryStructure.from_refs(s, [((1, 1), (2, 2))]).sorted_flat(s))


class TestMinHairpin:
    def test_small_loop_rejected(self):
        assert not flattening(sys_of("ACGT")).hairpins_ok([(1, 4)], 3)

    def test_zero_knob_allows(self):
        assert flattening(sys_of("ACGT")).hairpins_ok([(1, 4)], 0)

    def test_cross_nick_pair_allowed(self):
        assert flattening(sys_of("G", "C")).hairpins_ok([(1, 2)], 3)


class TestEnumeration:
    def test_no_pairable(self):
        s = sys_of("AAAA")
        assert [st.pairs for st in enumerate_structures(s, StructureSpace())] == [frozenset()]

    def test_acgt(self):
        s = sys_of("ACGT")
        got = [st.sorted_flat(s) for st in enumerate_structures(s, StructureSpace())]
        assert got == [[], [(1, 4)], [(1, 4), (2, 3)], [(2, 3)]]

    def test_ggcc_pseudoknots(self):
        assert count_structures(sys_of("GGCC"), StructureSpace(allow_pseudoknots=True)) == 7

    def test_ggcc_no_pseudoknots(self):
        assert count_structures(sys_of("GGCC"), StructureSpace(allow_pseudoknots=False)) == 6

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_structures(sys_of("GGGGGGCCCCCC"), StructureSpace(), budget=8)

    def test_deterministic_and_valid(self):
        s = sys_of("GCAU", "GC")
        space = StructureSpace(allow_pseudoknots=True)
        first = [st.sorted_flat(s) for st in enumerate_structures(s, space)]
        second = [st.sorted_flat(s) for st in enumerate_structures(s, space)]
        assert first == second
        for st in enumerate_structures(s, space):
            assert validate_structure(s, st) is None

    def test_filter_equals_restricted_space(self):
        # pruned enumeration == unrestricted enumeration filtered afterwards by
        # the reference predicates, in the same order; c >= 3 has several
        # circular orderings to prune across
        rng = random.Random(5)
        for c in (1, 2, 3, 4):
            for _ in range(8):
                s = None
                while s is None or len(candidate_pairs(s, StructureSpace())) > 26:
                    s = sys_of(*("".join(rng.choice("ACGU") for _ in range(rng.randint(1, 5)))
                                 for _ in range(c)))
                everything = list(enumerate_structures(s, StructureSpace(allow_pseudoknots=True)))
                knot_free = StructureSpace(allow_pseudoknots=False)
                assert [st.pairs for st in enumerate_structures(s, knot_free)] == \
                    [st.pairs for st in everything if is_unpseudoknotted_multi(s, st)[0]]
                ordering = tuple(rng.sample(s.ids, c))
                assert [st.pairs for st in
                        enumerate_structures(s, knot_free, fixed_ordering=ordering)] == \
                    [st.pairs for st in everything
                     if crossing_free(looked_up(flattening(s, ordering), st))]
                identity = flattening(s)
                assert [st.pairs for st in enumerate_structures(s, nn_space())] == \
                    [st.pairs for st in everything if is_unpseudoknotted_multi(s, st)[0]
                     and identity.connected(st.sorted_flat(s))
                     and identity.hairpins_ok(st.sorted_flat(s), 3)]

    def test_fixed_ordering_must_permute_the_strands(self):
        s = sys_of("GC", "GC")
        for space in (StructureSpace(allow_pseudoknots=True),
                      StructureSpace(allow_pseudoknots=False)):
            with pytest.raises(InvalidInput):
                list(enumerate_structures(s, space, fixed_ordering=(1, 3)))

    def test_cached_flattenings_equal_fresh_ones(self):
        # every Flattening the search and the energies leave in the shared
        # cache is still field-for-field what a fresh construction gives
        from exfold import strands
        from exfold.energy import BPS, nn_model, toy_params_a
        from exfold.oracles import dos_brute
        s = sys_of("GCAU", "GC", "AUGC")
        strands._cached_flattening.cache_clear()
        dos_brute(s, StructureSpace(allow_pseudoknots=False), BPS)
        dos_brute(s, nn_space(), nn_model(toy_params_a(s.n)))
        orderings = {s.ids, *s.circular_orderings()}
        info = strands._cached_flattening.cache_info()
        assert info.currsize == len(orderings)
        for ordering in orderings:
            cached = strands.flattening(s, ordering)
            assert isinstance(cached.nicks, frozenset)
            assert vars(cached) == vars(Flattening(s, ordering))
        assert strands._cached_flattening.cache_info().misses == info.misses

    def test_multi_agrees_with_single_on_one_strand(self):
        s = sys_of("GCAUGC")
        for st in enumerate_structures(s, StructureSpace(allow_pseudoknots=True)):
            single = crossing_free(st.sorted_flat(s))
            assert single == is_unpseudoknotted_multi(s, st)[0]


def reference_enumerate(system, space, budget=DEFAULT_PAIR_BUDGET, fixed_ordering=None):
    """The recursive enumerator the explicit-stack search replaced: a nested
    generator per pushed pair, re-entered through ``yield from``."""
    cands = candidate_pairs(system, space)
    if len(cands) > budget:
        raise BudgetExceeded(
            f"{len(cands)} candidate pairs exceed the enumeration budget {budget}")
    flat = flattening(system)
    cand_refs = [(flat.ref(i), flat.ref(j)) for i, j in cands]
    if fixed_ordering is not None:
        flattening(system, fixed_ordering)
    if space.allow_pseudoknots:
        orderings = []
    elif fixed_ordering is not None:
        orderings = [fixed_ordering]
    else:
        orderings = list(system.circular_orderings())
    placed = []
    for ordering in orderings:
        under = flattening(system, ordering)
        position = [0] + [under.flat(flat.ref(p)) for p in range(1, system.n + 1)]
        placed.append([tuple(sorted((position[i], position[j]))) for i, j in cands])

    chosen, pairs, occupied = [], [], set()

    def crossing_free_under(k, idx):
        at = placed[k]
        a, b = at[idx]
        for m in chosen:
            c, d = at[m]
            if (a < c < b) != (a < d < b):
                return False
        return True

    def rec(start, alive):
        if ((not space.require_connected or flat.connected(pairs))
                and flat.hairpins_ok(pairs, space.min_hairpin)):
            yield SecondaryStructure(frozenset(cand_refs[m] for m in chosen))
        for idx in range(start, len(cands)):
            i, j = cands[idx]
            if i in occupied or j in occupied:
                continue
            still = [k for k in alive if crossing_free_under(k, idx)]
            if orderings and not still:
                continue
            chosen.append(idx)
            pairs.append((i, j))
            occupied.update((i, j))
            yield from rec(idx + 1, still)
            chosen.pop()
            pairs.pop()
            occupied.difference_update((i, j))

    yield from rec(0, range(len(orderings)))


def listing(system, structures):
    return [st.sorted_flat(system) for st in structures]


def sweep_systems(rng, count, max_len, max_cands, space):
    """``count`` random systems of c <= 4 strands of 1..max_len bases with at
    most ``max_cands`` candidate pairs under ``space``."""
    while count:
        s = sys_of(*("".join(rng.choice("ACGU") for _ in range(rng.randint(1, max_len)))
                     for _ in range(rng.randint(1, 4))))
        if len(candidate_pairs(s, space)) <= max_cands:
            count -= 1
            yield s


def nick_spanning_systems(rng, count):
    """``count`` random systems of 2-3 strands with at most 20 candidate
    pairs, at least one of them closing fewer than 4 bases across a nick."""
    while count:
        s = sys_of(*("".join(rng.choice("ACGU") for _ in range(rng.randint(2, 5)))
                     for _ in range(rng.randint(2, 3))))
        cands = candidate_pairs(s, StructureSpace())
        f = flattening(s)
        if len(cands) <= 20 and any(j - i - 1 < 4 and f.nick_count(i, j - 1)
                                    for i, j in cands):
            count -= 1
            yield s


def outcome(call):
    try:
        return call()
    except InvalidInput as exc:
        return type(exc), str(exc)


class TestEnumeratedStructure:
    """A yielded structure carries its flat pairs but behaves as the
    structure of its ``BaseRef`` pairs."""

    SPACES = (StructureSpace(), StructureSpace(allow_pseudoknots=False), nn_space())

    def test_equal_to_its_rebuilt_form(self):
        s = sys_of("GCAU", "GC", "AUGC")
        for space in self.SPACES:
            for st in enumerate_structures(s, space):
                rebuilt = SecondaryStructure(st.pairs)
                assert st == rebuilt and rebuilt == st and not st != rebuilt
                assert hash(st) == hash(rebuilt) == hash((st.pairs,))
                assert repr(st) == repr(rebuilt) == f"SecondaryStructure(pairs={st.pairs!r})"
                table = {rebuilt: 1}
                table[st] += 1
                assert table == {st: 2} and table[rebuilt] == 2
                back = pickle.loads(pickle.dumps(st))
                assert back == st and hash(back) == hash(st) and back.pairs == st.pairs

    def test_immutable(self):
        st = next(itertools.islice(enumerate_structures(sys_of("GGCC"), StructureSpace()), 3, 4))
        for name in ("pairs", "_pairs", "_carried", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(st, name, frozenset())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(st, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            EMPTY_STRUCTURE.pairs = frozenset()

    def test_len_and_sorted_flat_before_pairs(self):
        s = sys_of("GCAU", "GC")
        for space in self.SPACES:
            fresh = list(enumerate_structures(s, space))
            lengths = [len(st) for st in fresh]
            flats = [st.sorted_flat(s) for st in fresh]
            assert lengths == [len(st.pairs) for st in fresh]
            assert flats == [looked_up(flattening(s), st) for st in fresh]
            assert flats == [SecondaryStructure(st.pairs).sorted_flat(s) for st in fresh]

    def test_another_system_reads_the_base_ref_pairs(self):
        from exfold.energy import BPM, BPS, energy, nn_model, toy_params_a
        s = sys_of("GGGAAACCC")
        other = StrandSystem((Strand(2, "GC"), Strand(1, "GGGAAACCC")))
        models = (BPM, BPS, nn_model(toy_params_a()))
        for st in enumerate_structures(s, nn_space()):
            rebuilt = SecondaryStructure(st.pairs)
            assert st.sorted_flat(other) == looked_up(flattening(other), st) == \
                [(i + 2, j + 2) for i, j in st.sorted_flat(s)]
            # NN raises under both: disconnected, and a base past the end of a strand
            for model, system in itertools.product(models, (other, sys_of("GGGAAAC"))):
                got, want = (outcome(lambda x=x: energy(model, system, x)) for x in (st, rebuilt))
                assert got == want

    def test_an_equal_system_takes_the_carried_paths(self, monkeypatch):
        # ``flattening`` caches by equality, so an equal system built afresh
        # shares the enumeration's flattening and its structures' carried pairs
        from exfold import strands
        from exfold.energy import load_nn_params, nn_model, toy_params_file
        from exfold.oracles import dos_brute
        seqs = ("GGGAAACCC", "GGGUUUCCC")
        first = sys_of(*seqs)
        structures = list(enumerate_structures(first, StructureSpace()))
        flats = [st.sorted_flat(first) for st in structures]
        stacks = [st.stacks(first) for st in structures]
        params = load_nn_params(toy_params_file("toy_nn_a"))
        space, model = nn_space(params.min_hairpin), nn_model(params)
        dos = dos_brute(first, space, model)
        fresh = sys_of(*seqs)
        assert flattening(fresh).system is not fresh

        def refuse(*args):
            raise AssertionError("the slow path ran")

        monkeypatch.setattr(strands, "validate_structure", refuse)
        assert dos_brute(fresh, space, model) == dos
        monkeypatch.setattr(strands, "flattening", refuse)
        assert [st.sorted_flat(fresh) for st in structures] == flats
        assert [st.stacks(fresh) for st in structures] == stacks


class TestEnumerationReference:
    """The explicit-stack search yields the reference's structures in the
    reference's order, on spaces and systems beyond the acceptance range."""

    @pytest.mark.parametrize("pairing,max_len,count", [
        ("complementary", 6, 40), ("all", 3, 25)])
    def test_same_order_as_reference(self, pairing, max_len, count):
        rng = random.Random(9)
        for s in sweep_systems(rng, count, max_len, 26, StructureSpace(pairing=pairing)):
            # the unrestricted spaces come first: every structure is admissible
            for connected, min_hairpin, pk in itertools.product(
                    (False, True), range(4), (True, False)):
                space = StructureSpace(pk, connected, min_hairpin, pairing)
                for ordering in (None, tuple(rng.sample(s.ids, s.c))):
                    want = list(reference_enumerate(s, space, fixed_ordering=ordering))
                    got = enumerate_structures(s, space, fixed_ordering=ordering)
                    # one item past the reference's end bounds a search that repeats
                    got = list(itertools.islice(got, len(want) + 1))
                    assert listing(s, got) == listing(s, want)
                    assert [st.pairs for st in got] == [st.pairs for st in want]

    def test_closed_early_leaves_no_state(self):
        s = sys_of("GCAUGC", "AUGC")
        for space in (StructureSpace(), StructureSpace(allow_pseudoknots=False),
                      nn_space()):
            want = listing(s, reference_enumerate(s, space))
            assert len(want) > 5
            gen = enumerate_structures(s, space)
            assert listing(s, itertools.islice(gen, 5)) == want[:5]
            gen.close()
            assert listing(s, enumerate_structures(s, space)) == want

    def test_pruned_knot_free_spaces_same_order_as_reference(self):
        # a knot-free space with a minimum hairpin drops its too-short
        # same-strand candidates before the search; the reference keeps them
        rng = random.Random(13)
        singles = [sys_of("ACGUACGUAGCUAGCAUG")] + [
            sys_of("".join(rng.choice("ACGU") for _ in range(rng.randint(12, 18))))
            for _ in range(3)]
        across = list(nick_spanning_systems(rng, 12))
        knot_free = [nn_space()] + [StructureSpace(False, connected, min_hairpin)
                                    for connected in (False, True)
                                    for min_hairpin in range(1, 5)]
        knotted = [StructureSpace(True, connected, min_hairpin)
                   for connected in (False, True) for min_hairpin in range(1, 5)]
        cases = ([(s, space, None) for s in singles for space in knot_free]
                 + [(s, space, ordering) for s in across for space in knot_free + knotted
                    for ordering in (None, tuple(rng.sample(s.ids, s.c)))])
        for s, space, ordering in cases:
            want = listing(s, reference_enumerate(s, space, fixed_ordering=ordering))
            got = enumerate_structures(s, space, fixed_ordering=ordering)
            assert listing(s, itertools.islice(got, len(want) + 1)) == want

    def test_budget_counts_the_pruned_candidates(self):
        s = sys_of("ACGUACGUAGCUAGCAUG")
        total = len(candidate_pairs(s, nn_space()))
        assert total == len(candidate_pairs(s, StructureSpace()))
        with pytest.raises(BudgetExceeded) as got:
            next(enumerate_structures(s, nn_space(), budget=total - 1))
        assert str(got.value) == \
            f"{total} candidate pairs exceed the enumeration budget {total - 1}"
        assert count_structures(s, nn_space(), budget=total) == 378

    def test_errors_are_raised_on_the_first_next(self):
        s = sys_of("GGGGGGCCCCCC")
        gen = enumerate_structures(s, StructureSpace(), budget=8)
        with pytest.raises(BudgetExceeded) as got:
            next(gen)
        with pytest.raises(BudgetExceeded) as want:
            next(reference_enumerate(s, StructureSpace(), budget=8))
        assert str(got.value) == str(want.value)
        s = sys_of("GC", "GC")
        for space in (StructureSpace(), StructureSpace(allow_pseudoknots=False)):
            gen = enumerate_structures(s, space, fixed_ordering=(1, 3))
            with pytest.raises(InvalidInput) as got:
                next(gen)
            with pytest.raises(InvalidInput) as want:
                next(reference_enumerate(s, space, fixed_ordering=(1, 3)))
            assert str(got.value) == str(want.value)


class TestCounts:
    def matching_total(self, n):
        # structures over a complete pairing graph: partial matchings of K_n
        return sum(math.comb(n, 2 * k) * math.prod(range(2 * k - 1, 0, -2))
                   for k in range(n // 2 + 1))

    @pytest.mark.parametrize("n,expected", [(3, 4), (4, 10), (5, 26)])
    def test_all_pairable_counts(self, n, expected):
        s = sys_of("A" * n)
        assert count_structures(s, StructureSpace(pairing="all")) == expected
        assert expected == self.matching_total(n)

    def test_counts_below_factorial(self):
        rng = random.Random(40)
        for _ in range(60):
            n = rng.randint(3, 9)
            s = sys_of("".join(rng.choice("ACGT") for _ in range(n)))
            assert count_structures(s, StructureSpace(allow_pseudoknots=True)) \
                < math.factorial(n)


class TestOrderings:
    def test_circular_count(self):
        import math
        for c in (1, 2, 3, 4):
            s = sys_of(*(["GC"] * c))
            assert len(list(s.circular_orderings())) == math.factorial(c - 1)

    def test_orderings_past_the_budget_are_refused(self):
        knot_free = StructureSpace(allow_pseudoknots=False)
        assert len(list(sys_of(*"A" * 8).circular_orderings())) == ORDERING_BUDGET == 7 * 720
        nine = sys_of(*"GCGCGCGCG")
        st = SecondaryStructure.from_refs(nine, [(BaseRef(1, 1), BaseRef(2, 1))])
        for search in (nine.circular_orderings, lambda: is_unpseudoknotted_multi(nine, st),
                       lambda: place(nine, st),
                       lambda: next(enumerate_structures(nine, knot_free))):
            with pytest.raises(BudgetExceeded) as raised:
                search()
            assert str(raised.value) == \
                "9 strands have 8! circular orderings, over the budget of 5040"
        # a pseudoknotted space and a fixed ordering read no circular ordering
        for space, fixed in ((StructureSpace(), None), (knot_free, nine.ids)):
            assert next(enumerate_structures(nine, space, fixed_ordering=fixed)) \
                == EMPTY_STRUCTURE


class TestStrandSystemHash:
    def test_equal_systems_share_their_hash_and_flattenings(self):
        a = sys_of("GCAU", "GC")
        b = StrandSystem((Strand(1, "GCAU"), Strand(2, "GC")))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != sys_of("GCAU", "GU") and a != sys_of("GC", "GCAU")
        assert flattening(a) is flattening(b)
        assert flattening(a, (2, 1)) is flattening(b, (2, 1))
        assert a.ids == (1, 2)
        assert StrandSystem((Strand(3, "A"), Strand(1, "C"))).ids == (3, 1)

    def test_pickle_rehashes_under_another_hash_seed(self):
        # str hashes are salted per process: a system pickled under one seed
        # must be hashed afresh where it is loaded
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        make = "from exfold.strands import StrandSystem; s = StrandSystem.from_sequences('GCAU', 'GC')"
        dump = subprocess.run(
            [sys.executable, "-c", f"import pickle; {make}; print(pickle.dumps(s).hex())"],
            env=dict(env, PYTHONHASHSEED="1"), capture_output=True, text=True, timeout=60,
            check=True)
        load = subprocess.run(
            [sys.executable, "-c",
             f"import pickle, sys; {make}; t = pickle.loads(bytes.fromhex(sys.stdin.read())); "
             "print(t == s, hash(t) == hash(s), s in {t}, t.ids)"],
            input=dump.stdout, env=dict(env, PYTHONHASHSEED="2"), capture_output=True,
            text=True, timeout=60, check=True)
        assert load.stdout.split() == ["True", "True", "True", "(1,", "2)"]


class TestParsing:
    def test_parse(self):
        system = parse_strands("# two strands\nACGT\n\ngcau  # lower ok\n")
        assert system.c == 2
        assert system.strands[0].sequence == "ACGT"
        assert system.strands[1].sequence == "GCAU"
        assert system.ids == (1, 2)

    def test_parse_empty(self):
        with pytest.raises(InvalidInput):
            parse_strands("# nothing\n")

    def test_bad_base(self):
        with pytest.raises(InvalidInput):
            parse_strands("ACGX")

    def test_nicks(self):
        from exfold.strands import Flattening
        f = Flattening(sys_of("AC", "GT", "A"))
        assert f.nicks == {2, 4}
        assert f.nick_count(2, 4) == 2
        assert f.nick_count(3, 3) == 0
        assert f.nick_count(5, 4) == 0
