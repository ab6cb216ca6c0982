"""The flat-pair cores against BaseRef reference implementations.

The reference functions below compute on ``BaseRef`` pairs (or, for the face
nicks, scan every nick of the flattening), the way the library did before
its predicates and energy models moved to sorted flat pairs.  Random
systems go beyond the acceptance range: up to four strands, repeated
strands, both toy parameter sets and random strand orderings.
"""

import importlib
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from exfold.strands import (
    BaseRef,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    StructureSpace,
    candidate_pairs,
    enumerate_structures,
    flattening,
    is_unpseudoknotted_multi,
    nn_space,
)
from exfold.energy import (
    BPM,
    BPS,
    Loop,
    NNEnergyDetail,
    decompose_loops,
    energy,
    energy_nn_detail,
    interior_like_energy,
    nn_model,
    rotational_symmetry,
    round_log_multiple,
    toy_params_a,
    toy_params_b,
)
from exfold.oracles import dos_brute

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)
PARAMS = {"a": toy_params_a(16), "b": toy_params_b(16)}


@st.composite
def systems(draw, max_n=10):
    """One to four strands drawn from a pool of at most three sequences, so
    repeated strands are common."""
    pool = draw(st.lists(st.text(alphabet="GCAU", min_size=1, max_size=5),
                         min_size=1, max_size=3))
    seqs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    assume(sum(map(len, seqs)) <= max_n)
    return StrandSystem.from_sequences(*seqs)


# ---------------------------------------------------------------------------
# BaseRef references


def ref_stack_count(structure):
    partner = {}
    for a, b in structure.pairs:
        partner[a], partner[b] = b, a
    return sum(1 for a, b in partner.items()
               if (a.strand, a.index + 1) != b
               and partner.get(BaseRef(a.strand, a.index + 1)) == (b.strand, b.index - 1)) // 2


def ref_face(flat, loop):
    """(free bases, nicks) of a face: a scan of its spans and of every nick."""
    lo, hi = loop.closing or (0, len(flat.sequence) + 1)
    spans, prev = [], lo
    for d, e in loop.children:
        spans.append((prev + 1, d - 1))
        prev = e
    spans.append((prev + 1, hi - 1))
    free = sum(max(0, b - a + 1) for a, b in spans)
    nicks = sum(1 for p in flat.nicks
                if lo <= p <= hi - 1 and not any(d <= p < e for d, e in loop.children))
    return free, nicks + (loop.closing is None)


def ref_loop_energy(loop, flat, params):
    """A face's NN energy, by the kind its ``Loop`` record names."""
    if loop.kind == "exterior":
        return 0
    (i, j), kids, free = loop.closing, loop.children, loop.free_bases
    if loop.kind == "hairpin":
        return params.size_entry("hairpin", free)
    if loop.kind == "multiloop":
        return params.multi_init + (len(kids) + 1) * params.multi_bp + free * params.multi_nt
    return interior_like_energy(flat, i, *kids[0], j, params)


def ref_symmetry_order(system, ordering):
    """v(pi) as the largest order c / gcd(c, k) of a rotation by k strand
    slots that maps every strand onto one with an identical sequence."""
    seqs = [system.strand_by_id(t).sequence for t in ordering]
    c = len(seqs)
    return max((c // gcd(c, k) for k in range(1, c)
                if all(seqs[i] == seqs[(i + k) % c] for i in range(c))), default=1)


def ref_symmetry(system, ordering, structure):
    """Map each strand slot onto the slot c/R further on, base by base."""
    ordering = tuple(ordering)
    c = len(ordering)
    v = ref_symmetry_order(system, ordering)
    under = flattening(system, ordering)
    pairs = {tuple(sorted((under.flat(a), under.flat(b)))) for a, b in structure.pairs}
    starts, pos = {}, 1
    for t in ordering:
        starts[t] = pos
        pos += len(system.strand_by_id(t))
    best = 1
    for r in range(2, v + 1):
        if v % r or c % r:
            continue
        mapping = {}
        for slot, t in enumerate(ordering):
            u = ordering[(slot + c // r) % c]
            if system.strand_by_id(t).sequence != system.strand_by_id(u).sequence:
                break
            for i in range(len(system.strand_by_id(t))):
                mapping[starts[t] + i] = starts[u] + i
        else:
            if {tuple(sorted((mapping[i], mapping[j]))) for i, j in pairs} == pairs:
                best = r
    return best


def ref_connected(system, structure):
    parent = {sid: sid for sid in system.ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in structure.pairs:
        parent[find(a.strand)] = find(b.strand)
    return len({find(sid) for sid in system.ids}) == 1


def ref_min_hairpin_ok(system, structure, min_hairpin):
    paired = {ref for pair in structure.pairs for ref in pair}
    for a, b in structure.pairs:
        if a.strand != b.strand:
            continue
        lo, hi = sorted((a.index, b.index))
        if hi - lo - 1 < min_hairpin and all(
                BaseRef(a.strand, i) not in paired for i in range(lo + 1, hi)):
            return False
    return True


# ---------------------------------------------------------------------------
# energies, faces and symmetry


class TestAgainstBaseRefReferences:
    @PROPERTY_SETTINGS
    @given(systems(max_n=12))
    def test_bps_energy_is_minus_the_stack_count(self, s):
        for structure in enumerate_structures(s, StructureSpace(allow_pseudoknots=True)):
            assert energy(BPS, s, structure) == -ref_stack_count(structure)

    @PROPERTY_SETTINGS
    @given(systems(), st.randoms(use_true_random=False), st.sampled_from("ab"))
    def test_faces_symmetry_and_nn_energy(self, s, rng, name):
        params = PARAMS[name]
        ordering = tuple(rng.sample(s.ids, s.c))
        space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                               min_hairpin=params.min_hairpin)
        for structure in enumerate_structures(s, space, fixed_ordering=ordering):
            flat = flattening(s, ordering)
            loops = decompose_loops(s, ordering, structure)
            assert [ref_face(flat, loop) for loop in loops] == \
                [(loop.free_bases, loop.nick_count) for loop in loops]
            r = ref_symmetry(s, ordering, structure)
            assert rotational_symmetry(s, ordering, structure) == r
            detail = energy_nn_detail(s, ordering, structure, params)
            assert detail.symmetry_order == r
            assert detail.loops_quanta == sum(ref_loop_energy(loop, flat, params)
                                              for loop in loops)
            assert energy(nn_model(params), s, structure, ordering) == detail.total

    @PROPERTY_SETTINGS
    @given(systems(), st.sampled_from("ab"))
    def test_nn_energy_without_ordering_uses_the_first_crossing_free_one(self, s, name):
        model = nn_model(PARAMS[name])
        for structure in enumerate_structures(s, nn_space()):
            witness = is_unpseudoknotted_multi(s, structure)[1]
            assert energy(model, s, structure) == \
                energy_nn_detail(s, witness, structure, model.params).total


# ---------------------------------------------------------------------------
# the carried flat form


def outcome(model, system, structure, ordering):
    try:
        return energy(model, system, structure, ordering)
    except InvalidInput as exc:
        return type(exc), str(exc)


MODELS = (BPM, BPS, nn_model(PARAMS["a"]), nn_model(PARAMS["b"]))


class TestCarriedFlatForm:
    """``energy`` of an enumerated structure, which may take the enumerator's
    flat pairs and witness ordering, equals ``energy`` of the same pairs
    rebuilt as a plain ``SecondaryStructure``: the same answer, or the same
    exception type and message."""

    @PROPERTY_SETTINGS
    @given(systems(max_n=8), st.booleans(), st.booleans(), st.integers(0, 3),
           st.sampled_from(("complementary", "all")), st.randoms(use_true_random=False),
           st.booleans())
    def test_fast_path_equals_checked_path(self, s, pk, connected, min_hairpin, pairing,
                                           rng, fixed):
        space = StructureSpace(pk, connected, min_hairpin, pairing)
        ordering = tuple(rng.sample(s.ids, s.c)) if fixed else None
        orderings = [None, *s.circular_orderings()] + ([ordering] if fixed else [])
        for structure in enumerate_structures(s, space, fixed_ordering=ordering):
            rebuilt = SecondaryStructure(structure.pairs)
            for model in MODELS:
                for tried in orderings if model.kind == "nn" else [None]:
                    assert outcome(model, s, structure, tried) == \
                        outcome(model, s, rebuilt, tried)

    def test_bps_counts_under_the_identity_ordering(self):
        # (1, 5), (2, 4), (3, 7) is crossing-free only under (1, 3, 2), whose
        # nicks differ from the identity ordering's
        s = StrandSystem.from_sequences("GC", "GGC", "GC")
        witnesses = set()
        for structure in enumerate_structures(s, StructureSpace(allow_pseudoknots=False)):
            witnesses.add(is_unpseudoknotted_multi(s, structure)[1])
            assert energy(BPS, s, structure) == \
                energy(BPS, s, SecondaryStructure(structure.pairs)) == \
                -ref_stack_count(structure)
        assert witnesses == {(1, 2, 3), (1, 3, 2)}

    @pytest.mark.parametrize("strands, space, error", [
        (("GGGAAACCC", "GC"), StructureSpace(allow_pseudoknots=False),
         "structure is disconnected"),
        (("GGGAAACCC", "GC"), StructureSpace(allow_pseudoknots=False, pairing="all"),
         "is not complementary"),
        (("GGGAAACCC",), StructureSpace(allow_pseudoknots=True),
         "admits no crossing-free ordering"),
    ])
    def test_nn_errors(self, strands, space, error):
        s = StrandSystem.from_sequences(*strands)
        model = nn_model(PARAMS["a"])
        seen = set()
        for structure in enumerate_structures(s, space):
            got = outcome(model, s, structure, None)
            assert got == outcome(model, s, SecondaryStructure(structure.pairs), None)
            seen.add(got[1] if isinstance(got, tuple) else "ok")
        assert any(error in message for message in seen) and "ok" in seen


# ---------------------------------------------------------------------------
# scoring without per-structure records


def attempt(compute):
    try:
        return compute()
    except InvalidInput as exc:
        return type(exc), str(exc)


def ref_nn_terms(system, ordering, structure, params):
    """(loop, association and symmetry quanta, symmetry order) of the NN
    energy, face by face: each pair's face is found by walking its span
    through a partner map and its nicks by scanning every nick; the loops
    are scored in sorted order of their closing pairs."""
    under = flattening(system, ordering)
    partner = {}
    for a, b in structure.pairs:
        i, j = sorted((under.flat(a), under.flat(b)))
        partner[i], partner[j] = j, i
    loops = 0
    for i in sorted(p for p, q in partner.items() if p < q):
        j, p, kids, free = partner[i], i + 1, [], 0
        while p < j:
            if p in partner:
                kids.append((p, partner[p]))
                p = partner[p]
            else:
                free += 1
            p += 1
        if any(i <= q < j and not any(d <= q < e for d, e in kids) for q in under.nicks):
            continue  # an exterior loop
        if not kids:
            if free < params.min_hairpin:
                raise InvalidInput(f"hairpin of size {free} is geometrically prohibited")
            loops += params.size_entry("hairpin", free)
        elif len(kids) == 1:
            loops += interior_like_energy(under, i, *kids[0], j, params)
        else:
            loops += params.multi_init + (len(kids) + 1) * params.multi_bp + free * params.multi_nt
    r = ref_symmetry(system, ordering, structure)
    sym = round_log_multiple(params.kbt, r, params.delta) if r > 1 else 0
    return loops, (system.c - 1) * params.assoc, sym, r


# stack, hairpin, bulge and mismatch entries missing, so that loops of each
# kind raise, and the first to raise decides the error
SPARSE = replace(PARAMS["a"], hairpin={5: 2}, bulge={},
                 stack={k: v for k, v in PARAMS["a"].stack.items() if k[0] != "A"},
                 mismatch={k: v for k, v in PARAMS["a"].mismatch.items() if k[1] != "U"})
NN_PARAMS = dict(PARAMS, sparse=SPARSE)


def check_nn_against_reference(s, ordering, structure, params):
    """``energy`` and ``energy_nn_detail`` against ``ref_nn_terms``: the same
    terms, or the same first error; the symmetry order, or None on error."""
    want = attempt(lambda: ref_nn_terms(s, ordering, structure, params))
    got = attempt(lambda: energy(nn_model(params), s, structure, ordering))
    detail = attempt(lambda: energy_nn_detail(s, ordering, structure, params))
    if isinstance(want[0], type):
        assert got == detail == want
        return None
    loops, assoc, sym, r = want
    assert got == loops + assoc + sym
    assert detail == NNEnergyDetail(loops, assoc, r, sym, r > 1)
    return r


@st.composite
def nicked_systems(draw, max_n=14):
    """Two to four strands cut from one sequence of up to ``max_n`` bases."""
    seq = draw(st.text(alphabet="GCAU", min_size=2, max_size=max_n))
    cuts = draw(st.sets(st.integers(1, len(seq) - 1), min_size=1, max_size=3))
    ends = [0, *sorted(cuts), len(seq)]
    return StrandSystem.from_sequences(*(seq[a:b] for a, b in zip(ends, ends[1:])))


class TestRecordFreeScoring:
    """``energy`` scores an enumerated structure from its flat pairs alone:
    the NN face walk builds no ``Loop`` and no ``NNEnergyDetail``, and the
    BPS stack count builds no set."""

    def test_dos_brute_builds_no_records(self, monkeypatch):
        s = StrandSystem.from_sequences("GGACA", "UGUCC")
        model = nn_model(toy_params_a(s.n))
        want = {kind: dos_brute(s, space, m).counts for kind, space, m in
                (("nn", nn_space(), model), ("bps", StructureSpace(), BPS))}
        structure = max(enumerate_structures(s, nn_space()), key=len)
        assert all(isinstance(loop, Loop) for loop in decompose_loops(s, s.ids, structure))
        assert isinstance(energy_nn_detail(s, s.ids, structure, model.params), NNEnergyDetail)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-structure record was built")
        module = importlib.import_module("exfold.energy")
        monkeypatch.setattr(module, "Loop", refuse)
        monkeypatch.setattr(module, "NNEnergyDetail", refuse)
        assert dos_brute(s, nn_space(), model).counts == want["nn"]
        assert dos_brute(s, StructureSpace(), BPS).counts == want["bps"]
        with pytest.raises(AssertionError, match="record"):
            decompose_loops(s, s.ids, structure)
        with pytest.raises(AssertionError, match="record"):
            energy_nn_detail(s, s.ids, structure, model.params)

    @PROPERTY_SETTINGS
    @given(systems(), st.randoms(use_true_random=False), st.sampled_from(sorted(NN_PARAMS)),
           st.integers(0, 3), st.integers(0, 3))
    def test_nn_energy_equals_a_per_face_reference(self, s, rng, name, min_hairpin, enumerated):
        params = replace(NN_PARAMS[name], min_hairpin=min_hairpin)
        ordering = tuple(rng.sample(s.ids, s.c))
        space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                               min_hairpin=enumerated)
        for structure in enumerate_structures(s, space, fixed_ordering=ordering):
            check_nn_against_reference(s, ordering, structure, params)
            check_nn_against_reference(s, ordering, SecondaryStructure(structure.pairs), params)

    @pytest.mark.parametrize("strands, top", [
        (("GC", "GC"), 2), (("GGCC", "GGCC"), 2), (("AU", "AU", "AU"), 3),
        (("GC", "GC", "GC", "GC"), 4), (("GAC", "GUC", "GAC", "GUC"), 2), (("CG", "CG", "GC"), 1),
    ])
    def test_repeated_strands_reach_their_symmetry_order(self, strands, top):
        s = StrandSystem.from_sequences(*strands)
        orders = set()
        for ordering in s.circular_orderings():
            assert flattening(s, ordering).symmetry_order == ref_symmetry_order(s, ordering)
            for name, params in NN_PARAMS.items():
                for min_hairpin in range(4):
                    space = StructureSpace(allow_pseudoknots=False, require_connected=True)
                    for structure in enumerate_structures(s, space, fixed_ordering=ordering):
                        orders.add(check_nn_against_reference(
                            s, ordering, structure, replace(params, min_hairpin=min_hairpin)))
        assert max(orders - {None}) == top

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(nicked_systems())
    def test_bps_stack_count_equals_a_set_based_count(self, s):
        space = StructureSpace(allow_pseudoknots=True)
        assume(len(candidate_pairs(s, space)) <= 24)
        nicks = flattening(s).nicks
        fresh = StrandSystem.from_sequences(*(strand.sequence for strand in s.strands))
        for structure in enumerate_structures(s, space):
            pairs = structure.sorted_flat(s)
            have = set(pairs)
            want = sum(1 for i, j in pairs if (i + 1, j - 1) in have
                       and i not in nicks and j - 1 not in nicks)
            assert structure.stacks(s) == structure.stacks(fresh) == want
            assert SecondaryStructure(structure.pairs).stacks(s) == want

    def test_no_stack_across_a_nick(self):
        # (1, 6) stacks on (2, 5), and (2, 5) on (3, 4); a nick after 1 or 5
        # breaks the outer stack, after 2 or 4 the inner one, after 3 neither
        for cut, want in ((1, 1), (2, 1), (3, 2), (4, 1), (5, 1)):
            s = StrandSystem.from_sequences("GGGCCC"[:cut], "GGGCCC"[cut:])
            structure = next(st for st in enumerate_structures(s, StructureSpace())
                             if st.sorted_flat(s) == [(1, 6), (2, 5), (3, 4)])
            assert structure.stacks(s) == SecondaryStructure(structure.pairs).stacks(s) == want


# ---------------------------------------------------------------------------
# enumeration


class TestPseudoknottedEnumeration:
    @PROPERTY_SETTINGS
    @given(systems(), st.sampled_from((1, 3)), st.booleans())
    def test_filters_all_matchings(self, s, min_hairpin, connected):
        everything = list(enumerate_structures(s, StructureSpace(allow_pseudoknots=True)))
        space = StructureSpace(allow_pseudoknots=True, require_connected=connected,
                               min_hairpin=min_hairpin)
        expected = [structure.pairs for structure in everything
                    if (not connected or ref_connected(s, structure))
                    and ref_min_hairpin_ok(s, structure, min_hairpin)]
        assert [structure.pairs for structure in enumerate_structures(s, space)] == expected
        identity = flattening(s)
        for structure in everything:
            pairs = structure.sorted_flat(s)
            assert identity.connected(pairs) == ref_connected(s, structure)
            assert identity.hairpins_ok(pairs, min_hairpin) == \
                ref_min_hairpin_ok(s, structure, min_hairpin)


# ---------------------------------------------------------------------------
# the BaseRef edge


class TestUnknownBase:
    """A pair naming a base past the end of its strand is caller input error."""

    def test_flat_names_the_base(self):
        s = StrandSystem.from_sequences("GGGAAACCC")
        with pytest.raises(InvalidInput, match="index=99"):
            flattening(s).flat(BaseRef(1, 99))

    @pytest.mark.parametrize("call", [
        lambda s, st: energy(nn_model(toy_params_a(9)), s, st),
        lambda s, st: energy(nn_model(toy_params_a(9)), s, st, (1,)),
        lambda s, st: energy(BPS, s, st),
        lambda s, st: rotational_symmetry(s, (1,), st),
        lambda s, st: decompose_loops(s, (1,), st),
        lambda s, st: flattening(s).connected(st.sorted_flat(s)),
        lambda s, st: flattening(s).hairpins_ok(st.sorted_flat(s), 3),
    ])
    def test_edges_raise_invalid_input(self, call):
        s = StrandSystem.from_sequences("GGGAAACCC")
        structure = SecondaryStructure(frozenset({(BaseRef(1, 1), BaseRef(1, 99))}))
        with pytest.raises(InvalidInput, match="index=99"):
            call(s, structure)


class TestLogRounding:
    def test_near_half_integer_is_refused(self):
        with localcontext() as ctx:
            ctx.prec = 80
            coef = F(Decimal(5) / (2 * Decimal(2).ln()))  # coef * ln 2 = 2.5 + O(1e-79)
        with pytest.raises(InvalidInput, match="half-integer"):
            round_log_multiple(coef, 2, F(1))
        assert round_log_multiple(coef + F(1, 10**30), 2, F(1)) == 3
        assert round_log_multiple(coef - F(1, 10**30), 2, F(1)) == 2
