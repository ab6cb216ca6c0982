import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from exfold.strands import (
    EMPTY_STRUCTURE,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
    flattening,
    nn_space,
    validate_structure,
)
from exfold.energy import (
    BPM,
    BPS,
    SIZE_TABLES,
    EnergyModel,
    NNParams,
    decompose_loops,
    dump_nn_params,
    energy,
    energy_nn_detail,
    load_nn_params,
    nn_model,
    parse_nn_params,
    rotational_symmetry,
    round_log_multiple,
    toy_params_a,
    toy_params_b,
    toy_params_file,
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
        # pairs against the flat order are refused, as validate_structure does
        reversed_pairs = SecondaryStructure(frozenset(
            (b, a) for a, b in flat(s, [(1, 4), (2, 3)]).pairs))
        for model in (BPM, BPS):
            with pytest.raises(InvalidInput, match="is reversed"):
                energy(model, s, reversed_pairs)

    def test_a_base_in_two_pairs_is_refused(self):
        s = sys_of("GGAAACCCCC")
        twice = flat(s, [(1, 10), (2, 9), (2, 8)])
        message = validate_structure(s, twice)
        assert message == "base BaseRef(strand=1, index=2) appears in more than one pair"
        for model in (BPM, BPS, nn_model(toy_params_a(s.n))):
            with pytest.raises(InvalidInput) as raised:
                energy(model, s, twice)
            assert str(raised.value) == message

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
        assert flattening(s, (1, 2)).symmetry_order == 2
        assert rotational_symmetry(s, (1, 2), st) == 2

    def test_distinct_sequences(self):
        s = sys_of("AT", "GC")
        assert flattening(s, (1, 2)).symmetry_order == 1
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
        # stack -1, hairpin(4) +1: two stacks plus the loop give -1 total;
        # every size table explicit up to n - 2 = 8, the largest loop here
        s = sys_of("GGGAAAACCC")
        unit = NNParams(
            stack={k: -1 for k in toy_params_a(10).stack},
            hairpin={m: 2 if m == 3 else 1 for m in range(3, 9)},
            bulge={m: 0 for m in range(1, 9)}, interior_size={m: 0 for m in range(2, 9)},
            interior_asym={m: 0 for m in range(9)},
            mismatch={k: 0 for k in toy_params_a(10).mismatch},
        )
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
        # every size table explicit up to n - 2 = 7, the largest loop here
        s = sys_of("GCGCAAAGC")
        zero = NNParams(
            stack={k: 0 for k in toy_params_a(9).stack},
            hairpin={m: 0 for m in range(3, 8)}, bulge={m: 0 for m in range(1, 8)},
            interior_size={m: 0 for m in range(2, 8)}, interior_asym={m: 0 for m in range(8)},
            mismatch={k: 0 for k in toy_params_a(9).mismatch},
        )
        space = StructureSpace(allow_pseudoknots=False, require_connected=True,
                               min_hairpin=3)
        for st in enumerate_structures(s, space):
            assert energy(nn_model(zero), s, st, s.ids) == 0


class TestModelWrapper:
    """Magnification lives in the oracle: the j-magnified model scales each
    level of the density of states by j, so its PF weighs a quantum by
    base**j, as ``pf(j)`` and ``dpf`` at that weight do."""

    @pytest.mark.parametrize("kind, message", [
        ("xyz", "unknown energy model kind 'xyz'"),
        ("nn", "the nn model needs a parameter set"),
    ])
    def test_refused(self, kind, message):
        with pytest.raises(InvalidInput) as raised:
            EnergyModel(kind)
        assert str(raised.value) == message

    def test_magnified_bpm(self):
        s = sys_of("ACGT")
        st = flat(s, [(1, 4), (2, 3)])
        assert energy(BPM, s, st) == -2
        oracle = make_oracle(s, StructureSpace(allow_pseudoknots=True), BPM, F(2))
        assert oracle.mfe() == -2 and oracle.ssel(-2) == 1
        # levels -2, -1, 0 of the 3-magnified model weigh 8**2, 8, 1
        assert oracle.pf(3) == 64 + 2 * 8 + 1 == oracle.dos.pf(F(8))
        assert oracle.dpf(F(81), F(8)) and not oracle.dpf(F(82), F(8))

    def test_bps_passthrough(self):
        s = sys_of("GGCC")
        assert energy(BPS, s, flat(s, [(1, 4), (2, 3)])) == -1

    def test_magnified_nn(self):
        s = sys_of("GGGAAAACCC")
        model = nn_model(toy_params_a(10))
        base = energy(model, s, flat(s, [(1, 10), (2, 9), (3, 8)]))
        oracle = make_oracle(s, nn_space(), model, F(2))
        assert oracle.ssel(base) >= 1 and oracle.mfe() <= base
        assert oracle.pf(2) == sum((oracle.ssel(g) * F(4) ** -g for g in oracle.dos.counts),
                                   F(0)) == oracle.dos.pf(F(4))

    def test_fractional_magnification_integrality(self):
        oracle = make_oracle(sys_of("ACGT"), StructureSpace(allow_pseudoknots=True),
                             BPM, F(2))
        for j in (F(1, 2), 0.5, -1):
            with pytest.raises(InvalidInput, match="magnification must be a non-negative"):
                oracle.pf(j)
        assert oracle.pf(0) == 4 and oracle.pf(2) == 25

    def test_magnification_preserves_argmin_and_counts(self):
        rng = random.Random(3)
        for _ in range(10):
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(3, 7)))
            oracle = make_oracle(sys_of(seq), StructureSpace(allow_pseudoknots=True),
                                 BPM, F(2))
            dos = oracle.dos
            assert all(oracle.ssel(g) == c for g, c in dos.counts.items())
            assert sum(oracle.ssel(g) for g in range(dos.mfe(), 1)) == dos.total()
            assert oracle.mfe() == dos.mfe() and oracle.dmfe(dos.mfe())
            assert not oracle.dmfe(dos.mfe() - 1)
            # the 3-magnified PF: each structure at weight 8 per quantum
            assert oracle.pf(3) == sum((c * F(8) ** -g for g, c in dos.counts.items()), F(0))


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

    def test_the_digit_bound(self):
        # at most 4300 digits of numerator and denominator, Python's default
        # int-to-text limit: past it dump_nn_params could not write the value
        for line in ("assoc = " + "9" * 4300, "assoc = -" + "9" * 4300, "assoc = 1e4299",
                     "kbt = 1/" + "9" * 4300, "kbt = 3e-4299", "kbt = 3/2"):
            params = parse_nn_params(f"[global]\n{line}\n")
            assert parse_nn_params(dump_nn_params(params)) == params
        for line in ("assoc = 1e5000", "assoc = 1e4300", "assoc = 1e100000",
                     "assoc = " + "9" * 4301, "assoc = -" + "9" * 5000,
                     "kbt = 1/" + "9" * 4301, "kbt = 1e-5000", "kbt = 1." + "0" * 4300 + "1"):
            key = line.split()[0]
            with pytest.raises(InvalidInput) as raised:
                parse_nn_params(f"[global]\n{line}\n")
            assert str(raised.value) == \
                f"parameter file line 2: [global] {key} has more than 4300 digits"

    @pytest.mark.parametrize("name, toy", [("toy_nn_a", toy_params_a),
                                           ("toy_nn_b", toy_params_b)])
    def test_shipped_files_and_toy_sets_share_one_anchor(self, name, toy):
        # the files are explicit up to 16 and toy(n) up to the loops of n
        # bases, each continued from its own top: all give every size the
        # same energy, also where toy(n) is cut below the file's top
        shipped = load_nn_params(toy_params_file(name))
        assert max(shipped.hairpin) == 16
        for n in [*range(1, 21), 64]:
            params = toy(n)
            for table in SIZE_TABLES:
                sizes = range(min(getattr(shipped, table)), 81)
                assert [params.size_entry(table, m) for m in sizes] \
                    == [shipped.size_entry(table, m) for m in sizes], (n, table)

    def test_extrapolation_is_invisible_to_equality_and_dump(self):
        for name in ("toy_nn_a", "toy_nn_b"):
            params = load_nn_params(toy_params_file(name))
            text, before = dump_nn_params(params), repr(params)
            assert params.size_entry("hairpin", 40) == params.size_entry("hairpin", 40)
            assert params.size_entry("interior_asym", 30) > params.interior_asym[14]
            assert dump_nn_params(params) == text and repr(params) == before
            assert parse_nn_params(text) == params == load_nn_params(toy_params_file(name))

    def test_size_entry_rule_and_missing_sizes(self):
        params = NNParams(kbt=F(2), hairpin={3: 1, 5: 2}, bulge={})
        coef = F(7, 4) * 2
        assert params.size_entry("hairpin", 9) \
            == 2 + round_log_multiple(coef, 9, F(1)) - round_log_multiple(coef, 5, F(1))
        for table, m, what in (("hairpin", 2, "hairpin"), ("hairpin", 4, "hairpin"),
                               ("bulge", 1, "bulge"), ("interior_asym", 0, "interior asymmetry")):
            with pytest.raises(InvalidInput, match=f"^missing {what} parameter entry for {m}$"):
                params.size_entry(table, m)

    def test_finalize_extends_tables(self):
        params = toy_params_b(20)
        assert max(params.hairpin) >= 20
        assert max(params.bulge) >= 20

    @pytest.mark.parametrize("name, toy", [("toy_nn_a", toy_params_a),
                                           ("toy_nn_b", toy_params_b)])
    def test_shipped_files_are_the_dumped_toy_sets(self, name, toy):
        # each file is in canonical form, and its tables stop at the loops of 16 bases
        path = toy_params_file(name)
        text = Path(path).read_text()
        assert dump_nn_params(load_nn_params(path)) == text == dump_nn_params(toy())

    # the first 12 hex digits of sha256(dump_nn_params(toy(n))), pinned from the
    # sets as they were built in code before the shipped files became their source
    TOY_DUMPS = {
        "a": {5: "23c392f4e698", 12: "f905f55508af", 16: "8f1f262ce829", 20: "ac3011ff2a65",
              40: "21720b8ebc7c"},
        "b": {5: "21495fa18714", 12: "809026372469", 16: "53107f0e71aa", 20: "cd25f01a43a6",
              40: "7a12b700dec5"},
    }

    @pytest.mark.parametrize("name, n", [(name, n) for name in "ab" for n in (5, 12, 16, 20, 40)])
    def test_toy_sets_are_pinned(self, name, n):
        toy = toy_params_a if name == "a" else toy_params_b
        digest = hashlib.sha256(dump_nn_params(toy(n)).encode()).hexdigest()
        assert digest[:12] == self.TOY_DUMPS[name][n]

    @pytest.mark.parametrize("toy", [toy_params_a, toy_params_b])
    def test_an_edited_toy_set_leaves_the_next_one_unchanged(self, toy):
        before = dump_nn_params(toy(12))
        edited = toy(12)
        edited.stack[("G", "G", "C", "C")] = edited.hairpin[3] = 99
        for table in ("mismatch", "bulge", "interior_size", "interior_asym"):
            getattr(edited, table).clear()
        assert dump_nn_params(toy(12)) == before

    def test_defaults_come_from_the_fields(self):
        assert parse_nn_params("") == NNParams()
        assert parse_nn_params("[global]\nkbt = 2\n[hairpin]\n3 = 1\n") \
            == NNParams(kbt=F(2), hairpin={3: 1})

    # parameter file -> how it is refused: each message names the line and the key
    REFUSED = {
        "[global]\ndelta = 1\nasoc = 2\n": "line 3: unknown key [global] asoc",
        "[multi]\nini = 3\n": "line 2: unknown key [multi] ini",
        "[global]\ntemperature = 310/1\n": "line 2: unknown key [global] temperature",
        "[stak]\nGCGC = -3\n": "line 1: unknown section [stak]",
        "[stack]\nGCGC = -3\n\ngcgc = 5\n": "line 4: [stack] gcgc is given twice",
        "[interior.size]\n2 = 1\n02 = 1\n": "line 3: [interior.size] 02 is given twice",
        "[global]\nkbt = 1\n[global]\nkbt = 2\n": "line 4: [global] kbt is given twice",
        "[stack]\nGXGC = -3\n": "line 2: [stack] GXGC is not 4 bases from ACGTU",
        "[mismatch]\nGCG = 1\n": "line 2: [mismatch] GCG is not 4 bases from ACGTU",
        "[hairpin]\nthree = 1\n": "line 2: [hairpin] three is not a non-negative integer size",
        "[bulge]\n-1 = 1\n": "line 2: [bulge] -1 is not a non-negative integer size",
        "[global]\nassoc = x\n": "line 2: [global] assoc is not a rational: 'x'",
        "[multi]\nbp = 1/2\n": "line 2: [multi] bp must be an integer number of quanta",
        "[global]\ndelta = 1/0\n": "[global] delta has a zero denominator: '1/0'",
    }

    @pytest.mark.parametrize("text", REFUSED, ids=lambda text: text.split("\n")[-2])
    def test_refused_with_the_line_and_the_key(self, text):
        with pytest.raises(InvalidInput) as raised:
            parse_nn_params(text)
        assert str(raised.value).endswith(self.REFUSED[text])

    def test_negative_min_hairpin_is_refused(self):
        with pytest.raises(InvalidInput, match="min_hairpin >= 0"):
            NNParams(min_hairpin=-2)
        with pytest.raises(InvalidInput, match="min_hairpin >= 0"):
            parse_nn_params("[global]\nmin_hairpin = -2\n")
        assert parse_nn_params("[global]\nmin_hairpin = 0\n").min_hairpin == 0


# small alphabets for generated parameter files: real and misspelt sections
# and keys, bad letters, case repeats, zero denominators and negative sizes
PARAM_LINES = st.one_of(
    st.sampled_from(["global", "multi", "stack", "mismatch", "hairpin", "bulge",
                     "interior.size", "interior.asym", "stak", "GLOBAL", ""]).map("[{}]".format),
    st.tuples(st.sampled_from(["delta", "kbt", "assoc", "min_hairpin", "temperature", "init",
                               "bp", "nt", "ini", "GCGC", "gcgc", "GXGC", "AU", "3", "03",
                               "-3", "three", "0", ""]),
              st.sampled_from(["1", "-2", "0", "3/2", "2/4", "1/0", "x", "-1", ""]))
    .map("{0[0]} = {0[1]}".format),
    st.sampled_from(["", "# note", "junk", "=", "3 = 1 # trailing"]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(PARAM_LINES, max_size=12))
@example(["[hairpin]", "three = 1"])
@example(["[stack]", "GCGC = -3", "gcgc = 5"])
def test_generated_parameter_files_parse_or_are_bad_input(lines):
    """Any text parses to a set that dumps and reads back equal, or raises
    InvalidInput; no other exception escapes."""
    try:
        params = parse_nn_params("\n".join(lines))
    except InvalidInput:
        return
    assert parse_nn_params(dump_nn_params(params)) == params
