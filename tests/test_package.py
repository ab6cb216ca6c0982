"""The package namespace: lazily imported public names, the ``energy`` name
that is both a submodule and a function, and the submodules each CLI
subcommand loads.  Each import-order check runs in a fresh interpreter,
since this one has imported every submodule already."""

import json
import subprocess
import sys
import textwrap

import pytest

import exfold
from exfold import hardness, reductions, strands

PUBLIC = set("""
    DuplicateNodes VandermondeSystem rat_to_str solve_vandermonde
    BaseRef BudgetExceeded EMPTY_STRUCTURE Flattening InvalidInput
    SecondaryStructure Strand StrandSystem StructureSpace
    candidate_pairs complementary count_structures enumerate_structures
    is_unpseudoknotted_multi nn_space parse_strands read_strand_file
    validate_structure
    BPM BPS EnergyModel Loop NNEnergyDetail NNParams decompose_loops
    dump_nn_params energy energy_nn_detail load_nn_params
    nn_model parse_nn_params rotational_symmetry
    toy_params_a toy_params_b toy_params_file
    DensityOfStates OracleHandle check_base dos_brute make_oracle pf_decimal
    LevelSet augment_symmetry candidate_levels levels_bpm levels_bps levels_nn_dp
    levels_nn_grid nn_level_counts
    BudgetViolation OracleInconsistency ReductionTranscript dmfe_via_dpf
    dmfe_via_mfe dos_via_pf dpf_via_pf magnified_separation_holds mfe_via_dmfe
    mfe_via_ssel pf_via_dpf pf_via_ssel ssel_via_pf
    BPSInstance FourPartitionConstruction FourPartitionInstance ParsimonyReport
    ThreeDMInstance count_3dm_brute count_4part_brute count_bps_auto
    count_bps_brute count_bps_chains gen_4part_from_3dm gen_bps_from_4part
    verify_parsimony_4part verify_parsimony_bps
""".split())


def child(code: str, cwd=None) -> str:
    """Run ``code`` in a fresh interpreter, which finds this checkout's
    package through ``conftest.py``; return its stdout, failing on a
    non-zero exit."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("first", ["exfold.hardness", "exfold.oracles", "exfold.levels"])
def test_energy_is_the_function_whatever_is_imported_first(first):
    child(f"""
        import importlib, types
        import {first}
        import exfold
        from exfold import energy
        module = importlib.import_module("exfold.energy")
        assert isinstance(module, types.ModuleType), module
        assert exfold.energy is energy is module.energy, energy
        assert isinstance(energy, types.FunctionType), energy
    """)


def test_every_public_name_is_its_defining_modules_object():
    assert set(exfold.__all__) == PUBLIC
    child("""
        import sys
        import exfold
        assert "exfold.hardness" not in sys.modules
        assert exfold.hardness is sys.modules["exfold.hardness"]  # a submodule on first access
        for name in exfold.__all__:
            value = getattr(exfold, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert vars(exfold)[name] is value, name  # cached after first access
    """)


def test_dir_star_import_and_unknown_names():
    assert set(exfold.__all__) <= set(dir(exfold))
    namespace = {}
    exec("from exfold import *", namespace)
    assert all(namespace[name] is getattr(exfold, name) for name in exfold.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        exfold.no_such_name


def test_moved_names_are_the_same_objects_under_their_old_modules():
    assert hardness.DEFAULT_BPS_ENUM_BUDGET is strands.DEFAULT_BPS_ENUM_BUDGET
    assert reductions.OracleInconsistency is strands.OracleInconsistency
    assert reductions.BudgetViolation is strands.BudgetViolation


W_JSON = '{"weights": ["3", "3", "3", "3"], "bound": "12"}'


# subcommand -> submodules whose code it never runs
UNUSED = {
    "hardgen": {"oracles", "levels", "reductions"},
    "enumerate": {"hardness", "levels", "reductions", "oracles"},
    "solve": {"hardness", "levels", "reductions"},
    "levels": {"oracles", "reductions", "hardness"},
    "reduce": {"hardness"},
}


@pytest.mark.parametrize("argv", [
    ["hardgen", "bps-from-4part", "w.json"],
    ["hardgen", "verify-bps", "w.json"],
    ["enumerate", "ACGT"],
    ["solve", "ACGT", "--base", "2"],
    ["levels", "--model", "bpm", "-n", "7"],
    ["reduce", "pf-via-dpf", "GCAU", "--base", "1/2"],
], ids=" ".join)
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, argv):
    (tmp_path / "w.json").write_text(W_JSON)
    out = child(f"""
        import contextlib, io, json, sys
        from exfold import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        print(json.dumps([code, sorted(sys.modules)]))
    """, cwd=tmp_path)
    code, modules = json.loads(out)
    assert code == 0
    loaded = {name.split(".", 1)[1] for name in modules if name.startswith("exfold.")}
    assert loaded & UNUSED[argv[0]] == set()


def test_a_bare_import_loads_strands_and_energy_only():
    out = child("import json, sys, exfold; print(json.dumps(sorted(sys.modules)))")
    loaded = {name for name in json.loads(out) if name.startswith("exfold.")}
    assert loaded == {"exfold.strands", "exfold.energy"}
