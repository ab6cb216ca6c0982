"""exfold: exactly-verifiable nucleic-acid secondary-structure
thermodynamics.

Brute-force reference oracles for MFE / PF / dMFE / dPF / level counting
under three energy models, the oracle-reduction map between those problems
in exact rational arithmetic, candidate energy-level algorithms including a
multistranded count dynamic program, and hardness-instance generators with
parsimonious-counting verifiers.

``import exfold`` loads only ``strands`` and ``energy``.  Every other public
name (``_EXPORTS``) imports its submodule on first access and is then cached
here.  ``energy`` is bound eagerly: it is both a submodule and the function,
and the first import of ``exfold.energy`` would rebind the name to the
module.
"""

from importlib import import_module as _import_module

from .energy import energy

_MODULES = {
    "exactmath": "DuplicateNodes VandermondeSystem rat_to_str solve_vandermonde",
    "strands": """BaseRef BudgetExceeded BudgetViolation EMPTY_STRUCTURE Flattening
        InvalidInput OracleInconsistency SecondaryStructure Strand StrandSystem
        StructureSpace candidate_pairs complementary
        count_structures enumerate_structures is_unpseudoknotted_multi nn_space
        parse_strands read_strand_file validate_structure""",
    "energy": """BPM BPS EnergyModel Loop NNEnergyDetail NNParams decompose_loops
        dump_nn_params energy energy_nn_detail load_nn_params
        nn_model parse_nn_params rotational_symmetry
        toy_params_a toy_params_b toy_params_file""",
    "oracles": "DensityOfStates OracleHandle check_base dos_brute make_oracle pf_decimal",
    "levels": """LevelSet augment_symmetry candidate_levels levels_bpm levels_bps
        levels_nn_dp levels_nn_grid nn_level_counts""",
    "reductions": """ReductionTranscript dmfe_via_dpf dmfe_via_mfe dos_via_pf dpf_via_pf
        magnified_separation_holds mfe_via_dmfe mfe_via_ssel pf_via_dpf
        pf_via_ssel ssel_via_pf""",
    "hardness": """BPSInstance FourPartitionConstruction FourPartitionInstance
        ParsimonyReport ThreeDMInstance count_3dm_brute count_4part_brute
        count_bps_auto count_bps_brute count_bps_chains gen_4part_from_3dm
        gen_bps_from_4part verify_parsimony_4part verify_parsimony_bps""",
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # a submodule nothing has imported yet
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
