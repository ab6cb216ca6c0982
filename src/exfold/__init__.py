"""exfold: exactly-verifiable nucleic-acid secondary-structure
thermodynamics.

Brute-force reference oracles for MFE / PF / dMFE / dPF / level counting
under three energy models, the oracle-reduction map between those problems
in exact rational arithmetic, candidate energy-level algorithms including a
multistranded count dynamic program, and hardness-instance generators with
parsimonious-counting verifiers.
"""

from .exactmath import (
    DuplicateNodes,
    VandermondeSystem,
    rat_to_str,
    solve_vandermonde,
)
from .strands import (
    BaseRef,
    BudgetExceeded,
    EMPTY_STRUCTURE,
    Flattening,
    InvalidInput,
    SecondaryStructure,
    Strand,
    StrandSystem,
    StructureSpace,
    all_pairs_space,
    candidate_pairs,
    complementary,
    count_structures,
    enumerate_structures,
    is_connected,
    is_unpseudoknotted_multi,
    is_unpseudoknotted_single,
    min_hairpin_ok,
    nn_space,
    parse_strands,
    read_strand_file,
    validate_structure,
)
from .energy import (
    BPM,
    BPS,
    EnergyModel,
    Loop,
    NNEnergyDetail,
    NNParams,
    decompose_loops,
    dump_nn_params,
    energy,
    energy_nn_detail,
    finalize_params,
    load_nn_params,
    max_symmetry_order,
    nn_model,
    parse_nn_params,
    rotational_symmetry,
    toy_params_a,
    toy_params_b,
    toy_params_file,
)
from .oracles import (
    DensityOfStates,
    OracleHandle,
    check_base,
    dos_brute,
    make_oracle,
    pf_decimal,
)
from .levels import (
    LevelSet,
    augment_symmetry,
    levels_bpm,
    levels_bps,
    levels_nn_dp,
    levels_nn_grid,
    nn_level_counts,
)
from .reductions import (
    BudgetViolation,
    OracleInconsistency,
    ReductionTranscript,
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
from .hardness import (
    BPSInstance,
    FourPartitionConstruction,
    FourPartitionInstance,
    ParsimonyReport,
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

__version__ = "0.1.0"
