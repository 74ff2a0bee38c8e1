"""Ensemble quantum computation on defective periodic 1D lattices.

Simulates second-quantized lattice states under translation-invariant
operations only: pair transfers, a global a/b rotation, collisional
phases, cyclic pointer shifts, and emptying channels.  On top of the
primitives sit the self-organization (formatting) and repair protocols,
pointer-steered logical gates, and Monte Carlo yield statistics.
"""

__version__ = "0.1.0"

from .lattice import (
    M_MAX,
    BasisConfig,
    MixedState,
    OccupationOverflowError,
    PureState,
    SiteOccupancy,
    classical,
)
from .primitives import (
    ABRotation,
    Collide,
    CountP,
    DefectSplit,
    EmptyB,
    EmptyP,
    PairTransfer,
    Script,
    ScriptParseError,
    Shift,
    WSwap,
    apply_classical,
    execute,
)
from .protocols import (
    RepairReport,
    StrayAtomsError,
    create_defects_script,
    depopulate_script,
    format_script,
    oracle_computers,
    oracle_homes,
    prepare_script,
    repair_occupations,
    repair_round_script,
    sample_defect_creation,
    verify_formatted,
)
from .gates import (
    ControlPhasePi,
    GateLeakageError,
    HadamardLike,
    MeasureQubit,
    PhaseGate,
    compile_macro,
    computer_config,
    extract_logical_unitary,
    hadamard_phase_correction,
    involved_qubits,
    macros_from_json_obj,
    macros_to_json_obj,
    matrix_to_json_obj,
    measure_qubit,
    run_circuit,
)
from .stats import (
    FillDistribution,
    RepairExperimentReport,
    YieldReport,
    count_computers_oracle,
    count_computers_protocol,
    expected_yield,
    monte_carlo_yield,
    repair_experiment,
    repaired_yield,
    sample_occupations,
    trial_seeds,
)
