"""Thermodynamic query complexity: thermal-machine oracles queried by heat exchange.

A library + CLI that encodes Boolean functions into the energy gaps of
thermal qubit machines, queries them through heat exchanges with a probe
qubit, evaluates the analytic post-query temperatures, and quantifies the
sample complexity of reading the answer back out. Every analytic formula is
cross-checked against a brute-force diagonal-state simulator.
"""

__version__ = "0.1.0"

from .detuning import (
    ExperimentConfig,
    bv3_sweep,
    detuned_probe_temperature,
    flip_probability,
    suppression_factor,
)
from .exactsim import (
    DiagonalJointState,
    apply_level_exchange,
    apply_swap_with_machine_qubit,
    build_joint_state,
    probe_marginal,
)
from .problems import (
    BVInstance,
    DJInstance,
    PromiseViolationError,
    enumerate_balanced_functions,
    hamming_weight_population,
)
from .query import (
    QueryMask,
    QueryOutcome,
    Regime,
    classify_regime,
    kickback_outcome,
    mixed_input_query,
    reset_costs,
    sensitivity_check,
    swap_query,
)
from .readout import (
    BinaryDistribution,
    Decision,
    DistinguishabilityReport,
    HypothesisTestReport,
    chernoff_stein_samples,
    classical_sample_complexity,
    classical_with_replacement_error,
    classical_without_replacement_error,
    crossover_analysis,
    distinguishability_report,
    likelihood_ratio_test,
    monte_carlo_readout,
    relative_entropy,
    sample_bound_from_threshold,
    total_variation,
)
from .thermal import (
    BooleanFunctionTable,
    Classification,
    GapVector,
    PureStatePopulationError,
    ThermalMachineOracle,
    ThermalQubit,
    build_bv_oracle,
    build_custom_oracle,
    build_dj_oracle,
    ground_state_population,
    inverse_temperature_from_population,
)
from .verify import run_verification
