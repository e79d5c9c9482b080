"""Feasibility analysis and exact finite-block simulation of quantum key
distribution against individual (factorized-measurement) attacks."""

from .channels import (
    DEFAULT_DIM_BUDGET,
    CqEnsemble,
    QuantumChannel,
    apply,
    identity_channel,
    marginal,
    push_through,
    tensor_power,
)
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .information import (
    ConditionReport,
    OptimizationResult,
    OptimizerConfig,
    accessible_information,
    c1,
    c_k,
    classical_advantage,
    holevo_capacity,
    holevo_chi,
    mutual_information,
    quantum_condition,
    shannon_entropy,
)
from .measurements import (
    ClassicalChannel,
    Povm,
    expand,
    helstrom,
    induced_channel,
    pretty_good_measurement,
    random_rank1_povm,
)
from .scenarios import (
    ScenarioFormatError,
    bsc_pair,
    load_scenario,
    orthogonal,
    paper_example,
    save_scenario,
)
from .simulation import (
    Codebook,
    EveStrategy,
    KeySimReport,
    Scenario,
    SweepCell,
    bob_decoder,
    eve_default_strategy,
    eve_optimize,
    evaluate,
    repetition_codebook,
    sample_codebook,
    sweep,
)
from .states import (
    DensityOperator,
    StateVector,
    TensorFactorization,
    permute_factors,
    pure_state,
)

__version__ = "0.1.0"
