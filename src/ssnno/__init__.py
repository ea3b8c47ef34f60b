"""State-space neural network identification with variance-ordered states.

Trains recurrent state-space models whose state variances come out sorted in
decreasing order, reads a reduced model order off the variance profile,
builds the reduced model without retraining, and closes the loop with an
EKF-based MPC on a CSTR benchmark plant.
"""

from .core_model import (
    ActivationKind,
    DivergenceError,
    LayerParams,
    ModelDimensionError,
    SsnnArchitecture,
    SsnnModel,
    Trajectory,
    VarianceStats,
    flatten_params,
    is_variance_ordered,
    layer_forward,
    load_model,
    output_map,
    random_model,
    rollout,
    save_model,
    simulate,
    state_step,
    unflatten_params,
    variance_stats,
)
from .training import (
    BaselineMode,
    LossBreakdown,
    LossWeights,
    TrainConfig,
    TrainReport,
    loss,
    loss_gradient,
    permuted_loss_check,
    repair_variance_ordering,
    train,
)
from .permutation import PermutationIndex, permute_model, variance_sort_index
from .reduction import (
    ReducedModel,
    SignificanceReport,
    VarianceOrderingError,
    classify_states,
    load_reduced,
    reduce,
    reduced_simulate,
    save_reduced,
)
from .benchmark import (
    CstrParams,
    Dataset,
    SimConfig,
    cstr_derivative,
    generate_dataset,
    generate_input,
    plant_step,
    simulate_plant,
)
from .estimation_control import (
    ClosedLoopLog,
    EkfConfig,
    EkfState,
    MpcConfig,
    MpcSolution,
    ReferencePair,
    closed_loop_run,
    default_ekf_config,
    default_mpc_config,
    ekf_step,
    model_jacobians,
    mpc_solve,
    quarterly_targets,
    solve_steady_state,
)

__version__ = "0.1.0"
