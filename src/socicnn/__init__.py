"""Input-convex networks with quadratic and norm branches.

The forward pass of every model in this package is provably the optimal
value of a small cone program; the certificate module verifies that claim
exactly, the training module fits models to convex targets under matched
parameter budgets, and the decisions module scores them on parametric
convex optimization tasks.
"""

__version__ = "0.1.0"

from .model import (
    ACTIVATIONS,
    RELU,
    SOFTPLUS,
    BranchParams,
    ConstraintError,
    DimensionError,
    ForwardTrace,
    LayerParams,
    SocIcnnParams,
    affine_block,
    batch_forward,
    count_forward_flops,
    count_parameters,
    forward,
    from_json_dict,
    from_structured_class,
    init_model,
    load_model,
    max_infeasibility,
    project_feasible,
    save_model,
    spawn_rng,
    to_json_dict,
)
from .gradients import (
    finite_difference_check,
    input_subgradient,
    parameter_gradients,
    value_and_input_gradient_batch,
)
from .certificate import (
    DiagnosticsReport,
    DualCertificate,
    LpLift,
    UnsupportedActivationError,
    build_lp_lift,
    diagnostics_report,
    extract_dual_certificate,
    run_verification_trials,
    simplex_lp_solve,
    socp_oracle_value,
    summarize_reports,
)
from .targets import (
    TARGET_NAMES,
    TargetFunction,
    make_target,
    target_values_and_subgradients,
    target_values_batch,
)
from .training import (
    VARIANTS,
    Dataset,
    TrainConfig,
    anchor_width,
    build_variant_model,
    fit_variant_to_target,
    relative_l2_error,
    sample_uniform_dataset,
    train,
    variant_param_count,
)
from .decisions import (
    FAMILIES,
    DecisionReport,
    FeasibleSet,
    ParametricTask,
    capped_simplex,
    evaluate_decision_quality,
    make_task,
    minimize_task,
    pgd_minimize,
    project_onto,
    sample_context,
    task_objective,
)
from .theory import (
    MaxAffine,
    absorption_rate_rows,
    build_tangent_max_affine,
    cpwl_piece_lower_bound,
    loglog_slope,
    midpoint_grid,
)
