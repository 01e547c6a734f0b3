"""Graph-regularized kernel machine for semi-supervised learning.

A squared-exponential kernel classifier trained in the primal by stochastic
gradient steps over sampled labeled points and similarity-graph edges, plus
the convergence-bound machinery (iterate/gradient bounds, rate certification,
parameter selection rules) as executable checks and an exact label-propagation
oracle for small graphs.
"""

from .bounds import (
    BoundsReport,
    compute_bounds,
    bound_residual,
    max_cprime,
    min_iterations,
    recommended_sigma_f,
)
from .data import (
    Dataset,
    hide_labels,
    load_libsvm,
    save_libsvm,
    separation_for_bayes_accuracy,
    synth_two_gaussians,
)
from .exceptions import GkmError
from .graph import (
    EdgeSet,
    ExplicitEdges,
    FullyConnectedEdges,
    GraphSpec,
    build_eps,
    build_fully_connected,
    build_graph,
    build_knn,
    read_edges,
    write_edges,
)
from .harness import (
    ConvergenceRun,
    EvalReport,
    ReferenceSolution,
    evaluate,
    run_convergence_experiment,
    solve_reference_optimum,
    write_trace,
)
from .kernel import KernelSpec, Points
from .labelprop import PropagationProblem, solve_exact, threshold_labels
from .losses import (
    LossSpec,
    SmoothnessSpec,
    loss_grad_scalar,
    loss_value,
    lp_grad_scalar,
    lp_value,
)
from .optimizer import (
    Diagnostics,
    ModelState,
    TrainConfig,
    default_iterations,
    hilbert_norm,
    load_model,
    objective,
    predict_batch,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "bound_residual", "compute_bounds", "max_cprime", "min_iterations",
    "recommended_sigma_f", "Dataset", "hide_labels", "load_libsvm", "save_libsvm",
    "separation_for_bayes_accuracy", "synth_two_gaussians", "GkmError", "EdgeSet",
    "ExplicitEdges", "FullyConnectedEdges", "GraphSpec", "build_eps",
    "build_fully_connected", "build_graph", "build_knn", "read_edges", "write_edges",
    "ConvergenceRun", "EvalReport", "ReferenceSolution", "evaluate",
    "run_convergence_experiment", "solve_reference_optimum", "write_trace",
    "KernelSpec", "Points", "PropagationProblem", "solve_exact",
    "threshold_labels", "LossSpec", "SmoothnessSpec", "loss_grad_scalar", "loss_value",
    "lp_grad_scalar", "lp_value", "Diagnostics", "ModelState", "TrainConfig",
    "default_iterations", "hilbert_norm", "load_model", "objective",
    "predict_batch", "save_model", "train",
]
