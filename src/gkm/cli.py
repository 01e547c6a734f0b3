"""Command-line interface.

Subcommands: train, predict, eval, bounds, labelprop, graph export, synth,
converge. Exit codes: 0 success, 1 bounds condition violated, 2 validation
error, 3 reference optimum not converged.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import data as data_mod
from . import graph as graph_mod
from . import harness, labelprop, optimizer
from .exceptions import GkmError, NotConvergedError
from .kernel import KernelSpec
from .losses import LOSS_KINDS, LossSpec, SmoothnessSpec

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3


def _add_graph_flags(p):
    p.add_argument("--graph", choices=graph_mod.GRAPH_KINDS, default="full")
    p.add_argument("--k", type=int, default=5, help="neighbor count for knn graphs")
    p.add_argument("--radius", type=float, default=1.0, help="distance cutoff for eps graphs")
    p.add_argument("--sigma-s", type=float, default=None,
                   help="edge weight bandwidth (default: sigma_l)")


def _add_problem_flags(p):
    """Kernel, graph, loss, seed and label-hiding flags of train and converge."""
    p.add_argument("--sigma-f", type=float, default=1.0, help="kernel output scale")
    p.add_argument("--sigma-l", type=float, default=1.0, help="kernel length-scale")
    _add_graph_flags(p)
    p.add_argument("--loss", choices=list(LOSS_KINDS), default="hinge")
    p.add_argument("--tau", type=float, default=0.5, help="smooth-hinge corner width")
    p.add_argument("--epsilon", type=float, default=0.1, help="eps-insensitive tube")
    p.add_argument("--p", type=float, default=2.0, help="smoothness exponent")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--C-prime", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    hide = p.add_mutually_exclusive_group()
    hide.add_argument("--hide-fraction", type=float, default=None)
    hide.add_argument("--hide-mask", default=None, help="file of 0-based indices to unlabel")


def _graph_spec(args) -> graph_mod.GraphSpec:
    sigma_s = args.sigma_s if args.sigma_s is not None else args.sigma_l
    return graph_mod.GraphSpec(
        kind=args.graph, sigma_s=sigma_s, k=args.k, epsilon=args.radius
    )


def _training_problem(args):
    """Dataset (labels hidden as the flags ask), kernel and graph."""
    dataset, _ = data_mod.load_libsvm(args.data)
    if args.hide_fraction:
        dataset, _ = data_mod.hide_labels(dataset, args.hide_fraction, args.seed)
    elif args.hide_mask:
        dataset, _ = data_mod.apply_mask(dataset, data_mod.load_mask(args.hide_mask))
    kernel = KernelSpec(args.sigma_f, args.sigma_l)
    return dataset, kernel, graph_mod.build_graph(dataset, _graph_spec(args))


def _train_config(args, loss: str, p: float, **fields) -> optimizer.TrainConfig:
    """The TrainConfig of the shared problem flags with this loss and p."""
    return optimizer.TrainConfig(
        C=args.C, C_prime=args.C_prime, loss=LossSpec(loss, tau=args.tau, epsilon=args.epsilon),
        smoothness=SmoothnessSpec(p), seed=args.seed, **fields,
    )


def _cmd_train(args) -> int:
    dataset, kernel, graph = _training_problem(args)
    T = args.T if args.T is not None else optimizer.default_iterations(dataset.n)
    every = args.diagnostics_every if args.diagnostics_every is not None else T
    config = _train_config(args, args.loss, args.p, T=T, diagnostics_every=every,
                           objective_mode=args.objective_mode)
    report = bounds_mod.compute_bounds(
        args.C, args.C_prime, args.p, R=kernel.sigma_f, A=kernel.sigma_f
    )
    if not report.condition_holds:
        print("warning: rate condition violated for this configuration; "
              "training proceeds without the certified bounds", file=sys.stderr)
    model, diag = optimizer.train(dataset, graph, config, kernel)
    if args.model_out:
        optimizer.save_model(model, args.model_out)
        print(f"model written to {args.model_out}")
    if args.trace_out:
        harness.write_trace(diag, args.trace_out)
        print(f"trace written to {args.trace_out}")
    print(f"trained {T} iterations on n={dataset.n} (l={dataset.labeled_count}), "
          f"support {model.support.size} of {dataset.n}, "
          f"final J={float(diag.trace_j_avg[-1])!r}")
    if report.condition_holds:
        print(f"max||w_t||/M={diag.max_norm_w / report.M!r} "
              f"max||g_t||/G={diag.max_norm_g / report.G!r}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = optimizer.load_model(args.model_in)
    dataset, perm = data_mod.load_libsvm(args.data)
    preds = optimizer.predict_batch(model, dataset.points)[perm.argsort()]  # file order
    data_mod.write_lines(args.out, (f"{int(p):+d}" for p in preds))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = optimizer.load_model(args.model_in)
    dataset, _ = data_mod.load_libsvm(args.data)
    report = harness.evaluate(model, dataset)
    print(f"accuracy {report.accuracy!r}")
    print(f"f1 {report.f1!r}")
    print(f"confusion tp={report.tp} fp={report.fp} tn={report.tn} fn={report.fn}")
    print(f"wall_time {report.wall_time:.6f}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    R = args.sigma_f
    A = args.A if args.A is not None else R
    report = bounds_mod.compute_bounds(args.C, args.C_prime, args.p, R=R, A=A)
    for line in report.as_lines():
        print(line)
    if report.condition_holds and args.eps is not None:
        t0 = bounds_mod.min_iterations(args.eps, args.delta, report.G)
        print(f"T0 {t0}")
    return EXIT_OK if report.condition_holds else EXIT_VIOLATED


def _cmd_labelprop(args) -> int:
    edges = graph_mod.read_edges(args.edges)
    problem = labelprop.PropagationProblem(edges, data_mod.load_labels(args.labels))
    f = labelprop.solve_exact(problem)
    hard = labelprop.threshold_labels(f)
    data_mod.write_lines(args.out, (f"{repr(float(fi))} {int(yi):+d}" for fi, yi in zip(f, hard)))
    return EXIT_OK


def _cmd_graph_export(args) -> int:
    dataset, perm = data_mod.load_libsvm(args.data)
    graph = graph_mod.build_graph(dataset, _graph_spec(args))
    graph_mod.write_edges(graph, args.out, perm)  # vertex i is the i-th data record
    print(f"{graph.n_edges} edges written to {args.out}")
    return EXIT_OK


def _separation_for_accuracy(text: str) -> float:
    """--bayes-accuracy read as the separation that gives it."""
    try:
        return data_mod.separation_for_bayes_accuracy(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_synth(args) -> int:
    dataset = data_mod.synth_two_gaussians(args.n, args.dim, args.separation, args.seed)
    data_mod.save_libsvm(dataset, args.out)
    print(f"{args.n} points (dim {args.dim}, separation {args.separation!r}) "
          f"written to {args.out}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    dataset, kernel, graph = _training_problem(args)
    configs = [_train_config(args, loss, float(p), T=1)
               for loss in args.losses.split(",") for p in args.p_list.split(",")]
    T_grid = [int(x) for x in args.T_grid.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    runs = harness.run_convergence_experiment(
        dataset, graph, configs, T_grid, seeds, kernel
    )
    harness.write_convergence_csv(runs, args.out)
    print(f"convergence table written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="Graph-regularized kernel machine: primal SGD training "
        "with executable convergence bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on sparse-format data")
    p.add_argument("data")
    _add_problem_flags(p)
    p.add_argument("--T", type=int, default=None, help="iterations (default 0.2n/n rule)")
    p.add_argument("--diagnostics-every", type=int, default=None)
    p.add_argument("--objective-mode", choices=optimizer.OBJECTIVE_MODES, default="auto")
    p.add_argument("--model-out", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    p.add_argument("data")
    p.add_argument("--model-in", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate a saved model on labeled data")
    p.add_argument("data")
    p.add_argument("--model-in", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bounds", help="print the bound report for a configuration")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--C-prime", type=float, required=True)
    p.add_argument("--sigma-f", type=float, default=1.0)
    p.add_argument("--A", type=float, default=None, help="gradient bound (default R)")
    p.add_argument("--eps", type=float, default=None, help="also print T0 for this precision")
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("labelprop", help="exact label propagation on an edge list")
    p.add_argument("edges", help="edge file: 'i j weight' per line, 1-based")
    p.add_argument("labels", help="label file: one of -1/0/+1 per vertex line")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_labelprop)

    p_graph = sub.add_parser("graph", help="graph utilities")
    sub_graph = p_graph.add_subparsers(dest="graph_command", required=True)
    p = sub_graph.add_parser("export", help="build a graph and write its edge list")
    p.add_argument("data")
    _add_graph_flags(p)
    p.add_argument("--sigma-l", type=float, default=1.0, help="fallback for sigma_s")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph_export)

    p = sub.add_parser("synth", help="write a synthetic two-Gaussian dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--separation", type=float)
    how.add_argument("--bayes-accuracy", dest="separation", metavar="ACCURACY",
                     type=_separation_for_accuracy,
                     help="choose separation from a target Bayes accuracy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("converge", help="iteration sweep of the scaled gap")
    p.add_argument("data")
    _add_problem_flags(p)
    p.add_argument("--losses", default="hinge,logistic")
    p.add_argument("--p-list", default="1,2,3")
    p.add_argument("--T-grid", default="500,2000,8000")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (GkmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
