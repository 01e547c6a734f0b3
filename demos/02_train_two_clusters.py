"""Semi-supervised training on two clusters with two labels total.

Hides all but one label per cluster, trains the kernel machine on the fully
connected graph, and cross-checks the unlabeled predictions against the
exact label-propagation solution of the same graph.
"""

import numpy as np

import gkm
from gkm.losses import LossSpec, SmoothnessSpec
from gkm.optimizer import TrainConfig, predict_batch, train

rng = np.random.default_rng(12)
X = np.vstack([rng.normal(0.0, 0.4, (15, 2)), rng.normal(3.5, 0.4, (15, 2))])
labels = np.array([1] * 15 + [-1] * 15, dtype=np.int8)
points = gkm.Points.from_dense(X)

hidden, truth = gkm.hide_labels(gkm.Dataset(points, labels), 28 / 30, seed=2)
print(f"n = {hidden.n}, labeled = {hidden.labeled_count}")

kernel = gkm.KernelSpec(1.0, 1.0)
graph = gkm.build_fully_connected(hidden, gkm.GraphSpec("full", sigma_s=1.0))
config = TrainConfig(
    C=1.0,
    C_prime=0.05,
    loss=LossSpec("hinge"),
    smoothness=SmoothnessSpec(2.0),
    T=5000,
    seed=0,
    diagnostics_every=1000,
)
model, diag = train(hidden, graph, config, kernel)

report = gkm.evaluate(model, truth)
print(f"accuracy {report.accuracy:.3f}, f1 {report.f1:.3f}")
print("objective trace:", [round(float(j), 4) for j in diag.trace_j_avg])

# the exact propagation solution on the same graph agrees on every
# unlabeled vertex
problem = gkm.PropagationProblem(graph, hidden.labels)
propagated = gkm.threshold_labels(gkm.solve_exact(problem))
unlabeled = np.arange(hidden.labeled_count, hidden.n)
model_preds = predict_batch(model, hidden.points[unlabeled])
agree = np.mean(model_preds == propagated[unlabeled])
print(f"agreement with the propagation oracle on unlabeled points: {agree:.0%}")
