"""End-to-end run on the 550-point, 50-dimensional two-Gaussian stand-in.

Hides 80% of the labels, fits with the hinge loss over a coarse C grid, and
reports transductive accuracy on the hidden points against the 95% accuracy
ceiling the construction allows.
"""

import numpy as np

import gkm
from gkm.losses import LossSpec, SmoothnessSpec
from gkm.optimizer import TrainConfig, decision_values, train

sep = gkm.separation_for_bayes_accuracy(0.95)
full = gkm.synth_two_gaussians(550, 50, sep, seed=0)
print(f"dataset: n = {full.n}, dim = {full.dense()[0].shape[1]}, Bayes accuracy 0.95 by construction")

sigma_l = 2.4
kernel = gkm.KernelSpec(1.0, sigma_l)

rows = []
for C in [2.0**k for k in range(-3, 4)]:
    accs = []
    for seed in range(5):
        hidden, truth = gkm.hide_labels(full, 0.8, seed=seed)
        graph = gkm.build_fully_connected(hidden, gkm.GraphSpec("full", sigma_l))
        cfg = TrainConfig(
            C=C, C_prime=0.1, loss=LossSpec("hinge"), smoothness=SmoothnessSpec(2.0),
            T=5000, seed=seed,
        )
        model, _ = train(hidden, graph, cfg, kernel)
        unlabeled = np.arange(hidden.labeled_count, hidden.n)
        sub = truth.subset(unlabeled)
        dec = decision_values(model, sub.points)
        accs.append(float(np.mean(np.where(dec >= 0, 1, -1) == sub.labels)))
    rows.append((C, float(np.median(accs))))
    print(f"C = {C:6.3f}: median accuracy over 5 hidden-label draws = {rows[-1][1]:.4f}")

best_C, best_acc = max(rows, key=lambda r: r[1])
print(f"\nbest: C = {best_C:g} with median accuracy {best_acc:.4f}")
