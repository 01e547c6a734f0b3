"""The parameter-certification toolbox, then the certified bounds watched
holding live during a training run.

Shows the iterate bound M and gradient bound G, the rate-condition check,
the maximal smoothness trade-off, the recommended output scale, and the
high-probability iteration count.
"""

import gkm
from gkm.losses import LossSpec, SmoothnessSpec
from gkm.optimizer import TrainConfig, train

# a certified configuration: hinge, p = 2, unit kernel scale
report = gkm.compute_bounds(C=1.0, C_prime=0.05, p=2.0, R=1.0, A=1.0)
print("a =", report.a, "b =", report.b)
print("M =", report.M, "G =", report.G, "| condition:", report.reason)

# the same machinery refuses to certify an aggressive C'
bad = gkm.compute_bounds(C=1.0, C_prime=0.3, p=2.0, R=1.0, A=1.0)
print("C' = 0.3 certifies?", bad.condition_holds)

print("largest certified C' at p = 2, R = 1:", gkm.max_cprime(2.0, 1.0, 1.0))
print("largest certified C' at p = 3, C = 1:", gkm.max_cprime(3.0, 1.0, 1.0))

sf = gkm.recommended_sigma_f(3.0, C=1.0, C_prime=1.0)
rt = gkm.compute_bounds(1.0, 1.0, 3.0, R=sf, A=sf)
print(f"recommended sigma_f for (p=3, C=1, C'=1): {sf:.4f} -> certifies {rt.condition_holds}")

print("iterations for 0.1-precision at 95% confidence:",
      gkm.min_iterations(0.1, 0.05, report.G))

# watch the bounds hold step by step
full = gkm.synth_two_gaussians(40, 5, 3.0, seed=0)
hidden, _ = gkm.hide_labels(full, 0.8, seed=0)
graph = gkm.build_fully_connected(hidden, gkm.GraphSpec("full", 1.0))
config = TrainConfig(
    C=1.0, C_prime=0.05, loss=LossSpec("hinge"), smoothness=SmoothnessSpec(2.0),
    T=5000, seed=0,
)
_, diag = train(hidden, graph, config, gkm.KernelSpec(1.0, 1.0))
print(f"\nmax ||w_t|| over 5000 steps: {diag.max_norm_w:.4f}  (M = {report.M:.4f})")
print(f"max ||g_t|| over 5000 steps: {diag.max_norm_g:.4f}  (G = {report.G:.4f})")
