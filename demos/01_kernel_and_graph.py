"""Kernel geometry and similarity-graph construction on a toy line of points.

Walks through the squared-exponential kernel, the constant feature norm, the
three graph constructions, and uniform edge sampling.
"""

import numpy as np

import gkm
from gkm.kernel import gram

spec = gkm.KernelSpec(sigma_f=1.0, sigma_l=1.0)

# three points on a line, the first labeled; the first two are close:
# a = 0.0, b = 1.0 and c = 10.0 at feature index 1
points = gkm.Points.from_rows([[(1, 0.0)], [(1, 1.0)], [(1, 10.0)]])
dataset = gkm.Dataset(points, np.array([1, 0, 0], dtype=np.int8))

K = gram(spec, *dataset.dense())
print("K(a, a) =", K[0, 0], "(always sigma_f^2)")
print("K(a, b) =", K[0, 1])
print("K(a, c) =", K[0, 2], "(far apart, nearly zero)")
print("feature norms ||Phi(x)|| = K(x, x)^(1/2):", np.sqrt(np.diagonal(K)), "(all sigma_f)")

full = gkm.build_fully_connected(dataset, gkm.GraphSpec("full", sigma_s=1.0))
print("\nfully connected: |E| =", full.n_edges)

knn = gkm.build_knn(dataset, gkm.GraphSpec("knn", sigma_s=1.0, k=1))
print("1-NN union edges:", [(int(u), int(v)) for u, v in zip(knn.us, knn.vs)])

eps = gkm.build_eps(dataset, gkm.GraphSpec("eps", sigma_s=1.0, epsilon=1.5))
print("eps = 1.5 edges:", [(int(u), int(v)) for u, v in zip(eps.us, eps.vs)])

rng = np.random.default_rng(0)
us, vs, _ = full.sample_batch(rng, 8)
print("\nuniform draws from the implicit universe:", list(zip(us.tolist(), vs.tolist())))

us, vs, _ = full.sample_batch(rng, 100_000)
freq = np.unique(us * dataset.n + vs, return_counts=True)[1] / 100_000
print("empirical edge frequencies (should be ~1/|E| each):", freq.round(4))
