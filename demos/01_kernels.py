"""Tour of the covariance kernels and their canonical text form."""

import numpy as np

from pvgp import kernels
from pvgp.kernels import KernelSpec

# the stationary families at a few scaled distances (unit lengthscale),
# each a row of kernels.main_matrix between the origin and those distances
r = np.array([[0.0], [0.5], [1.0], [2.0], [4.0]])
families = [
    KernelSpec("se"),
    KernelSpec("rq", alpha=2.0),
    KernelSpec("matern", nu=0.5),
    KernelSpec("matern", nu=2.5),
]
table = np.vstack([kernels.main_matrix(spec, [[0.0]], r)[0] for spec in families]).T
print("scaled distance   se        rq(a=2)   matern12  matern52")
for d, row in zip(r[:, 0], table):
    print(f"{d:15.1f}   " + "  ".join(f"{v:8.5f}" for v in row))

# the periodic warp: one solar day is 288 five-minute steps
periodic = kernels.parse("periodic(matern12; h=1.0, ls=[1.0], w=1.0, T=288.0)")
lags = np.array([0, 36, 72, 144, 216, 288, 432])
values = kernels.main_matrix(periodic, [[0.0]], lags[:, None].astype(float))[0]
print("\ntime lag (steps)  periodic-matern12(w=1, T=288)")
for lag, v in zip(lags, values):
    print(f"{lag:16d}  {v:8.5f}")

# a composite spec and its round-tripping text form
spec = kernels.parse("periodic(matern12; h=2.0, ls=[1.0, 0.3], w=0.8, T=288.0) + whitenoise(sigma2=0.05)")
print("\nparsed spec:", spec.to_text())
assert kernels.parse(spec.to_text()) == spec

# Gram matrices stay positive semidefinite
rng = np.random.default_rng(0)
X = np.column_stack([np.sort(rng.uniform(0, 600, 15)), rng.uniform(0, 1, 15)])
K = kernels.main_matrix(spec, X, X, same_samples=True) + spec.noise_variance * np.eye(15)
print(f"15x15 Gram: min eigenvalue = {np.linalg.eigvalsh(K).min():.2e} (trace {np.trace(K):.2f})")
