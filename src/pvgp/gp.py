"""Exact Gaussian-process inference.

Prior sampling, posterior mean/covariance, log marginal likelihood and its
analytic gradient, and multi-restart hyperparameter fitting, all against
the composite kernels of :mod:`pvgp.kernels`.  Targets are centred on the
training mean and scaled by the training standard deviation internally;
kernel hyperparameters stay in target units (watts), so specs written by
hand and specs returned by the fitter are directly comparable.

Linear algebra goes through a Cholesky factorisation of the jittered Gram
matrix; only the likelihood gradient forms ``K^-1``, from that factor,
because its trace terms need every entry.  Jitter starts at
``1e-10 * mean(diag)`` and escalates tenfold up to ``1e-4`` before a
:class:`ConditioningError` is raised naming the kernel.  Noise and jitter
are added on the diagonal only, and one n x n buffer carries each
factorisation: the Gram is built into it, factorised in place, and the
factor is solved against (and, for the gradient, inverted) in that same
memory, so a posterior peaks near one n x n array.  For a posterior, a
likelihood without gradient and a prior draw only the triangle the
factorisation reads is built (row i from column i on).  One finish puts
the noise on the diagonal, divides by the target variance and checks the
entries finite: each row block of those Grams and of a posterior's cross
block gets it while in cache, and the gradient's Gram, built whole, gets
it whole.  A non-finite Gram raises ``ValueError`` naming the kernel.
Because every Gram is checked as it is built, its factor is never
rescanned: after the factorisation a posterior makes one triangular
solve, against the cross block and the targets together, which gives its
mean and its covariance.

The fitter's objective costs one factorisation per evaluation: the same
factor gives the likelihood and, through :class:`LmlGradient`, its exact
gradient ``1/2 tr((alpha alpha^T - K^-1) dK/dlog theta)`` with respect to
every free log-hyperparameter (Rasmussen & Williams 2006, section 5.4.1).
The free ones are the template's ``hyperparameters()``, bounded by one
per-field table and set from the optimiser's vector in one ``replace``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import kernels
from .kernels import KernelSpec

__all__ = [
    "TrainingSet",
    "PosteriorPrediction",
    "ConditioningError",
    "FitError",
    "build_covariance",
    "posterior",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "sample_prior",
    "LmlGradient",
]

JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-4
MAX_FIT_ITERATIONS = 200
FIT_RESTARTS = 2


class ConditioningError(RuntimeError):
    """Gram matrix could not be factorised even at maximum jitter."""


class FitError(RuntimeError):
    """No optimiser restart produced a finite objective."""


@dataclass
class TrainingSet:
    """Aligned inputs and power targets for one PV system.

    ``inputs`` is an (n, d) matrix whose column 0 is the integer-valued
    time index (5-minute units) and column 1, when present, the normalised
    cloud-coverage mean in [0, 1].  ``target_mean`` and ``target_scale``
    are the centring constants (watts); they default to the sample mean
    and standard deviation of ``targets``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_mean: float
    target_scale: float

    @classmethod
    def from_arrays(cls, inputs, targets) -> "TrainingSet":
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.asarray(targets, dtype=float).ravel()
        if targets.size:
            mean = float(targets.mean())
            scale = float(targets.std())
        else:
            mean, scale = 0.0, 1.0
        if scale <= 0:
            scale = 1.0  # constant targets: centring alone suffices
        return cls(inputs=inputs, targets=targets, target_mean=mean, target_scale=scale)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        self.validate()

    def validate(self) -> None:
        n, d = self.inputs.shape
        if d not in (1, 2):
            raise ValueError(f"inputs must have 1 or 2 columns, got {d}")
        if self.targets.shape != (n,):
            raise ValueError(f"targets length {self.targets.size} != inputs rows {n}")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("training data contains non-finite entries")
        if n > 1 and not np.all(np.diff(self.inputs[:, 0]) > 0):
            raise ValueError("time indices must be strictly increasing")
        if not (self.target_scale > 0 and math.isfinite(self.target_scale)):
            raise ValueError(f"target_scale must be > 0, got {self.target_scale}")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def ndim(self) -> int:
        return self.inputs.shape[1]

    def scaled_targets(self) -> np.ndarray:
        return (self.targets - self.target_mean) / self.target_scale


@dataclass
class PosteriorPrediction:
    """Predictive mean (watts) and covariance (watts^2) at query inputs."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def std(self) -> np.ndarray:
        """Per-point predictive standard deviation, watts."""
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


def build_covariance(A, B, spec: KernelSpec, with_noise: bool = False) -> np.ndarray:
    """Covariance block ``K(A, B)`` under ``spec``.

    The Kronecker-delta noise term contributes only when ``with_noise`` is
    set and A and B are the same sample list, i.e. the same array object;
    cross-covariance blocks never carry it, even between equal-valued
    inputs, because the delta keys on sample identity rather than values.
    The noise is added on the diagonal of the kernel block in place.
    """
    same = A is B
    A2 = np.atleast_2d(np.asarray(A, dtype=float))
    B2 = A2 if same else np.atleast_2d(np.asarray(B, dtype=float))
    K = kernels.main_matrix(spec, A2, B2, same_samples=same)
    if with_noise and same and spec.noise_variance > 0:
        _diagonal(K)[...] += spec.noise_variance
    return K


def _diagonal(K: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a square matrix."""
    return np.einsum("ii->i", K)


def _finish(block: np.ndarray, spec: KernelSpec, s2: float, noise: float) -> None:
    """The ``finish`` of every Gram build: ``noise`` on the diagonal from column 0, ``/ s2``, then a finiteness check.

    An upper row block's diagonal starts at its first column, and so does a
    whole Gram's.  Raises ``ValueError`` naming the kernel if any entry is
    non-finite.
    """
    if noise > 0:
        _diagonal(block[:, : block.shape[0]])[...] += noise
    block /= s2
    if not np.isfinite(block).all():
        raise ValueError(f"covariance has non-finite entries for kernel {spec.to_text()}")


def _gram_builder(X: np.ndarray, spec: KernelSpec, s2: float):
    """``build()`` for :func:`_cholesky_with_jitter`: ``(K(X, X) + sigma^2 I) / s2`` in one n x n buffer.

    Only the triangle the factorisation reads is built, row i from column i
    on (``kernels.main_matrix(..., upper=True)``); below the diagonal only
    the few entries inside a row block are written.  Each row block is
    :func:`_finish`-ed while it is in cache, so no pass over the whole
    matrix follows the build.
    """
    buffer = np.empty((X.shape[0], X.shape[0]))
    finish = functools.partial(_finish, spec=spec, s2=s2, noise=spec.noise_variance)

    def build() -> np.ndarray:
        return kernels.main_matrix(spec, X, X, same_samples=True, out=buffer, upper=True, finish=finish)

    return build


def _cholesky_with_jitter(build, spec: KernelSpec) -> np.ndarray:
    """Lower Cholesky factor of a symmetric Gram plus escalating jitter, in the Gram's buffer.

    ``build()`` fills a C-ordered n x n buffer with the symmetric Gram, at
    least row i from column i on, checks that what it filled is finite, and
    returns it.  Its transpose ``K.T`` is a Fortran-ordered view of the
    same matrix whose lower triangle is that filled part, which each
    attempt factorises in place after putting the jitter on its diagonal;
    the factor returned is that view, with its upper triangle zeroed, so
    the buffer that held the Gram holds the factor and no second n x n
    array is made.  The factorisation reads only the filled triangle, so
    it does not check finiteness itself.  A failed attempt has overwritten
    the buffer, so ``build()`` refills it before the next one.  The jitter
    is ``eps * mean(diag)`` of the Gram as first built.
    """
    K = build()
    n = K.shape[0]
    diag = K.diagonal().copy()
    scale = float(np.mean(diag)) if n else 1.0
    if scale <= 0 or not math.isfinite(scale):
        scale = 1.0
    eps = JITTER_INITIAL
    while True:
        _diagonal(K)[...] = diag + eps * scale
        try:
            return scipy.linalg.cholesky(K.T, lower=True, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            eps *= 10.0
        if eps > JITTER_MAX * (1 + 1e-12):
            raise ConditioningError(
                f"covariance factorisation failed at jitter {JITTER_MAX:g} for kernel {spec.to_text()}"
            )
        K = build()


def posterior(train: TrainingSet, query_X, spec: KernelSpec) -> PosteriorPrediction:
    """Posterior mean and covariance at ``query_X`` given training data.

    Computes ``m* = mu + K(X*,X) K(X,X)^-1 (y - mu)`` and
    ``C* = K(X*,X*) - K(X*,X) K(X,X)^-1 K(X*,X)^T`` on centred/scaled
    targets, then maps back to watts.  With no training rows the prior is
    returned: constant mean ``target_mean`` and covariance ``K(X*,X*)``.

    After the factorisation ``K = L L^T``, one triangular solve gives both:
    ``[V | z] = L^-1 [K(X*,X)^T | y]``, so ``m* = mu + V^T z`` and
    ``C* = K(X*,X*) - V^T V`` (Rasmussen & Williams 2006, algorithm 2.1).
    The cross block is built straight into that Fortran-ordered right-hand
    side, each row block scaled and checked finite while in cache, and the
    solve overwrites it; the factor is read once and never rescanned.  A
    non-finite query row raises ``ValueError`` naming the row.
    """
    # fresh array: query samples are never "the same list" as training rows
    query_X = np.array(query_X, dtype=float, ndmin=2)
    if query_X.shape[1] != train.ndim:
        raise ValueError(f"query has {query_X.shape[1]} columns, training has {train.ndim}")
    bad = np.flatnonzero(~np.isfinite(query_X).all(axis=1))
    if bad.size:
        raise ValueError(f"query row {bad[0]} has non-finite inputs {query_X[bad[0]].tolist()}")
    spec.validate(ndim=train.ndim)

    Kss = build_covariance(query_X, query_X, spec)
    if train.n == 0:
        mean = np.full(query_X.shape[0], train.target_mean)
        return PosteriorPrediction(mean=mean, cov=_tidy_cov(Kss))

    s2 = train.target_scale**2
    L = _cholesky_with_jitter(_gram_builder(train.inputs, spec, s2), spec)
    m = query_X.shape[0]
    rhs = np.empty((train.n, m + 1), order="F")
    # rhs[:, :m].T is a C-ordered (m, n) view: the cross block K(X*, X) / s2
    finish = functools.partial(_finish, spec=spec, s2=s2, noise=0.0)
    kernels.main_matrix(spec, query_X, train.inputs, out=rhs[:, :m].T, finish=finish)
    rhs[:, m] = train.scaled_targets()
    scipy.linalg.solve_triangular(L, rhs, lower=True, overwrite_b=True, check_finite=False)
    V, z = rhs[:, :m], rhs[:, m]
    mean = train.target_mean + train.target_scale * (V.T @ z)
    cov = Kss - s2 * (V.T @ V)
    return PosteriorPrediction(mean=mean, cov=_tidy_cov(cov))


def _tidy_cov(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.T) / 2.0
    d = np.diag(cov).copy()
    np.fill_diagonal(cov, np.clip(d, 0.0, None))
    return cov


class LmlGradient:
    """Log-marginal-likelihood gradient over one training set's cached geometry.

    Built once per training set for a list of free
    :class:`~pvgp.kernels.Hyperparameter`.  Passed to
    :func:`log_marginal_likelihood`, it builds the training Gram from its
    :class:`~pvgp.kernels.GramEvaluator` into one reused buffer, where the
    Gram is factorised and then inverted in place, and fills :attr:`value`
    with ``d LML / d log theta`` from the same Cholesky factor as the
    likelihood itself:
    ``1/2 tr((alpha alpha^T - K^-1) dK/dlog theta)`` (Rasmussen & Williams
    2006, section 5.4.1).  The jitter is treated as a constant.
    """

    def __init__(self, train: TrainingSet, params):
        self.params = list(params)
        self.value = np.zeros(len(self.params))
        self._evaluator = kernels.GramEvaluator(train.inputs, train.inputs, same_samples=True)
        self._K = np.empty((train.n, train.n))
        self._W = np.empty((train.n, train.n))

    def covariance(self, spec: KernelSpec, s2: float) -> np.ndarray:
        """Scaled training covariance ``(K_main + sigma^2 I) / s2``, in a reused buffer, :func:`_finish`-ed whole."""
        np.copyto(self._K, self._evaluator.gram(spec))
        _finish(self._K, spec, s2, spec.noise_variance)
        return self._K

    def fill(self, spec: KernelSpec, L: np.ndarray, alpha: np.ndarray, s2: float) -> None:
        """Set :attr:`value` from the factor L of :meth:`covariance` and ``alpha = K^-1 y``.

        L is overwritten with ``K^-1``.
        """
        # K^-1 in the lower triangle; L's upper triangle of zeros is kept
        inv, info = scipy.linalg.lapack.dpotri(L, lower=1, overwrite_c=1)
        if info:
            raise ConditioningError(f"covariance inverse failed (info {info}) for kernel {spec.to_text()}")
        # every derivative block G is symmetric, so sum((alpha alpha^T - K^-1) * G)
        # = sum(W * G) with W = alpha alpha^T - 2 tril(K^-1) + diag(K^-1)
        W = np.multiply(alpha[:, None], alpha, out=self._W)
        diag = inv.diagonal().copy()
        inv *= 2.0
        W -= inv
        _diagonal(W)[...] += diag
        trace = float(np.trace(W))
        # dK/dlog theta = (K_main / s2) * log_derivative(theta)
        W *= self._evaluator.K
        W /= s2
        for k, p in enumerate(self.params):
            if p.field == "noise_variance":
                self.value[k] = 0.5 * spec.noise_variance / s2 * trace
            else:
                self.value[k] = 0.5 * np.einsum("ij,ij->", W, self._evaluator.log_derivative(p))


def log_marginal_likelihood(train: TrainingSet, spec: KernelSpec, gradient: LmlGradient | None = None) -> float:
    """Exact-GP log marginal likelihood of the centred/scaled targets.

    ``-1/2 y^T K^-1 y - 1/2 log|K| - (n/2) log 2pi`` with K the training
    Gram including the noise term.  With ``gradient`` (an
    :class:`LmlGradient` built for ``train``), the Gram comes from its cached
    geometry and ``gradient.value`` is filled from the same factorisation.
    """
    spec.validate(ndim=train.ndim)
    if train.n == 0:
        if gradient is not None:
            gradient.value[:] = 0.0
        return 0.0
    s2 = train.target_scale**2
    if gradient is None:
        build = _gram_builder(train.inputs, spec, s2)
    else:
        build = functools.partial(gradient.covariance, spec, s2)
    L = _cholesky_with_jitter(build, spec)
    y = train.scaled_targets()
    # the Gram was checked finite as it was built, so its factor is not rescanned
    alpha = scipy.linalg.cho_solve((L, True), y, check_finite=False)
    value = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * train.n * math.log(2 * math.pi))
    if gradient is not None:
        gradient.fill(spec, L, alpha, s2)
    return value


def sample_prior(query_X, spec: KernelSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` functions from ``N(0, K(X, X))`` at the query inputs.

    Returns a (count, m) array, deterministic per seed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    query_X = np.atleast_2d(np.asarray(query_X, dtype=float))
    L = _cholesky_with_jitter(_gram_builder(query_X, spec, 1.0), spec)
    z = np.random.default_rng(seed).standard_normal((query_X.shape[0], count))
    return (L @ z).T


# -- hyperparameter fitting -------------------------------------------------


# (lo, hi, margin) per hyperparameter field, from the target scale s, the range r
# of the field's input axis and the template's period T: restarts after the
# first draw log-uniformly from [lo, hi], and the box is [lo/margin, hi*margin].
# w scales a warped distance in [0, 2]; a margin of 1 keeps a freed T near the
# known cycle instead of degenerating into a quasi-stationary kernel.
_BOUNDS = {
    "amplitude": lambda s, r, T: (0.01 * s, 10.0 * s, 100.0),
    "roughness": lambda s, r, T: (0.1, 10.0, 100.0),
    "lengthscales": lambda s, r, T: (1.0, max(10.0 * r, 2.0), 100.0),
    "alpha": lambda s, r, T: (0.1, 100.0, 100.0),
    "period": lambda s, r, T: (0.5 * T, 2.0 * T, 1.0),
    "noise_variance": lambda s, r, T: (1e-6 * s**2, 1.0 * s**2, 100.0),
}


def _free_parameters(train: TrainingSet, spec: KernelSpec, optimize_period: bool):
    """The fit's free hyperparameters with the logs of their :data:`_BOUNDS` init range and box.

    Every hyperparameter of ``spec`` is free, its period only with ``optimize_period``.
    """
    params = [p for p in spec.hyperparameters() if p.field != "period" or optimize_period]
    ranges = np.ptp(train.inputs, axis=0) if train.n else np.ones(train.ndim)
    bounds = [
        _BOUNDS[p.field](train.target_scale, None if p.index is None else float(ranges[p.index]), spec.period)
        for p in params
    ]
    lo, hi, margin = np.log(bounds).T
    return params, (lo, hi), (lo - margin, hi + margin)


def fit_hyperparameters(
    train: TrainingSet,
    spec_template: KernelSpec,
    restarts: int = FIT_RESTARTS,
    seed: int = 0,
    max_iter: int = MAX_FIT_ITERATIONS,
    optimize_period: bool = False,
) -> KernelSpec:
    """Maximise the log marginal likelihood over positive hyperparameters.

    Works in log space with L-BFGS-B.  Each objective evaluation is one
    Cholesky factorisation, which yields both the likelihood and its
    analytic gradient (:class:`LmlGradient`); the input geometry is built
    once per call and shared by every restart.  The template's
    :meth:`~pvgp.kernels.KernelSpec.hyperparameters` are fitted.  Restart 0
    starts from their values; every further restart starts from a
    log-uniform draw within their :data:`_BOUNDS` init ranges.  Results are
    merged by best objective, ties broken by lowest restart index.
    Deterministic given ``seed``.

    The period T is held fixed unless ``optimize_period`` is set: the
    daily cycle is physically known, and the likelihood over T is sharply
    multimodal (harmonics), so freeing it pays off only when the template
    already starts near the true period.  A freed T is boxed to
    [0.5, 2] times its starting value.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    spec_template.validate(ndim=train.ndim)
    params, (lo, hi), (box_lo, box_hi) = _free_parameters(train, spec_template, optimize_period)
    gradient = LmlGradient(train, params)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            spec = kernels.with_hyperparameters(spec_template, params, map(math.exp, x))
            value = -log_marginal_likelihood(train, spec, gradient)
        except (ConditioningError, FloatingPointError, kernels.KernelSpecError):
            return 1e25, np.zeros(x.size)
        jac = -gradient.value
        if not (math.isfinite(value) and np.isfinite(jac).all()):
            return 1e25, np.zeros(x.size)
        return value, jac

    box = list(zip(box_lo, box_hi))
    rng = np.random.default_rng(seed)

    template_values = np.array([max(p.get(spec_template), 1e-300) for p in params])
    template_start = np.clip(np.log(template_values), box_lo, box_hi)

    best: tuple[float, int, np.ndarray] | None = None
    for r in range(restarts):
        x0 = template_start if r == 0 else rng.uniform(lo, hi)
        result = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=box,
            options={"maxiter": max_iter, "ftol": 1e-8},
        )
        f = float(result.fun)
        if math.isfinite(f) and f < 1e24 and (best is None or f < best[0]):
            best = (f, r, result.x.copy())
    if best is None:
        raise FitError(f"all {restarts} restart(s) failed to produce a finite objective")
    return kernels.with_hyperparameters(spec_template, params, map(math.exp, best[2]))
