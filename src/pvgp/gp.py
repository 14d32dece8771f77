"""Exact Gaussian-process inference.

Prior sampling, posterior mean/covariance, log marginal likelihood and its
analytic gradient, and multi-restart hyperparameter fitting, all against
the composite kernels of :mod:`pvgp.kernels`.  Targets are centred on the
training mean and scaled by the training standard deviation internally;
kernel hyperparameters stay in target units (watts), so specs written by
hand and specs returned by the fitter are directly comparable.

Linear algebra goes through a Cholesky factorisation of the jittered Gram
matrix, which LAPACK computes in place (the package calls it directly);
only the likelihood gradient forms ``K^-1``, from that factor, because
its trace terms need every entry.  Jitter starts at ``1e-10 *
mean(diag)`` and escalates tenfold up to ``1e-4`` before a
:class:`ConditioningError` is raised naming the kernel.  Noise and jitter
are added on the diagonal only.  A Gram that is only factorised and
solved against -- a posterior's, a likelihood's without gradient, a
prior draw's -- keeps one triangle, n(n+1)/2 entries, in rectangular full
packed (RFP) storage (Gustavson, Wasniewski, Dongarra & Langou 2010): it
is built into that array as three blocks, factorised there by
``dpftrf`` and solved against there by ``dtfsm`` (a posterior) or
``dpftrs`` (a likelihood), so a posterior peaks near half an n x n
array.  The gradient's Gram is a full square, because its trace sums run
over the whole square: ``dpotrf`` factorises it in place, ``dpotrs``
solves against it, and the factor's other triangle is left as built
until the gradient zeroes it.  One finish puts the noise on the
diagonal, divides by the target variance and checks the entries finite:
each row block of an RFP Gram and of a posterior's cross block gets it
while in cache, and the gradient's Gram, built whole, gets it whole.  A
non-finite Gram raises ``ValueError`` naming the kernel.  Because every
Gram is checked as it is built, its factor is never rescanned: after the
factorisation a posterior makes one triangular solve, against the cross
block and the targets together, which gives its mean and its
covariance.  A posterior asked for its mean alone (``covariance=False``,
as every grid cell is, since a cell is scored by the MAE of its mean)
stops there and builds no m x m array.  Otherwise its prior block
``K(X*, X*)`` is built after the solve as one triangle, the solve's
product is subtracted from that triangle in place by one ``dsyrk``, and
the triangle is mirrored to the other side: no symmetrising pass, and the
covariance is exactly symmetric.

Every dense product goes through :mod:`scipy.linalg.blas`, the BLAS that
the factorisations and solves already run on; nothing calls numpy's
``@``, ``dot`` or ``linalg``.  numpy and scipy each ship their own
OpenBLAS with its own thread pool, and a pool's workers spin for a while
after each call, so a product on numpy's pool right after a solve on
scipy's puts more busy threads than cores on the machine and waits on
the scheduler.  ``tests/test_blas.py`` holds the package to this rule.

The fitter's objective costs one factorisation per evaluation: the same
factor gives the likelihood and, through :class:`LmlGradient`, its exact
gradient ``1/2 tr((alpha alpha^T - K^-1) dK/dlog theta)`` with respect to
every free log-hyperparameter (Rasmussen & Williams 2006, section 5.4.1).
Its weights live in ``K^-1``'s buffer and its noise term is a closed form;
a 2-D periodic fit holds 5 n x n arrays.  The amplitude is never
differentiated: the objective is the likelihood maximised over it in
closed form, a concentrated likelihood (Roustant, Ginsbourger & Deville
2012), so the optimiser moves only the shape parameters and the noise
ratio ``lambda = sigma^2 / h^2``.  They are the template's
``hyperparameters()``, bounded by one per-field table, set from the
optimiser's vector in one ``replace``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize
from scipy.linalg import blas, lapack

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
    """Predictive mean (watts) and covariance (watts^2) at query inputs; ``cov`` is None for a mean-only posterior."""

    mean: np.ndarray
    cov: np.ndarray | None

    @property
    def std(self) -> np.ndarray:
        """Per-point predictive standard deviation, watts.

        Raises ``ValueError`` when the posterior was computed without its covariance.
        """
        if self.cov is None:
            raise ValueError("posterior was computed without its covariance (covariance=False): no standard deviation")
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
    if s2 != 1.0:  # the concentrated objective's Gram is already in units of h^2
        block /= s2
    if not np.isfinite(block).all():
        raise ValueError(f"covariance has non-finite entries for kernel {spec.to_text()}")


def _rfp_layout(n: int) -> tuple[int, int, int]:
    """``(n1, n2, width)`` of an order-n Gram in RFP storage: its C-ordered view is n1 x width (see :func:`_rfp_builder`)."""
    n2 = n // 2
    return n - n2, n2, n + 1 - n % 2


def _rfp_builder(X: np.ndarray, spec: KernelSpec, s2: float):
    """``build()`` for :func:`_cholesky_with_jitter`: ``(K(X, X) + sigma^2 I) / s2`` in rectangular full packed storage.

    Rectangular full packed (RFP) storage (Gustavson, Wasniewski, Dongarra
    & Langou 2010; LAPACK's ``transr='N'``, ``uplo='L'``) holds the lower
    triangle's n(n+1)/2 entries in one dense array, which ``dpftrf``
    factorises in place.  With ``n1 = n - n // 2`` and ``n2 = n // 2``, its
    C-ordered view R is n1 x (n + e), e = 1 for even n and 0 for odd, row j
    being column j of LAPACK's Fortran array (:func:`_rfp_layout`).  ``R[:, e:]`` holds the first
    n1 rows of the Gram from their diagonal on: A11's upper triangle and the
    n1 x n2 block ``K(X[:n1], X[n1:])``, A21's transpose.  ``R[n1 - n2:,
    :n2]`` holds A22's lower triangle, which reversed on both axes is the
    upper triangle of the last n2 rows taken in reverse order.  So three
    :func:`kernels.main_matrix` calls fill the array, the two diagonal
    blocks as exact upper triangles, and each row block is
    :func:`_finish`-ed while it is in cache.
    """
    n = X.shape[0]
    n1, n2, width = _rfp_layout(n)
    e = width - n
    arf = np.empty(n * (n + 1) // 2)
    R = arf.reshape(n1, width)
    finish = functools.partial(_finish, spec=spec, s2=s2, noise=spec.noise_variance)
    cross = functools.partial(_finish, spec=spec, s2=s2, noise=0.0)
    head, rest = X[:n1], X[n1:]

    def build() -> np.ndarray:
        kernels.main_matrix(spec, head, head, same_samples=True, out=R[:, e : e + n1], upper=True, finish=finish)
        kernels.main_matrix(spec, head, rest, out=R[:, e + n1 :], finish=cross)
        A22 = R[n1 - n2 :, :n2][::-1, ::-1]
        kernels.main_matrix(spec, rest[::-1], rest[::-1], same_samples=True, out=A22, upper=True, finish=finish)
        return arf

    return build


def _diagonal_runs(K: np.ndarray) -> tuple[np.ndarray, ...]:
    """Writable views of the diagonal of a Gram or of its factor, in order.

    A square (or its Fortran view) has one; an RFP array (see
    :func:`_rfp_builder`) has two strided runs, A11's then A22's.
    """
    if K.ndim == 2:
        return (_diagonal(K),)
    n = (math.isqrt(8 * K.size + 1) - 1) // 2
    n1, n2, width = _rfp_layout(n)
    return K[width - n :: width + 1][:n1], K[(n1 - n2) * width :: width + 1][:n2]


def _cholesky_with_jitter(build, spec: KernelSpec) -> np.ndarray:
    """Lower Cholesky factor of a symmetric Gram plus escalating jitter, in the Gram's buffer.

    ``build()`` fills a buffer with the symmetric Gram, checks that what it
    filled is finite, and returns it, in one of two storages.  A 1-D array
    is the Gram's lower triangle in rectangular full packed storage
    (:func:`_rfp_builder`, for a posterior, a likelihood without gradient
    and a prior draw), which LAPACK ``dpftrf`` factorises in place; the
    factor returned is that array, in the same storage.  A C-ordered n x n
    buffer (the gradient's :meth:`LmlGradient.covariance`) is filled at
    least row i from column i on; its transpose ``K.T`` is a
    Fortran-ordered view of the same matrix whose lower triangle is that
    filled part, which ``dpotrf`` factorises in place, and the factor
    returned is that view, its upper triangle left as the build wrote it:
    :meth:`LmlGradient.fill` zeroes it itself.  Either way no second array
    of the Gram's size is made.  Each attempt puts the jitter on the
    diagonal (two strided runs in RFP storage) first.  The factorisation
    reads only what was filled, so it does not check finiteness itself.  A
    failed attempt (``info > 0``: a leading minor is not positive definite)
    has overwritten the buffer, so ``build()`` refills it before the next
    one.  The jitter is ``eps * mean(diag)`` of the Gram as first built.
    """
    K = build()
    diag = np.concatenate(_diagonal_runs(K))
    n = diag.size
    scale = float(np.mean(diag)) if n else 1.0
    if scale <= 0 or not math.isfinite(scale):
        scale = 1.0
    eps = JITTER_INITIAL
    while True:
        jittered, start = diag + eps * scale, 0
        for run in _diagonal_runs(K):
            run[...] = jittered[start : start + run.size]
            start += run.size
        if K.ndim == 1:
            L, info = lapack.dpftrf(n, K, transr="N", uplo="L", overwrite_a=1)
        else:
            L, info = lapack.dpotrf(K.T, lower=1, overwrite_a=1, clean=0)
        if info == 0:
            return L
        eps *= 10.0  # info > 0: a leading minor is not positive definite
        if eps > JITTER_MAX * (1 + 1e-12):
            raise ConditioningError(
                f"covariance factorisation failed at jitter {JITTER_MAX:g} for kernel {spec.to_text()}"
            )
        K = build()


def _check_query(query_X: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first query row with a non-finite input."""
    bad = np.flatnonzero(~np.isfinite(query_X).all(axis=1))
    if bad.size:
        raise ValueError(f"query row {bad[0]} has non-finite inputs {query_X[bad[0]].tolist()}")


def posterior(train: TrainingSet, query_X, spec: KernelSpec, covariance: bool = True) -> PosteriorPrediction:
    """Posterior mean and, with ``covariance``, covariance at ``query_X`` given training data.

    Computes ``m* = mu + K(X*,X) K(X,X)^-1 (y - mu)`` and
    ``C* = K(X*,X*) - K(X*,X) K(X,X)^-1 K(X*,X)^T`` on centred/scaled
    targets, then maps back to watts.  With no training rows the prior is
    returned: constant mean ``target_mean`` and covariance ``K(X*,X*)``.
    An empty query returns a mean of shape (0,) and a (0, 0) covariance
    before anything is factorised.

    The training Gram is built in RFP storage (:func:`_rfp_builder`), one
    triangle, and factorised there by ``dpftrf``: ``K = L L^T``.  Then one
    triangular solve, ``dtfsm`` on the RFP factor, gives both:
    ``[V | z] = L^-1 [K(X*,X)^T | y]``, so ``m* = mu + V^T z`` and
    ``C* = K(X*,X*) - V^T V`` (Rasmussen & Williams 2006, algorithm 2.1).
    The cross block is built straight into that Fortran-ordered right-hand
    side, each row block scaled and checked finite while in cache, and the
    solve overwrites it; the factor is read once and never rescanned.  The
    n(n+1)/2-entry factor and the n x (m + 1) right-hand side are the
    posterior's only arrays that grow with n.

    With ``covariance=False`` the posterior returns after the mean, with
    ``cov=None``: no ``K(X*,X*)``, no m x m array.  A forecast scored by the
    MAE of its mean (every grid cell) needs nothing more.  Otherwise
    ``K(X*,X*)`` is built after the solve as one triangle, row i from
    column i on, the lower triangle of its Fortran view; one in-place
    ``dsyrk`` subtracts ``V^T V`` there, and :func:`_mirror_upper` copies
    the triangle to the other side and clips the diagonal at 0, so the
    covariance is exactly symmetric and the prior block's buffer is the
    only m x m array.  The prior (no training rows) gets the same triangle
    and the same finish.  A non-finite query row raises ``ValueError``
    naming the row.
    """
    # fresh array: query samples are never "the same list" as training rows
    query_X = np.array(query_X, dtype=float, ndmin=2)
    if query_X.shape[1] != train.ndim:
        raise ValueError(f"query has {query_X.shape[1]} columns, training has {train.ndim}")
    _check_query(query_X)
    spec.validate(ndim=train.ndim)

    m = query_X.shape[0]
    if train.n == 0 or m == 0:
        cov = _prior_block(query_X, spec) if covariance else None
        return PosteriorPrediction(mean=np.full(m, train.target_mean), cov=cov)

    s2 = train.target_scale**2
    L = _cholesky_with_jitter(_rfp_builder(train.inputs, spec, s2), spec)
    rhs = np.empty((train.n, m + 1), order="F")
    # rhs[:, :m].T is a C-ordered (m, n) view: the cross block K(X*, X) / s2
    finish = functools.partial(_finish, spec=spec, s2=s2, noise=0.0)
    kernels.main_matrix(spec, query_X, train.inputs, out=rhs[:, :m].T, finish=finish)
    rhs[:, m] = train.scaled_targets()
    lapack.dtfsm(1.0, L, rhs, transr="N", side="L", uplo="L", trans="N", overwrite_b=1)
    V, z = rhs[:, :m], rhs[:, m]
    mean = train.target_mean + train.target_scale * blas.dgemv(1.0, V, z, trans=1)
    if not covariance:
        return PosteriorPrediction(mean=mean, cov=None)
    # the prior block's upper triangle, the lower one of the Fortran view Kss.T
    Kss = kernels.main_matrix(spec, query_X, query_X, same_samples=True, upper=True)
    # K(X*, X*) - s2 V^T V on the filled triangle, in Kss's buffer
    blas.dsyrk(-s2, V, beta=1.0, c=Kss.T, trans=1, lower=1, overwrite_c=1)
    return PosteriorPrediction(mean=mean, cov=_mirror_upper(Kss))


def _prior_block(query_X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """``K(X*, X*)`` built as one triangle and mirrored: the covariance of a posterior with no training rows."""
    return _mirror_upper(kernels.main_matrix(spec, query_X, query_X, same_samples=True, upper=True))


def _mirror_upper(K: np.ndarray) -> np.ndarray:
    """Copy square K's upper triangle onto its lower one in place, a row block at a time, and clip its diagonal at 0."""
    below = kernels._below_diagonal(K.shape[0])
    for start, stop in kernels._row_blocks(*K.shape):
        # K[i, :i] = K[:i, i] for the block's rows i
        np.copyto(K[start:stop, :stop], K[:stop, start:stop].T, where=below[start:stop, :stop])
    diagonal = _diagonal(K)
    np.clip(diagonal, 0.0, None, out=diagonal)
    return K


def _zero_below_diagonal(K: np.ndarray, below: np.ndarray) -> None:
    """Zero square K's strictly lower triangle in place, a row block at a time; ``below`` is its ``kernels._below_diagonal``."""
    for start, stop in kernels._row_blocks(*K.shape):
        np.copyto(K[start:stop, :stop], 0.0, where=below[start:stop, :stop])


class LmlGradient:
    """Concentrated log-marginal-likelihood gradient over one training set's cached geometry.

    Built once per training set for a list of free
    :class:`~pvgp.kernels.Hyperparameter` (a spec's ``hyperparameters()``);
    a field with no :data:`_BOUNDS` row raises ``ValueError`` naming it.
    Passed to :func:`log_marginal_likelihood`, it builds the training Gram
    from its :class:`~pvgp.kernels.GramEvaluator` into one reused buffer,
    where the Gram is factorised and then inverted in place, and fills
    :attr:`value` with ``d LML / d log theta`` from the same Cholesky factor
    as the likelihood itself:
    ``1/2 tr((alpha alpha^T - K^-1) dK/dlog theta)`` (Rasmussen & Williams
    2006, section 5.4.1).  The weights ``alpha alpha^T - K^-1`` are formed in
    ``K^-1``'s buffer and the noise term is a closed form, so a 2-D periodic
    fit holds 5 n x n arrays: this buffer and the evaluator's Gram,
    cloud-axis ``|dx|``, chord and scratch.  The jitter is treated as a constant.

    The amplitude is solved in closed form rather than differentiated: its
    best ``c`` (``h^2`` in units of the target variance) is left in
    :attr:`scale` by each evaluation, and the noise entry is the derivative
    by ``log lambda``, ``lambda = sigma^2 / h^2`` (see
    :func:`log_marginal_likelihood`).
    """

    def __init__(self, train: TrainingSet, params):
        self.params = list(params)
        for p in self.params:
            if p.field not in _BOUNDS:
                raise ValueError(f"the likelihood gradient has no derivative by {p.field!r}")
        self.value = np.zeros(len(self.params))
        self.scale = 1.0
        self._evaluator = kernels.GramEvaluator(train.inputs, train.inputs, same_samples=True)
        self._K = np.empty((train.n, train.n))
        self._below = kernels._below_diagonal(train.n)

    def covariance(self, spec: KernelSpec) -> np.ndarray:
        """Training covariance ``(K_main + sigma^2 I) / h^2``, in a reused buffer, :func:`_finish`-ed whole."""
        np.copyto(self._K, self._evaluator.gram(spec))
        _finish(self._K, spec, spec.amplitude**2, spec.noise_variance)
        return self._K

    def fill(self, spec: KernelSpec, L: np.ndarray, alpha: np.ndarray) -> None:
        """Set :attr:`value` from the factor L of :meth:`covariance` and ``alpha = K^-1 y``.

        L is overwritten with the trace weights.  They are summed over the
        whole square, so the triangle the factorisation left as built is
        zeroed first, a row block at a time.
        """
        # K^-1 in the lower triangle; the upper one still holds what covariance() left there
        inv, info = lapack.dpotri(L, lower=1, overwrite_c=1)
        if info:
            raise ConditioningError(f"covariance inverse failed (info {info}) for kernel {spec.to_text()}")
        _zero_below_diagonal(inv.T, self._below)
        # every derivative block G is symmetric, so tr((alpha alpha^T - K^-1) G)
        # = sum(W * G) with W = 2 tril(alpha alpha^T - K^-1) - diag(alpha alpha^T - K^-1);
        # W is held as -W / 2, from K^-1 in place, and the exact factor -2 comes back in the last scaling
        W = blas.dsyr(-1.0, alpha, lower=1, a=inv, overwrite_a=1).T  # C-ordered, like K_main
        _diagonal(W)[...] *= 0.5
        trace = float(np.trace(W))
        W *= self._evaluator.K  # dK/dlog theta = K_main * log_derivative(theta) / h^2
        for k, p in enumerate(self.params):
            if p.field == "noise_variance":
                self.value[k] = spec.noise_variance * trace  # dK/dlog sigma^2 = sigma^2 I / h^2
            else:
                self.value[k] = np.einsum("ij,ij->", W, self._evaluator.log_derivative(spec, p))
        self.value *= -1.0 / spec.amplitude**2  # the -2 of W, times the 1/2 of the trace, over h^2


def log_marginal_likelihood(train: TrainingSet, spec: KernelSpec, gradient: LmlGradient | None = None) -> float:
    """Exact-GP log marginal likelihood of the centred/scaled targets.

    Without ``gradient``, the plain likelihood at ``spec``:
    ``-1/2 y^T K^-1 y - 1/2 log|K| - (n/2) log 2pi`` with K the training
    Gram including the noise term, over the target variance ``s2``.

    With ``gradient`` (an :class:`LmlGradient` built for ``train``), the
    amplitude is concentrated out, and ``gradient.value`` is filled from
    the same factorisation.  The Gram, from the gradient's cached geometry,
    is over the spec's own ``h^2``: ``A = R + lambda I``, with R of unit
    amplitude, so the spec's h is not read.  From A's factor,
    ``q = y^T A^-1 y`` and ``c = q / n``, clamped to :data:`_SCALE_BOX`
    (``c = 1`` with no rows).  The value returned is the plain likelihood
    at ``h^2 = c s2`` and ``sigma^2 = lambda c s2``,
    ``-q / 2c - (n/2) log c - 1/2 log|A| - (n/2) log 2pi``; its gradient is
    the plain one's weights with ``alpha / sqrt(c)`` in place of alpha,
    ``1/2 tr((beta beta^T / c - A^-1) dA/dlog theta)``, ``beta = A^-1 y``.
    c is left in ``gradient.scale``.
    """
    spec.validate(ndim=train.ndim)
    if train.n == 0:
        if gradient is not None:
            gradient.value[:] = 0.0
        return 0.0
    y = train.scaled_targets()
    # the Gram is checked finite as it is built, so its factor is not rescanned
    if gradient is None:
        L = _cholesky_with_jitter(_rfp_builder(train.inputs, spec, train.target_scale**2), spec)
        alpha, _ = lapack.dpftrs(train.n, L, y, transr="N", uplo="L")
    else:
        L = _cholesky_with_jitter(functools.partial(gradient.covariance, spec), spec)
        alpha, _ = lapack.dpotrs(L, y, lower=1)
    q, c = blas.ddot(y, alpha), 1.0
    if gradient is not None:
        c = gradient.scale = min(max(q / train.n, _SCALE_BOX[0]), _SCALE_BOX[1])
    value = -0.5 * q / c - 0.5 * train.n * math.log(c)
    log_det = sum(np.log(run).sum() for run in _diagonal_runs(L))  # half of log|K|
    value = float(value - log_det - 0.5 * train.n * math.log(2 * math.pi))
    if gradient is not None:
        # with K = c A, alpha alpha^T - K^-1 times dK is (beta beta^T / c - A^-1) dA, beta = A^-1 y
        gradient.fill(spec, L, alpha / math.sqrt(c))
    return value


def sample_prior(query_X, spec: KernelSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` functions from ``N(0, K(X, X))`` at the query inputs.

    Returns a (count, m) array, deterministic per seed.  The Gram is
    factorised in RFP storage, like a posterior's, and the factor is
    expanded to a square (``dtfttr``) for the product ``L z`` (``dtrmm``):
    draws are made at query size.  A non-finite query row raises
    ``ValueError`` naming the row.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    query_X = np.atleast_2d(np.asarray(query_X, dtype=float))
    _check_query(query_X)
    m = query_X.shape[0]
    L, _ = lapack.dtfttr(m, _cholesky_with_jitter(_rfp_builder(query_X, spec, 1.0), spec), transr="N", uplo="L")
    z = np.random.default_rng(seed).standard_normal((m, count))
    return blas.dtrmm(1.0, L, z, lower=1).T


# -- hyperparameter fitting -------------------------------------------------


# (lo, hi, margin) per hyperparameter field, from the range r of the field's
# input axis: restarts after the first draw log-uniformly from [lo, hi], and
# the box is [lo/margin, hi*margin].  w scales a warped distance in [0, 2].
# The noise row bounds lambda = sigma^2 / h^2; its box floor is the
# factorisation's first jitter, 1e-10 of A's mean diagonal of about 1, below
# which lambda means nothing.
_BOUNDS = {
    "roughness": lambda r: (0.1, 10.0, 100.0),
    "lengthscales": lambda r: (1.0, max(10.0 * r, 2.0), 100.0),
    "alpha": lambda r: (0.1, 100.0, 100.0),
    "noise_variance": lambda r: (1e-6, 1.0, 1e4),
}

# the box of the amplitude's c = h^2 / s2, solved in closed form: h in [1e-4 s, 1e3 s]
_SCALE_BOX = ((0.01 / 100.0) ** 2, (10.0 * 100.0) ** 2)


def _free_parameters(train: TrainingSet, spec: KernelSpec):
    """``spec``'s free hyperparameters, with the logs of their :data:`_BOUNDS` init range and box."""
    params = spec.hyperparameters()
    ranges = np.ptp(train.inputs, axis=0) if train.n else np.ones(train.ndim)
    bounds = [_BOUNDS[p.field](None if p.index is None else float(ranges[p.index])) for p in params]
    lo, hi, margin = np.log(bounds).T
    return params, (lo, hi), (lo - margin, hi + margin)


def fit_hyperparameters(
    train: TrainingSet,
    spec_template: KernelSpec,
    restarts: int = FIT_RESTARTS,
    seed: int = 0,
    max_iter: int = MAX_FIT_ITERATIONS,
) -> KernelSpec:
    """Maximise the log marginal likelihood over positive hyperparameters.

    The objective is the likelihood maximised over the amplitude in closed
    form (:func:`log_marginal_likelihood` with an :class:`LmlGradient`).
    L-BFGS-B works in log space on the template's
    :meth:`~pvgp.kernels.KernelSpec.hyperparameters`: the shape
    parameters and the noise ratio ``lambda = sigma^2 / h^2``.  Each
    objective evaluation is one Cholesky factorisation, which yields the
    likelihood, the amplitude's best ``c`` and the analytic gradient; the
    input geometry is built once per call and shared by every restart.
    Restart 0 starts from the template's shape values and ``lambda``;
    every further restart starts from a log-uniform draw within their
    :data:`_BOUNDS` init ranges.  Results are merged by best objective,
    ties broken by lowest restart index.  The fitted spec carries
    ``h = sqrt(c s2)`` and ``sigma^2 = lambda c s2``, with the c of the
    evaluation at the optimum, so it does not depend on the template's h
    beyond its ``lambda``.  Deterministic given ``seed``.

    The period T, like the Matern nu, is a constant of the kernel: the
    daily cycle is known, and the fit returns the template's T.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    spec_template.validate(ndim=train.ndim)
    params, (lo, hi), (box_lo, box_hi) = _free_parameters(train, spec_template)
    gradient = LmlGradient(train, params)
    # at h = 1 the spec's noise variance is lambda, and the optimiser's vector is its log
    unit = replace(spec_template, amplitude=1.0)
    scales: dict[tuple, float] = {}  # each evaluated point's c

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            spec = kernels.with_hyperparameters(unit, params, map(math.exp, x))
            value = -log_marginal_likelihood(train, spec, gradient)
        except (ConditioningError, FloatingPointError, kernels.KernelSpecError):
            return 1e25, np.zeros(x.size)
        jac = -gradient.value
        if not (math.isfinite(value) and np.isfinite(jac).all()):
            return 1e25, np.zeros(x.size)
        scales[tuple(x)] = gradient.scale
        return value, jac

    box = list(zip(box_lo, box_hi))
    rng = np.random.default_rng(seed)

    # restart 0 starts at the template's lambda, divided twice by h so that a tiny h gives inf, not an error
    ratio = spec_template.noise_variance / spec_template.amplitude / spec_template.amplitude
    template_values = np.array([max(ratio if p.field == "noise_variance" else p.get(unit), 1e-300) for p in params])
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
    fitted = kernels.with_hyperparameters(unit, params, map(math.exp, best[2]))
    h2 = scales[tuple(best[2])] * train.target_scale**2
    return replace(fitted, amplitude=math.sqrt(h2), noise_variance=fitted.noise_variance * h2)
