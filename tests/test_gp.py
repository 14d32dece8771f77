"""Exact-GP inference against brute-force oracles."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from pvgp import gp, kernels
from pvgp.gp import TrainingSet
from pvgp.kernels import MATERN, MATERN_NUS, PERIODIC, RATIONAL_QUADRATIC, SQUARED_EXPONENTIAL, WHITE_NOISE, KernelSpec

from oracles import (
    fd_gradient,
    gram_oracle,
    jittered_rfp_factor_out_of_place,
    lml_gradient_full_w,
    lml_oracle,
    posterior_oracle,
    posterior_out_of_place,
    stencil_gradient,
)

HALF_LOG_2PI = 0.9189385332046727


def random_spec(rng, ndim, family=None):
    family = family or rng.choice([SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC])
    h = float(rng.uniform(0.5, 2.0))
    ls = tuple(rng.uniform(0.5, 3.0, size=ndim))
    sigma2 = float(rng.uniform(1e-3, 0.3))
    if family == SQUARED_EXPONENTIAL:
        return KernelSpec(family, amplitude=h, lengthscales=ls, noise_variance=sigma2)
    if family == RATIONAL_QUADRATIC:
        return KernelSpec(family, amplitude=h, lengthscales=ls, alpha=float(rng.uniform(0.3, 5.0)), noise_variance=sigma2)
    if family == MATERN:
        return KernelSpec(family, amplitude=h, lengthscales=ls, nu=float(rng.choice([0.5, 1.5, 2.5])), noise_variance=sigma2)
    return KernelSpec(
        PERIODIC, amplitude=h, lengthscales=ls, roughness=float(rng.uniform(0.3, 2.0)),
        period=float(rng.uniform(5.0, 30.0)), base=MATERN, nu=0.5, noise_variance=sigma2,
    )


def random_train(rng, n, ndim, spec=None):
    t = np.sort(rng.choice(np.arange(200), size=n, replace=False)).astype(float)
    X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, size=n)])
    y = rng.normal(0.0, 1.0, size=n) * 3.0 + 5.0
    return TrainingSet.from_arrays(X, y)


def family_specs(ndim):
    """se, rq, matern12/32/52 and a periodic spec of each base, in ``ndim`` dimensions."""
    ls = (3.0, 0.6)[:ndim]
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.7)]
    bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
    return [
        KernelSpec(SQUARED_EXPONENTIAL, amplitude=2.1, lengthscales=ls, noise_variance=0.3),
        KernelSpec(RATIONAL_QUADRATIC, amplitude=2.1, lengthscales=ls, alpha=1.7, noise_variance=0.3),
        *[KernelSpec(MATERN, amplitude=2.1, lengthscales=ls, nu=nu, noise_variance=0.3) for nu in MATERN_NUS],
        *[KernelSpec(PERIODIC, amplitude=2.1, lengthscales=ls, roughness=0.9, period=23.3, **b, noise_variance=0.3)
          for b in bases],
    ]


def rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    denom = np.linalg.norm(want)
    return np.linalg.norm(got - want) / (denom if denom > 0 else 1.0)


# -- build_covariance --------------------------------------------------------


def test_build_covariance_single_point_identity():
    spec = KernelSpec(SQUARED_EXPONENTIAL)
    X = np.array([[2.0]])
    assert gp.build_covariance(X, X, spec, with_noise=True) == pytest.approx(np.array([[1.0]]))


def test_build_covariance_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    spec = random_spec(rng, 2, PERIODIC)
    X = np.column_stack([np.arange(3.0), rng.uniform(0, 1, 3)])
    got = gp.build_covariance(X, X, spec, with_noise=True)
    assert np.allclose(got, gram_oracle(X, spec, with_noise=True), rtol=1e-12)


def test_build_covariance_cross_block_has_no_noise():
    spec = KernelSpec(SQUARED_EXPONENTIAL, noise_variance=5.0)
    A = np.array([[0.0], [1.0]])
    B = np.array([[0.0], [1.0], [2.0]])
    K = gp.build_covariance(A, B, spec, with_noise=True)
    assert K.shape == (2, 3)
    assert K[0, 0] == pytest.approx(1.0)  # no sigma^2 despite equal values


def test_build_covariance_equal_valued_copies_are_distinct_samples():
    # the delta term keys on sample identity: a copy is a different list
    spec = KernelSpec(kernels.WHITE_NOISE, amplitude=2.0, noise_variance=5.0)
    X = np.array([[0.0], [1.0]])
    same = gp.build_covariance(X, X, spec, with_noise=True)
    cross = gp.build_covariance(X, X.copy(), spec, with_noise=True)
    assert np.allclose(same, 9.0 * np.eye(2))  # h^2 + sigma^2 on the diagonal
    assert np.all(cross == 0.0)


def test_build_covariance_dimension_mismatch():
    with pytest.raises(ValueError):
        gp.build_covariance(np.zeros((2, 1)), np.zeros((2, 2)), KernelSpec(SQUARED_EXPONENTIAL))


# -- posterior ---------------------------------------------------------------


def test_posterior_interpolates_noise_free_point():
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=2.0, noise_variance=0.0)
    train = TrainingSet.from_arrays([[3.0]], [7.5])
    pred = gp.posterior(train, [[3.0]], spec)
    assert pred.mean[0] == pytest.approx(7.5, rel=1e-9)
    assert pred.cov[0, 0] <= 1e-8 * spec.amplitude**2


def test_posterior_with_no_data_is_prior():
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.5, noise_variance=0.1)
    train = TrainingSet(inputs=np.empty((0, 1)), targets=np.empty(0), target_mean=4.0, target_scale=2.0)
    Q = np.array([[0.0], [1.0]])
    pred = gp.posterior(train, Q, spec)
    assert np.allclose(pred.mean, 4.0)
    assert np.allclose(pred.cov, gp.build_covariance(Q, Q, spec))


def test_posterior_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(123)
    for trial in range(30):
        ndim = int(rng.integers(1, 3))
        spec = random_spec(rng, ndim)
        train = random_train(rng, int(rng.integers(2, 7)), ndim)
        Q = train.inputs[:2] + rng.uniform(0.1, 0.9, size=(2, ndim))
        pred = gp.posterior(train, Q, spec)
        mean_o, cov_o = posterior_oracle(train, Q, spec)
        assert rel_err(pred.mean, mean_o) < 1e-8
        assert rel_err(pred.cov, cov_o) < 1e-8


def test_posterior_mean_interpolates_training_targets():
    rng = np.random.default_rng(9)
    spec = KernelSpec(MATERN, amplitude=1.0, lengthscales=(2.0,), nu=1.5, noise_variance=0.0)
    train = random_train(rng, 6, 1)
    pred = gp.posterior(train, train.inputs, spec)
    assert rel_err(pred.mean, train.targets) < 1e-6


def test_posterior_variance_never_grows_with_more_data():
    rng = np.random.default_rng(77)
    for _ in range(10):
        spec = random_spec(rng, 1)
        base = random_train(rng, 6, 1)
        extra_x = np.array([[float(rng.uniform(0, 200))]])
        bigger = TrainingSet(
            inputs=np.vstack([base.inputs, extra_x + 300.0]),  # append keeps time order
            targets=np.append(base.targets, rng.normal()),
            target_mean=base.target_mean,
            target_scale=base.target_scale,
        )
        Q = np.linspace(0, 200, 7)[:, None]
        var_small = np.diag(gp.posterior(base, Q, spec).cov)
        var_big = np.diag(gp.posterior(bigger, Q, spec).cov)
        assert np.all(var_big <= var_small + 1e-8 * spec.amplitude**2)


def test_posterior_invariant_to_target_scale_choice():
    rng = np.random.default_rng(5)
    train = random_train(rng, 8, 2)
    spec = random_spec(rng, 2, MATERN)
    raw = TrainingSet(train.inputs, train.targets, target_mean=train.target_mean, target_scale=1.0)
    scaled = TrainingSet(train.inputs, train.targets, target_mean=train.target_mean, target_scale=123.4)
    Q = train.inputs[:3] + 0.25
    a = gp.posterior(raw, Q, spec)
    b = gp.posterior(scaled, Q, spec)
    assert rel_err(b.mean, a.mean) < 1e-8
    assert rel_err(b.cov, a.cov) < 1e-8


def test_posterior_cov_is_symmetric_with_clamped_diagonal():
    rng = np.random.default_rng(21)
    train = random_train(rng, 6, 1)
    pred = gp.posterior(train, np.linspace(0, 100, 9)[:, None], random_spec(rng, 1))
    assert np.array_equal(pred.cov, pred.cov.T)
    assert np.all(np.diag(pred.cov) >= 0.0)


def test_posterior_cov_over_several_row_blocks_is_exactly_symmetric():
    # m = 600 spans several of the row blocks the prior block is built and mirrored in
    rng = np.random.default_rng(23)
    train = random_train(rng, 40, 2)
    Q = np.column_stack([np.linspace(0.0, 250.0, 600), rng.uniform(0, 1, 600)])
    empty = TrainingSet(inputs=np.empty((0, 2)), targets=np.empty(0), target_mean=1.0, target_scale=2.0)
    for family in (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC):
        spec = random_spec(rng, 2, family)
        for data in (train, empty):
            cov = gp.posterior(data, Q, spec).cov
            assert np.array_equal(cov, cov.T), spec.to_text()
            assert np.all(np.diag(cov) >= 0.0), spec.to_text()
        prior = gp.posterior(empty, Q, spec).cov
        assert np.array_equal(np.triu(prior), np.triu(gp.build_covariance(Q, Q, spec))), spec.to_text()


def test_posterior_prior_block_peaks_near_one_query_block():
    # one triangle of K(X*, X*), updated by an in-place dsyrk and mirrored: no m x m temporaries
    n, m = 200, 600
    rng = np.random.default_rng(24)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    query = np.column_stack([np.arange(float(n), n + m), rng.uniform(0, 1, m)])
    spec = kernels.parse("periodic(matern12; h=850.0, ls=[1.0, 8.0], w=10.0, T=288.0) + whitenoise(sigma2=4.0)")
    tracemalloc.start()
    try:
        gp.posterior(train, query, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * n + n * (m + 1) + 2.25 * m * m)


def test_posterior_peak_memory_is_at_most_four_grams():
    n = 1000
    rng = np.random.default_rng(22)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    query = np.column_stack([np.arange(float(n), n + 48.0), rng.uniform(0, 1, 48)])
    spec = kernels.parse("periodic(matern12; h=850.0, ls=[1.0, 8.0], w=10.0, T=288.0) + whitenoise(sigma2=4.0)")
    tracemalloc.start()
    try:
        gp.posterior(train, query, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n * n


def test_posterior_peak_memory_is_near_one_gram():
    # the Gram is one triangle in RFP storage, factorised and solved against
    # in the array it is built in: about half an n x n array
    n = 1000
    rng = np.random.default_rng(22)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    query = np.column_stack([np.arange(float(n), n + 48.0), rng.uniform(0, 1, 48)])
    spec = kernels.parse("periodic(matern12; h=850.0, ls=[1.0, 8.0], w=10.0, T=288.0) + whitenoise(sigma2=4.0)")
    tracemalloc.start()
    try:
        gp.posterior(train, query, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * 8 * n * n


def test_posterior_bitwise_equals_out_of_place_factorisation():
    rng = np.random.default_rng(31)
    n = 300
    for ndim in (1, 2):
        for family in (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC):
            spec = random_spec(rng, ndim, family)
            t = np.arange(float(n))
            X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, n)])
            train = TrainingSet.from_arrays(X, rng.normal(5.0, 3.0, n))
            Q = np.column_stack([np.arange(n, n + 24.0), rng.uniform(0, 1, 24)])[:, :ndim]
            pred = gp.posterior(train, Q, spec)
            mean, cov = posterior_out_of_place(train, Q, spec)
            assert np.array_equal(pred.mean, mean), spec.to_text()
            assert np.array_equal(pred.cov, cov), spec.to_text()


def test_posterior_without_covariance_gives_the_same_mean_and_no_cov():
    rng = np.random.default_rng(34)
    n = 120
    for family in (SQUARED_EXPONENTIAL, MATERN, PERIODIC):
        spec = random_spec(rng, 2, family)
        X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
        train = TrainingSet.from_arrays(X, rng.normal(5.0, 3.0, n))
        Q = np.column_stack([np.arange(n, n + 30.0), rng.uniform(0, 1, 30)])
        full = gp.posterior(train, Q, spec)
        mean_only = gp.posterior(train, Q, spec, covariance=False)
        assert np.array_equal(mean_only.mean, full.mean), spec.to_text()
        assert mean_only.cov is None
    prior = TrainingSet(inputs=np.empty((0, 2)), targets=np.empty(0), target_mean=4.0, target_scale=2.0)
    pred = gp.posterior(prior, Q, spec, covariance=False)
    assert np.array_equal(pred.mean, np.full(30, 4.0)) and pred.cov is None


def test_posterior_without_covariance_allocates_no_query_block():
    n, m = 50, 2000
    rng = np.random.default_rng(35)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    query = np.column_stack([np.arange(float(n), n + m), rng.uniform(0, 1, m)])
    spec = kernels.parse("periodic(matern12; h=850.0, ls=[1.0, 8.0], w=10.0, T=288.0) + whitenoise(sigma2=4.0)")
    tracemalloc.start()
    try:
        gp.posterior(train, query, spec, covariance=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 0.25 * m * m


def test_posterior_std_without_covariance_says_so():
    pred = gp.PosteriorPrediction(mean=np.zeros(3), cov=None)
    with pytest.raises(ValueError, match="without its covariance"):
        pred.std


def test_posterior_with_an_empty_query_returns_before_factorising(monkeypatch):
    rng = np.random.default_rng(36)
    train = random_train(rng, 20, 2)
    spec = random_spec(rng, 2)

    def no_factorisation(build, spec):
        raise AssertionError("an empty query factorised the Gram")

    monkeypatch.setattr(gp, "_cholesky_with_jitter", no_factorisation)
    pred = gp.posterior(train, np.empty((0, 2)), spec)
    assert pred.mean.shape == (0,) and pred.cov.shape == (0, 0)
    pred = gp.posterior(train, np.empty((0, 2)), spec, covariance=False)
    assert pred.mean.shape == (0,) and pred.cov is None


def test_posterior_matches_textbook_cho_solve_form():
    # alpha = K^-1 y by cho_solve, mean = Ks alpha, cov = Kss - v^T v with v = L^-1 Ks^T
    rng = np.random.default_rng(32)
    n = 300
    for ndim in (1, 2):
        for family in (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC):
            spec = random_spec(rng, ndim, family)
            t = np.arange(float(n))
            X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, n)])
            train = TrainingSet.from_arrays(X, rng.normal(5.0, 3.0, n))
            Q = np.column_stack([np.arange(n, n + 24.0), rng.uniform(0, 1, 24)])[:, :ndim]
            s2 = train.target_scale**2
            K = gp.build_covariance(train.inputs, train.inputs, spec, with_noise=True) / s2
            L = scipy.linalg.cholesky(K + 1e-10 * np.mean(np.diag(K)) * np.eye(n), lower=True)
            alpha = scipy.linalg.cho_solve((L, True), train.scaled_targets())
            Ks = gp.build_covariance(Q, train.inputs, spec) / s2
            v = scipy.linalg.solve_triangular(L, Ks.T, lower=True)
            mean = train.target_mean + train.target_scale * (Ks @ alpha)
            cov = gp.build_covariance(Q, Q, spec) - s2 * (v.T @ v)
            pred = gp.posterior(train, Q, spec)
            assert np.abs(pred.mean - mean).max() <= 1e-12 * np.abs(mean).max(), spec.to_text()
            # the posterior symmetrises and clamps its covariance; the raw form may differ by rounding there
            assert np.abs(pred.cov - cov).max() <= 1e-12 * np.abs(cov).max(), spec.to_text()


def test_posterior_names_a_non_finite_query_row():
    rng = np.random.default_rng(33)
    train = random_train(rng, 50, 2)
    spec = random_spec(rng, 2)
    for bad in (np.nan, np.inf, -np.inf):
        query = np.array([[10.0, 0.5], [52.0, bad], [60.0, 0.2]])
        with pytest.raises(ValueError, match=r"query row 1 "):
            gp.posterior(train, query, spec)
    # finite inputs whose cross block is not: inf * exp(-inf) is nan
    spec = KernelSpec(MATERN, amplitude=1.0, lengthscales=(0.1, 1.0), nu=1.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite entries for kernel " + re.escape(spec.to_text())):
            gp.posterior(train, [[1e308, 0.5]], spec)


def test_factorisation_gram_is_the_upper_triangle_of_the_full_gram():
    # the Gram posterior/LML/prior draws factorise is one triangle of the full
    # Gram in RFP storage, bitwise what dtrttf packs from the square, with
    # noise and 1/s2 applied block by block; odd and even n lay it out differently
    s2 = 2.7
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4, 5, 127, 128, 600):  # 600: several row blocks
        for ndim in (1, 2):
            t = np.arange(float(n))
            X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, n)])
            ls = (2.0, 0.5)[:ndim]
            bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.7)]
            bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
            specs = [
                KernelSpec(WHITE_NOISE, amplitude=1.3, noise_variance=0.2),  # the diagonal only
                KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.3, lengthscales=ls, noise_variance=0.2),
                KernelSpec(RATIONAL_QUADRATIC, amplitude=1.3, lengthscales=ls, alpha=1.7, noise_variance=0.2),
                *[KernelSpec(MATERN, amplitude=1.3, lengthscales=ls, nu=nu, noise_variance=0.2) for nu in MATERN_NUS],
                *[KernelSpec(PERIODIC, amplitude=1.3, lengthscales=ls, roughness=0.9, period=24.0, **b, noise_variance=0.2)
                  for b in bases],
            ]
            train = gp.TrainingSet.from_arrays(X, np.zeros(n))
            for spec in specs:
                build = gp._rfp_builder(X, spec, s2)
                build()[...] = np.nan
                arf = build()  # refilled in the same buffer: every entry is written
                full = gp.build_covariance(X, X, spec, with_noise=True) / s2
                want, info = scipy.linalg.lapack.dtrttf(np.asfortranarray(full), transr="N", uplo="L")
                assert info == 0 and arf.tobytes() == want.tobytes(), (n, spec.to_text())
                assert np.array_equal(np.concatenate(gp._diagonal_runs(arf)), np.diag(full)), (n, spec.to_text())
                # the gradient's Gram, built whole over the spec's own h^2, is finished the same way
                whole = gp.LmlGradient(train, []).covariance(spec)
                want = gp.build_covariance(X, X, spec, with_noise=True) / spec.amplitude**2
                assert np.array_equal(whole, want), (n, spec.to_text())


def test_non_finite_gram_raises_value_error_naming_the_kernel():
    # h^2 = 1e308 is finite; the noise takes the diagonal to inf
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1e154, lengthscales=(3.0,), noise_variance=1e308)
    train = random_train(np.random.default_rng(43), 150, 1)
    match = re.escape(spec.to_text())
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=match):
            gp.posterior(train, [[250.0]], spec)
        with pytest.raises(ValueError, match=match):
            gp.log_marginal_likelihood(train, spec)
        gradient = gp.LmlGradient(train, spec.hyperparameters())
        with pytest.raises(ValueError, match=match):
            gp.log_marginal_likelihood(train, spec, gradient)


def _record_cholesky_attempts(monkeypatch, routine: str) -> list[str]:
    """Wrap ``scipy.linalg.lapack``'s ``routine`` (``dpftrf`` or ``dpotrf``) and record each call's outcome, as a tracer would."""
    attempts: list[str] = []
    factorise = getattr(scipy.linalg.lapack, routine)

    def recorded(*args, **kwargs):
        factor, info = factorise(*args, **kwargs)
        attempts.append("failed" if info > 0 else "ok")
        return factor, info

    monkeypatch.setattr(scipy.linalg.lapack, routine, recorded)
    return attempts


def _duplicate_rows(n: int) -> np.ndarray:
    """n time rows, each value twice (the last once for odd n): a Gram with duplicate rows."""
    return np.repeat(np.arange(float((n + 1) // 2)), 2)[:n, None]


def _lowered_duplicate_row_gram(spec: KernelSpec, shift: float, n: int = 20):
    """``build()`` of the zero-noise RFP Gram of duplicated rows, diagonal lowered by ``shift * mean(diag)``.

    The Gram itself factorises at the first jitter; the lowered diagonal
    makes it indefinite until the jitter exceeds ``shift``.
    """
    gram = gp._rfp_builder(_duplicate_rows(n), spec, 1.0)
    builds: list[int] = []

    def build():
        arf = gram()
        runs = gp._diagonal_runs(arf)
        mean = np.mean(np.concatenate(runs))
        for run in runs:
            run -= shift * mean
        builds.append(1)
        return arf

    return build, builds


def _lowered_near_duplicate_square(spec: KernelSpec, shift: float, n: int = 20):
    """``build()`` of the fit's square Gram (:meth:`gp.LmlGradient.covariance`) of times 0 to n - 1, diagonal lowered.

    A training set cannot repeat a time, so rows far inside ``spec``'s
    lengthscale stand in for duplicates: the Gram is numerically singular,
    and lowering its diagonal by ``shift * mean(diag)`` makes it indefinite
    until the jitter exceeds ``shift``.
    """
    train = TrainingSet.from_arrays(np.arange(float(n))[:, None], np.zeros(n))
    gradient = gp.LmlGradient(train, [])
    builds: list[int] = []

    def build():
        K = gradient.covariance(spec)
        K[np.diag_indices_from(K)] -= shift * np.mean(np.diag(K))
        builds.append(1)
        return K

    return build, builds


def test_cholesky_retry_refills_the_buffer_and_escalates_jitter(monkeypatch):
    spec = KernelSpec(SQUARED_EXPONENTIAL, lengthscales=(3.0,))
    for n in (20, 21):  # RFP lays out even and odd n differently
        build, builds = _lowered_duplicate_row_gram(spec, 3e-9, n)
        with monkeypatch.context() as patched:
            attempts = _record_cholesky_attempts(patched, "dpftrf")
            L = gp._cholesky_with_jitter(build, spec)
        # the failures at eps 1e-10 and 1e-9 return info > 0 from dpftrf,
        # and each failed attempt's wiped buffer is rebuilt
        assert attempts == ["failed", "failed", "ok"], n
        assert len(builds) == 3, n
        K = gp.build_covariance(_duplicate_rows(n), _duplicate_rows(n), spec)
        K[np.diag_indices_from(K)] -= 3e-9 * np.mean(np.diag(K))
        # packed and factorised out of place, from the same jitter up: bit for bit the same factor
        assert L.tobytes() == jittered_rfp_factor_out_of_place(K).tobytes(), n
        # and a factor of the Gram at the third jitter
        full = np.tril(scipy.linalg.lapack.dtfttr(n, L, transr="N", uplo="L")[0])
        eps = gp.JITTER_INITIAL * 10.0 * 10.0
        assert np.abs(full @ full.T - (K + eps * np.mean(np.diag(K)) * np.eye(n))).max() <= 1e-14, n


def _fill_unread_triangle(monkeypatch, value: float) -> None:
    """Set the fit's square Gram's strictly lower triangle, which the factorisation does not read, to ``value`` once built."""
    covariance = gp.LmlGradient.covariance

    def fill(K):
        K[np.tril_indices(K.shape[0], -1)] = value
        return K

    monkeypatch.setattr(gp.LmlGradient, "covariance", lambda self, spec: fill(covariance(self, spec)))


def test_cholesky_leaves_the_unread_triangle_as_built(monkeypatch):
    # the fit's square: dpotrf on the Fortran view, its other triangle left as built
    spec = KernelSpec(SQUARED_EXPONENTIAL, lengthscales=(1e5,))
    _fill_unread_triangle(monkeypatch, np.nan)
    build, builds = _lowered_near_duplicate_square(spec, 3e-9)
    attempts = _record_cholesky_attempts(monkeypatch, "dpotrf")
    L = gp._cholesky_with_jitter(build, spec)
    monkeypatch.undo()
    assert attempts == ["failed", "failed", "ok"]
    assert len(builds) == 3  # two failed attempts, each rebuilt
    assert np.isnan(L[np.triu_indices(L.shape[0], 1)]).all()
    K = _lowered_near_duplicate_square(spec, 3e-9)[0]()
    eps = gp.JITTER_INITIAL * 10.0 * 10.0
    assert np.array_equal(np.tril(L), scipy.linalg.cholesky(K + eps * np.mean(np.diag(K)) * np.eye(K.shape[0]), lower=True))


def test_factor_readers_do_not_read_the_unread_triangle(monkeypatch):
    # NaN where the fit's square factorisation does not read changes no
    # likelihood, gradient or amplitude by a bit; the gradient zeroes that triangle itself
    rng = np.random.default_rng(47)
    n = 300  # several row blocks
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(5.0, 3.0, n))

    def results(spec):
        gradient = gp.LmlGradient(train, spec.hyperparameters())
        return np.array([gp.log_marginal_likelihood(train, spec, gradient), *gradient.value, gradient.scale])

    for spec in family_specs(2):
        with monkeypatch.context() as patched:
            _fill_unread_triangle(patched, 0.0)
            want = results(spec)
        with monkeypatch.context() as patched:
            _fill_unread_triangle(patched, np.nan)
            got = results(spec)
        assert want.tobytes() == got.tobytes(), spec.to_text()


def test_cholesky_failure_at_max_jitter_names_the_kernel(monkeypatch):
    spec = KernelSpec(SQUARED_EXPONENTIAL, lengthscales=(3.0,))
    for n in (20, 21):
        build, _ = _lowered_duplicate_row_gram(spec, 1e-2, n)
        with monkeypatch.context() as patched:
            attempts = _record_cholesky_attempts(patched, "dpftrf")
            with pytest.raises(gp.ConditioningError, match=re.escape(spec.to_text())):
                gp._cholesky_with_jitter(build, spec)
        assert attempts == ["failed"] * 7, n  # eps = 1e-10, 1e-9, ..., 1e-4


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet.from_arrays([[0.0], [0.0]], [1.0, 2.0])  # non-increasing time
    with pytest.raises(ValueError):
        TrainingSet.from_arrays([[0.0]], [np.nan])
    with pytest.raises(ValueError):
        TrainingSet.from_arrays([[0.0], [1.0]], [1.0])


# -- log marginal likelihood ---------------------------------------------------


def test_lml_closed_form_single_point():
    train = TrainingSet(inputs=np.array([[0.0]]), targets=np.array([0.0]), target_mean=0.0, target_scale=1.0)
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.0, noise_variance=0.0)
    assert gp.log_marginal_likelihood(train, spec) == pytest.approx(-HALF_LOG_2PI, abs=1e-9)


def test_lml_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ndim = int(rng.integers(1, 3))
        spec = random_spec(rng, ndim)
        train = random_train(rng, int(rng.integers(1, 6)), ndim)
        assert gp.log_marginal_likelihood(train, spec) == pytest.approx(lml_oracle(train, spec), rel=1e-8)


def test_lml_increases_with_noise_on_pure_noise_data():
    rng = np.random.default_rng(8)
    train = TrainingSet.from_arrays(np.arange(24.0)[:, None], rng.normal(size=24))
    var = train.target_scale**2
    tiny_kernel = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1e-3 * train.target_scale, lengthscales=(2.0,))
    values = [
        gp.log_marginal_likelihood(train, replace(tiny_kernel, noise_variance=f * var))
        for f in np.linspace(0.05, 1.0, 12)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- the concentrated likelihood ------------------------------------------------


def test_concentrated_lml_is_the_lml_at_its_best_amplitude():
    # with a gradient the amplitude is concentrated out: the value is the
    # plain LML at h^2 = c s2 and sigma^2 = lambda c s2
    rng = np.random.default_rng(48)
    for ndim in (1, 2):
        for spec in family_specs(ndim):
            train = random_train(rng, 60, ndim)
            gradient = gp.LmlGradient(train, spec.hyperparameters())
            value = gp.log_marginal_likelihood(train, spec, gradient)
            h2 = gradient.scale * train.target_scale**2
            ratio = spec.noise_variance / spec.amplitude**2
            best = replace(spec, amplitude=math.sqrt(h2), noise_variance=ratio * h2)
            assert value == pytest.approx(gp.log_marginal_likelihood(train, best), rel=1e-10), spec.to_text()
            for k in (0.9, 1.1):
                other = replace(spec, amplitude=math.sqrt(k * h2), noise_variance=ratio * k * h2)
                assert gp.log_marginal_likelihood(train, other) < value, spec.to_text()
            # and it does not read the spec's own amplitude
            assert gp.log_marginal_likelihood(train, replace(spec, amplitude=1.0, noise_variance=ratio), gradient) \
                == pytest.approx(value, rel=1e-12), spec.to_text()


def test_concentrated_gradient_matches_a_stencil_of_the_concentrated_value():
    # over the shape parameters and log lambda, lambda = sigma^2 / h^2, which at h = 1 is sigma^2
    rng = np.random.default_rng(49)
    for ndim in (1, 2):
        for spec in family_specs(ndim):
            train = random_train(rng, 60, ndim)
            params = gp._free_parameters(train, spec)[0]
            unit = replace(spec, amplitude=1.0, noise_variance=spec.noise_variance / spec.amplitude**2)

            def value(x):
                spec_x = kernels.with_hyperparameters(unit, params, np.exp(x))
                return gp.log_marginal_likelihood(train, spec_x, gp.LmlGradient(train, params))

            x0 = np.log([p.get(unit) for p in params])
            gradient = gp.LmlGradient(train, params)
            gp.log_marginal_likelihood(train, unit, gradient)
            want = stencil_gradient(value, x0)
            assert np.linalg.norm(gradient.value - want) <= 1e-6 * np.linalg.norm(want), spec.to_text()


@pytest.mark.parametrize("k", [2.0, 0.25])
def test_fit_does_not_depend_on_how_the_amplitude_was_anchored(k):
    # h times k and sigma^2 times k^2 keep lambda; a power of two scales it exactly
    t = np.arange(0.0, 3 * 288.0, 24.0)
    rng = np.random.default_rng(50)
    X = np.column_stack([t, rng.uniform(0, 1, t.size)])
    y = 1000.0 * np.clip(np.sin(2 * np.pi * t / 288.0), 0.0, None) * (1.0 - 0.5 * X[:, 1])
    train = TrainingSet.from_arrays(X, y + rng.normal(0.0, 5.0, t.size))
    template = kernels.parse("periodic(se; h=300.0, ls=[1.0, 0.5], w=1.0, T=288.0) + whitenoise(sigma2=900.0)")
    scaled = replace(template, amplitude=k * template.amplitude, noise_variance=k * k * template.noise_variance)
    fitted = gp.fit_hyperparameters(train, template, restarts=2, seed=4)
    assert gp.fit_hyperparameters(train, scaled, restarts=2, seed=4) == fitted
    assert fitted != template


def test_fit_from_a_template_whose_h_squared_underflows_starts_on_the_noise_ratio_box():
    # h^2 = 0 in floating point: lambda = sigma^2 / h^2 is inf, and restart 0 starts at the box's ceiling
    train, truth = make_se_data(3, n=20)
    fitted = gp.fit_hyperparameters(train, replace(truth, amplitude=1e-170), restarts=1, seed=0)
    assert math.isfinite(fitted.amplitude) and fitted.amplitude > 0
    assert all(math.isfinite(p.get(fitted)) and p.get(fitted) > 0 for p in fitted.hyperparameters())


def test_fit_on_no_rows_returns_a_finite_spec():
    train = TrainingSet.from_arrays(np.empty((0, 1)), [])
    fitted = gp.fit_hyperparameters(train, KernelSpec(SQUARED_EXPONENTIAL, lengthscales=(2.0,), noise_variance=0.1))
    # c = 1 with no rows: h is the target scale
    assert fitted.amplitude == train.target_scale == 1.0
    assert all(math.isfinite(p.get(fitted)) for p in fitted.hyperparameters())


# -- finite-difference gradient -------------------------------------------------


def test_lml_gradient_matches_full_weight_matrix_oracle():
    # every hyperparameter free, alpha included, for each family and each
    # periodic base in 1-D and 2-D; at the best amplitude the plain gradient
    # by log sigma^2 and the shape parameters is the concentrated one (the
    # envelope theorem), and whitenoise's h and sigma form one variance, so
    # its gradient is about 0
    rng = np.random.default_rng(45)
    for ndim in (1, 2):
        for spec in [KernelSpec(WHITE_NOISE, amplitude=1.3, noise_variance=0.4), *family_specs(ndim)]:
            train = random_train(rng, 80, ndim)
            params = spec.hyperparameters()
            gradient = gp.LmlGradient(train, params)
            value = gp.log_marginal_likelihood(train, spec, gradient)
            h2 = gradient.scale * train.target_scale**2
            best = replace(spec, amplitude=math.sqrt(h2), noise_variance=spec.noise_variance / spec.amplitude**2 * h2)
            assert value == pytest.approx(gp.log_marginal_likelihood(train, best), rel=1e-10), spec.to_text()
            want = lml_gradient_full_w(train, best, params)
            err = np.linalg.norm(gradient.value - want)
            assert err <= 1e-12 * max(np.linalg.norm(want), 1.0), spec.to_text()


def test_lml_gradient_holds_at_most_five_grams_between_evaluations():
    # K^-1's buffer carries the trace weights; the rest is the evaluator's
    # Gram, its geometry (one |dx| and the chord) and its one scratch buffer,
    # where each distance variable is rebuilt
    n = 1000
    rng = np.random.default_rng(46)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    spec = kernels.parse("periodic(matern12; h=85.0, ls=[1.0, 8.0], w=10.0, T=288.0) + whitenoise(sigma2=400.0)")
    tracemalloc.start()
    try:
        gradient = gp.LmlGradient(train, spec.hyperparameters())
        for h in (85.0, 90.0):
            gp.log_marginal_likelihood(train, replace(spec, amplitude=h), gradient)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 5.05 * 8 * n * n
    assert peak <= 5.2 * 8 * n * n


@pytest.mark.parametrize("shape", ["se", "rq", "matern12", "matern32", "matern52"])
def test_lml_gradient_peaks_at_most_one_gram_and_some_row_blocks_above_what_it_holds(shape):
    # the shapes' expressions are evaluated a row block at a time; only rq's
    # alpha term with two factors and a matern's multi-axis lengthscale term
    # take one n x n array of their own
    n = 1000
    rng = np.random.default_rng(48)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    train = TrainingSet.from_arrays(X, rng.normal(500.0, 100.0, n))
    alpha = ", alpha=1.5" if shape == "rq" else ""
    for text in (f"periodic({shape}; h=85.0, ls=[1.0, 8.0]{alpha}, w=10.0, T=288.0)", f"{shape}(h=85.0, ls=[10.0, 8.0]{alpha})"):
        spec = kernels.parse(text + " + whitenoise(sigma2=400.0)")
        tracemalloc.start()
        try:
            gradient = gp.LmlGradient(train, spec.hyperparameters())
            gp.log_marginal_likelihood(train, spec, gradient)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 5.05 * 8 * n * n, text
        assert peak <= 6.5 * 8 * n * n, text


@pytest.mark.parametrize("field", ["amplitude", "period", "nu"])
def test_lml_gradient_rejects_a_field_it_cannot_differentiate(field):
    # the amplitude is solved in closed form, and T and nu are constants of the kernel
    train = random_train(np.random.default_rng(51), 10, 1)
    with pytest.raises(ValueError, match=repr(field)):
        gp.LmlGradient(train, [kernels.Hyperparameter("roughness"), kernels.Hyperparameter(field)])


def test_fd_gradient_agrees_with_higher_order_stencil():
    rng = np.random.default_rng(100)
    for _ in range(15):
        ndim = int(rng.integers(1, 3))
        spec = random_spec(rng, ndim)
        train = random_train(rng, 8, ndim)

        names = ["amplitude", "noise_variance"]

        def objective(x):
            s = replace(spec, amplitude=math.exp(x[0]), noise_variance=math.exp(x[1]))
            return -gp.log_marginal_likelihood(train, s)

        x0 = np.log([spec.amplitude, spec.noise_variance])
        g2 = fd_gradient(objective, x0)
        g5 = stencil_gradient(objective, x0)
        assert np.linalg.norm(g2 - g5) <= 1e-4 * max(np.linalg.norm(g5), 1.0)


# -- fitting -----------------------------------------------------------------


def make_se_data(seed, n=40, h=1.0, ls=4.0, sigma2=0.25):
    rng = np.random.default_rng(seed)
    X = np.arange(float(n))[:, None]
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=h, lengthscales=(ls,), noise_variance=sigma2)
    K = gp.build_covariance(X, X, spec, with_noise=True)
    y = np.linalg.cholesky(K + 1e-12 * np.eye(n)) @ rng.standard_normal(n)
    return TrainingSet.from_arrays(X, y), spec


def log_param_error(fitted, truth):
    pairs = [
        (fitted.amplitude, truth.amplitude),
        (fitted.lengthscales[0], truth.lengthscales[0]),
        (fitted.noise_variance, truth.noise_variance),
    ]
    return max(abs(math.log(a) - math.log(b)) for a, b in pairs)


def generic_template(train):
    """Data-agnostic starting spec: scale-sized amplitude, mid-range lengthscale."""
    span = float(np.ptp(train.inputs[:, 0]))
    return KernelSpec(
        SQUARED_EXPONENTIAL,
        amplitude=train.target_scale,
        lengthscales=(0.1 * span,),
        noise_variance=0.1 * train.target_scale**2,
    )


def test_fit_recovers_generating_se_hyperparameters():
    hits = 0
    for seed in range(10):
        train, truth = make_se_data(seed)
        fitted = gp.fit_hyperparameters(train, generic_template(train), restarts=3, seed=seed)
        if log_param_error(fitted, truth) <= 0.5:
            hits += 1
    assert hits >= 7


def test_fit_is_deterministic_given_seed():
    train, truth = make_se_data(4)
    a = gp.fit_hyperparameters(train, truth, restarts=2, seed=11)
    b = gp.fit_hyperparameters(train, truth, restarts=2, seed=11)
    assert a == b


def test_fit_more_restarts_never_worse():
    train, truth = make_se_data(6)
    one = gp.fit_hyperparameters(train, truth, restarts=1, seed=3)
    five = gp.fit_hyperparameters(train, truth, restarts=5, seed=3)
    assert gp.log_marginal_likelihood(train, five) >= gp.log_marginal_likelihood(train, one) - 1e-9


def test_fit_constant_zero_targets_drives_noise_down():
    train = TrainingSet.from_arrays(np.arange(20.0)[:, None], np.zeros(20))
    template = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.0, lengthscales=(2.0,), noise_variance=0.1)
    fitted = gp.fit_hyperparameters(train, template, restarts=2, seed=0)
    assert fitted.noise_variance < 1e-4 * train.target_scale**2
    # y^T A^-1 y = 0, so c sits on the floor of the amplitude's box
    assert fitted.amplitude == pytest.approx(math.sqrt(gp._SCALE_BOX[0]) * train.target_scale, rel=1e-12)
    assert all(math.isfinite(p.get(fitted)) and p.get(fitted) > 0 for p in fitted.hyperparameters())


def test_fit_factorises_once_per_objective_evaluation(monkeypatch):
    # the fit takes no finite differences: the package carries none
    assert not hasattr(gp, "fd_gradient")
    train, truth = make_se_data(2, n=30)
    counts = {"cholesky": 0, "nfev": 0}
    cholesky, minimize = gp._cholesky_with_jitter, scipy.optimize.minimize

    def counted_cholesky(K, spec):
        counts["cholesky"] += 1
        return cholesky(K, spec)

    def counted_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        counts["nfev"] += result.nfev
        return result

    monkeypatch.setattr(gp, "_cholesky_with_jitter", counted_cholesky)
    monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
    gp.fit_hyperparameters(train, truth, restarts=2, seed=5)
    assert counts["nfev"] > 0
    assert counts["cholesky"] == counts["nfev"]


def test_free_parameters_take_their_bounds_from_one_table():
    # target scale 2, input ranges 30 (time) and 0.75 (cloud): every bound is exact;
    # the amplitude is solved in closed form, and the noise row is in units of h^2
    X = np.column_stack([[0.0, 10.0, 20.0, 30.0], [0.25, 0.5, 0.75, 1.0]])
    train = TrainingSet.from_arrays(X, [-2.0, 2.0, -2.0, 2.0])
    spec = KernelSpec(PERIODIC, lengthscales=(1.0, 1.0), alpha=2.0, roughness=1.0, period=24.0, base=RATIONAL_QUADRATIC)
    expected = {
        "roughness": (None, 0.1, 10.0, 100.0),
        "lengthscales": (1, 1.0, 7.5, 100.0),
        "alpha": (None, 0.1, 100.0, 100.0),
        "noise_variance": (None, 1e-6, 1.0, 1e4),
    }
    params, (lo, hi), (box_lo, box_hi) = gp._free_parameters(train, spec)
    assert [(p.field, p.index) for p in params] == [(field, row[0]) for field, row in expected.items()]
    lo_, hi_, margin = (np.log([row[k] for row in expected.values()]) for k in (1, 2, 3))
    assert np.array_equal(lo, lo_) and np.array_equal(hi, hi_)
    assert np.array_equal(box_lo, lo_ - margin) and np.array_equal(box_hi, hi_ + margin)


@pytest.mark.parametrize("base", ["matern12", "se"])
def test_fit_returns_the_template_period_exactly(base):
    # T, like nu, is a constant of the kernel: no fit moves it off the template's 290
    t = np.arange(0.0, 3 * 288.0, 12.0)
    rng = np.random.default_rng(47)
    X = np.column_stack([t, rng.uniform(0, 1, t.size)])
    y = 1000.0 * np.clip(np.sin(2 * np.pi * t / 288.0), 0.0, None) * (1.0 - 0.5 * X[:, 1])
    template = kernels.parse(f"periodic({base}; h=300.0, ls=[1.0, 0.5], w=1.0, T=290.0) + whitenoise(sigma2=100.0)")
    fitted = gp.fit_hyperparameters(TrainingSet.from_arrays(X, y), template, restarts=2, seed=3, max_iter=60)
    assert fitted.period == 290.0
    assert fitted != template


def test_fit_rejects_zero_restarts():
    train, truth = make_se_data(1, n=8)
    with pytest.raises(ValueError):
        gp.fit_hyperparameters(train, truth, restarts=0)


# -- prior sampling -----------------------------------------------------------


def test_sample_prior_covariance_matches_kernel():
    spec = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.3, lengthscales=(1.5,), noise_variance=0.2)
    X = np.array([[0.0], [0.5], [1.0]])
    draws = gp.sample_prior(X, spec, count=10_000, seed=99)
    emp = np.cov(draws.T, ddof=1)
    K = gp.build_covariance(X, X, spec, with_noise=True)
    assert np.max(np.abs(emp - K)) / np.max(np.abs(K)) < 0.05


def test_sample_prior_deterministic():
    spec = KernelSpec(MATERN, nu=0.5)
    X = np.arange(4.0)[:, None]
    assert np.array_equal(gp.sample_prior(X, spec, 5, seed=7), gp.sample_prior(X, spec, 5, seed=7))


def test_sample_prior_names_a_non_finite_query_row():
    # the query is checked before any kernel is evaluated: no warning, and the row is named, not the kernel
    spec = kernels.parse("periodic(matern12; h=1.0, ls=[1.0, 0.3], w=1.0, T=288.0)")
    for bad in (np.nan, np.inf, -np.inf):
        for query, row in (([[1.0, bad], [2.0, 0.3]], 0), ([[1.0, 0.2], [bad, 0.3]], 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"query row {row} has non-finite inputs"):
                    gp.sample_prior(query, spec, 2, seed=1)


def test_sample_prior_degenerate_duplicate_rows():
    spec = KernelSpec(SQUARED_EXPONENTIAL, noise_variance=0.0)
    X = np.array([[1.0], [1.0]])
    draws = gp.sample_prior(X, spec, count=50, seed=1)
    assert np.max(np.abs(draws[:, 0] - draws[:, 1])) < 1e-3
