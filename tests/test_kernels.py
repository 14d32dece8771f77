"""Kernel evaluation, composition, properties, and the text form."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from pvgp import kernels
from pvgp.kernels import (
    MATERN,
    MATERN_NUS,
    PERIODIC,
    RATIONAL_QUADRATIC,
    SQUARED_EXPONENTIAL,
    WHITE_NOISE,
    KernelSpec,
    KernelSpecError,
)

EXP_M1 = 0.36787944117144233  # exp(-1)
EXP_M2 = 0.1353352832366127  # exp(-2)
MATERN32_AT_1 = 0.48335772459650765  # (1 + sqrt(3)) * exp(-sqrt(3))


def spec_se(h=1.0, ls=(1.0,), sigma2=0.0):
    return KernelSpec(SQUARED_EXPONENTIAL, amplitude=h, lengthscales=ls, noise_variance=sigma2)


def spec_periodic(base_family=MATERN, nu=0.5, alpha=None, h=1.0, ls=(1.0,), w=1.0, T=288.0, sigma2=0.0):
    base = KernelSpec(base_family, alpha=alpha, nu=nu if base_family == MATERN else None)
    return KernelSpec(
        PERIODIC, amplitude=h, lengthscales=ls, roughness=w, period=T, base=base, noise_variance=sigma2
    )


def family_specs(ndim=1):
    """One representative spec per kernel family, for property sweeps."""
    ls = tuple([2.0] + [0.5] * (ndim - 1))
    return [
        KernelSpec(WHITE_NOISE, amplitude=0.7),
        KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.3, lengthscales=ls),
        KernelSpec(RATIONAL_QUADRATIC, amplitude=0.9, lengthscales=ls, alpha=1.7),
        KernelSpec(MATERN, amplitude=1.1, lengthscales=ls, nu=1.5),
        spec_periodic(nu=0.5, h=0.8, ls=ls, w=0.9, T=7.0),
    ]


from oracles import composite_oracle

# -- white noise -----------------------------------------------------------


def test_white_noise_diagonal():
    assert kernels.eval_white_noise(3, 3, 0.25) == 0.25


def test_white_noise_off_diagonal():
    assert kernels.eval_white_noise(3, 4, 0.25) == 0.0


def test_white_noise_zero_variance():
    assert kernels.eval_white_noise(0, 0, 0.0) == 0.0


def test_white_noise_rejects_negative_variance():
    with pytest.raises(KernelSpecError):
        kernels.eval_white_noise(0, 0, -1e-3)


# -- squared exponential ----------------------------------------------------


def test_se_identity():
    assert kernels.eval_se(0.0, 2.0) == 4.0


def test_se_unit_distance():
    assert kernels.eval_se(1.0, 1.0) == pytest.approx(EXP_M1, rel=1e-15)


def test_se_far_limit():
    assert kernels.eval_se(40.0, 1.0) < 1e-12


# -- rational quadratic ------------------------------------------------------


def test_rq_identity():
    assert kernels.eval_rq(0.0, 1.0, 1.0) == 1.0


def test_rq_unit():
    assert kernels.eval_rq(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=0)


def test_rq_limits_to_se():
    assert abs(kernels.eval_rq(1.0, 1.0, 1e6) - kernels.eval_se(1.0, 1.0)) < 1e-4


def test_rq_se_convergence_is_monotone():
    r2 = np.linspace(0.0, 10.0, 201)
    se = kernels.eval_se(r2, 1.0)
    sups = [np.max(np.abs(kernels.eval_rq(r2, 1.0, 2.0**k) - se)) for k in range(21)]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-5


# -- matern ------------------------------------------------------------------


def test_matern_identity():
    assert kernels.eval_matern(0.0, 3.0, 0.5) == 9.0


def test_matern12_unit():
    assert kernels.eval_matern(1.0, 1.0, 0.5) == pytest.approx(EXP_M1, rel=1e-15)


def test_matern32_unit_closed_form():
    assert kernels.eval_matern(1.0, 1.0, 1.5) == pytest.approx(MATERN32_AT_1, rel=1e-15)


def test_matern_closed_form_matches_bessel_oracle():
    # standard Matern via the modified Bessel function of the second kind
    for nu in (0.5, 1.5, 2.5):
        for r in (0.05, 0.3, 1.0, 2.7):
            arg = math.sqrt(2 * nu) * r
            oracle = (2 ** (1 - nu) / math.gamma(nu)) * arg**nu * scipy.special.kv(nu, arg)
            assert kernels.eval_matern(r, 1.0, nu) == pytest.approx(oracle, rel=1e-10)


def test_matern_rejects_unsupported_nu():
    with pytest.raises(KernelSpecError):
        kernels.eval_matern(1.0, 1.0, 2.0)


# -- periodic ----------------------------------------------------------------


def se_base():
    return KernelSpec(SQUARED_EXPONENTIAL)


def test_periodic_identity():
    assert kernels.eval_periodic(0.0, 1.0, 1.0, 288.0, se_base()) == pytest.approx(1.0, abs=0)


def test_periodic_full_period():
    assert kernels.eval_periodic(288.0, 1.0, 1.0, 288.0, se_base()) == pytest.approx(1.0, abs=1e-15)


def test_periodic_antiperiodic_point():
    k = kernels.eval_periodic(144.0, 1.0, 1.0, 288.0, se_base())
    assert k == pytest.approx(EXP_M2, rel=1e-14)


def test_periodic_is_periodic():
    rng = np.random.default_rng(7)
    base = se_base()
    for d in rng.uniform(0, 600, size=20):
        k0 = kernels.eval_periodic(d, 1.2, 0.7, 288.0, base)
        for n in (1, 2, 5):
            assert kernels.eval_periodic(d + n * 288.0, 1.2, 0.7, 288.0, base) == pytest.approx(k0, abs=1e-12)


def test_periodic_rejects_non_stationary_base():
    with pytest.raises(KernelSpecError):
        kernels.eval_periodic(1.0, 1.0, 1.0, 288.0, KernelSpec(WHITE_NOISE))


def test_periodic_base_cannot_be_periodic_or_noise():
    with pytest.raises(KernelSpecError):
        spec_periodic(base_family=WHITE_NOISE, nu=None)


# -- composite ---------------------------------------------------------------


def test_composite_diagonal_includes_noise():
    spec = spec_se(h=1.0, sigma2=0.1)
    assert kernels.eval_composite([3.0], [3.0], 5, 5, spec) == pytest.approx(1.1, abs=0)


def test_composite_noise_keys_on_index_not_value():
    spec = spec_se(h=1.0, sigma2=0.1)
    assert kernels.eval_composite([3.0], [3.0], 5, 6, spec) == pytest.approx(1.0, abs=0)


def test_composite_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for spec in family_specs(ndim=2):
        for _ in range(25):
            xi, xj = rng.normal(size=2), rng.normal(size=2)
            i, j = rng.integers(0, 4, size=2)
            got = kernels.eval_composite(xi, xj, int(i), int(j), spec)
            assert got == pytest.approx(composite_oracle(xi, xj, int(i), int(j), spec), rel=1e-12)


def test_composite_dimensionality_mismatch():
    with pytest.raises(ValueError):
        kernels.eval_composite([1.0, 2.0], [1.0], 0, 1, spec_se())


def test_composite_symmetry():
    rng = np.random.default_rng(3)
    for spec in family_specs(ndim=2):
        for _ in range(20):
            xi, xj = rng.normal(size=2), rng.normal(size=2)
            i, j = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            assert kernels.eval_composite(xi, xj, i, j, spec) == kernels.eval_composite(xj, xi, j, i, spec)


def test_boundedness_by_self_covariance():
    rng = np.random.default_rng(11)
    for spec in family_specs(ndim=2):
        if spec.family == WHITE_NOISE:
            continue
        for _ in range(30):
            xi, xj = rng.normal(size=2) * 3, rng.normal(size=2) * 3
            self_k = kernels.eval_composite(xi, xi, 0, 1, spec)  # distinct indices: no noise
            cross = kernels.eval_composite(xi, xj, 0, 1, spec)
            assert abs(cross) <= self_k + 1e-15


def test_gram_matrices_are_positive_semidefinite():
    rng = np.random.default_rng(2024)
    specs = family_specs(ndim=2) + [spec_se(h=1.0, ls=(2.0, 0.5), sigma2=0.3)]
    for spec in specs:
        for _ in range(50):
            n = int(rng.integers(2, 21))
            X = np.column_stack([np.sort(rng.uniform(0, 600, size=n)), rng.uniform(0, 1, size=n)])
            K = kernels.main_matrix(spec, X, X, same_samples=True)
            K += spec.noise_variance * np.eye(n)
            evals = np.linalg.eigvalsh((K + K.T) / 2)
            assert evals.min() >= -1e-8 * np.trace(K)


def test_main_matrix_matches_pointwise_loop():
    rng = np.random.default_rng(5)
    A = np.column_stack([np.arange(4.0), rng.uniform(0, 1, 4)])
    B = np.column_stack([np.arange(3.0) + 0.5, rng.uniform(0, 1, 3)])
    for spec in family_specs(ndim=2):
        K = kernels.main_matrix(spec, A, B)
        for i in range(4):
            for j in range(3):
                # distinct index spaces: cross blocks carry no delta term
                want = kernels.eval_composite(A[i], B[j], i, 4 + j, spec)
                assert K[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


PERIODIC_2D = KernelSpec(
    PERIODIC, amplitude=850.0, lengthscales=(1.0, 8.0), roughness=10.0, period=288.0, base=KernelSpec(MATERN, nu=0.5)
)


def test_main_matrix_peak_memory_is_at_most_three_grams():
    n = 1000
    rng = np.random.default_rng(8)
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    tracemalloc.start()
    try:
        kernels.main_matrix(PERIODIC_2D, X, X, same_samples=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * n


def test_main_matrix_row_blocks_match_one_block():
    rng = np.random.default_rng(9)
    n = 700  # several row blocks
    X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
    for spec in family_specs(ndim=2) + [PERIODIC_2D]:
        K = kernels.main_matrix(spec, X, X, same_samples=True)
        whole = kernels.GramEvaluator(X, X, same_samples=True).gram(spec)
        assert np.array_equal(K, whole)
        assert np.array_equal(K, K.T)


def test_gram_evaluator_log_derivatives_match_finite_differences():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.sort(rng.uniform(0, 60, 9)), rng.uniform(0, 1, 9)])
    bases = [KernelSpec(SQUARED_EXPONENTIAL), KernelSpec(RATIONAL_QUADRATIC, alpha=1.3)]
    bases += [KernelSpec(MATERN, nu=nu) for nu in MATERN_NUS]
    specs = family_specs(ndim=2) + [KernelSpec(MATERN, amplitude=1.1, lengthscales=(2.0, 0.5), nu=nu) for nu in (0.5, 2.5)]
    specs += [
        KernelSpec(PERIODIC, amplitude=1.2, lengthscales=(1.0, 0.7), roughness=0.8, period=23.3, base=b) for b in bases
    ]
    for spec in specs:
        params = [kernels.Hyperparameter("amplitude")]
        if spec.family == PERIODIC:
            params += [kernels.Hyperparameter(f) for f in ("roughness", "period")]
            params.append(kernels.Hyperparameter("lengthscales", 1))
            if spec.base.family == RATIONAL_QUADRATIC:
                params.append(kernels.Hyperparameter("alpha", on_base=True))
        elif spec.family != WHITE_NOISE:
            params += [kernels.Hyperparameter("lengthscales", d) for d in (0, 1)]
            if spec.family == RATIONAL_QUADRATIC:
                params.append(kernels.Hyperparameter("alpha"))
        ev = kernels.GramEvaluator(X, X, same_samples=True)
        K = ev.gram(spec).copy()
        for p in params:
            block = K * ev.log_derivative(p)
            step = 1e-6
            up = kernels.main_matrix(p.put(spec, p.get(spec) * math.exp(step)), X, X, same_samples=True)
            down = kernels.main_matrix(p.put(spec, p.get(spec) * math.exp(-step)), X, X, same_samples=True)
            fd = (up - down) / (2 * step)
            assert np.allclose(block, fd, rtol=1e-6, atol=1e-8 * np.abs(K).max()), (spec.to_text(), p)


# -- text form ---------------------------------------------------------------


def test_text_round_trip_examples():
    specs = [
        spec_se(h=2.5, ls=(3.0, 0.25), sigma2=0.01),
        KernelSpec(RATIONAL_QUADRATIC, amplitude=0.7, lengthscales=(5.0,), alpha=2.5, noise_variance=0.0),
        KernelSpec(MATERN, amplitude=1.0, lengthscales=(1.5,), nu=2.5),
        spec_periodic(nu=0.5, h=1.0, ls=(1.0, 0.3), w=1.0, T=288.0, sigma2=0.01),
        spec_periodic(base_family=RATIONAL_QUADRATIC, nu=None, alpha=3.0, h=0.9, w=0.4, T=288.0),
        KernelSpec(WHITE_NOISE, amplitude=0.5),
    ]
    for spec in specs:
        assert kernels.parse(spec.to_text()) == spec


def test_text_form_is_documented_shape():
    text = spec_periodic(nu=0.5, h=1.0, ls=(1.0, 0.3), w=1.0, T=288.0, sigma2=0.01).to_text()
    assert text == "periodic(matern12; h=1.0, ls=[1.0, 0.3], w=1.0, T=288.0) + whitenoise(sigma2=0.01)"


def test_parse_rejects_garbage():
    for bad in ["", "se(h=1.0", "wibble(h=1.0)", "se(h=-1.0, ls=[1.0])", "se(h=1.0, ls=[1.0]) + se(h=1.0, ls=[1.0])"]:
        with pytest.raises(KernelSpecError):
            kernels.parse(bad)


def test_spec_validation_rejects_bad_hyperparameters():
    with pytest.raises(KernelSpecError):
        spec_se(h=-1.0)
    with pytest.raises(KernelSpecError):
        spec_se(ls=(0.0,))
    with pytest.raises(KernelSpecError):
        KernelSpec(RATIONAL_QUADRATIC, alpha=None)
    with pytest.raises(KernelSpecError):
        spec_se(sigma2=-0.1)
    with pytest.raises(KernelSpecError):
        spec_se().validate(ndim=2)
