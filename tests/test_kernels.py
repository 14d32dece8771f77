"""Kernel evaluation, composition, properties, and the text form."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

from pvgp import gp, kernels
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
    return KernelSpec(
        PERIODIC, amplitude=h, lengthscales=ls, alpha=alpha, nu=nu if base_family == MATERN else None,
        roughness=w, period=T, base=base_family, noise_variance=sigma2
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


from oracles import composite_oracle, cross_oracle


def k1(spec, a, b):
    """``spec``'s main kernel between the 1-D inputs ``a`` and ``b``, by the production Gram code."""
    return float(kernels.main_matrix(spec, [[a]], [[b]])[0, 0])


def duplicated_rows(sigma2, n=7):
    """Gram with noise of ``n`` copies of one input under a unit SE, whose every main-kernel entry is 1."""
    X = np.full((n, 1), 3.0)
    return gp.build_covariance(X, X, spec_se(h=1.0, sigma2=sigma2), with_noise=True)


# -- white noise -----------------------------------------------------------


def test_white_noise_diagonal():
    assert duplicated_rows(0.25)[3, 3] - 1.0 == 0.25


def test_white_noise_off_diagonal():
    assert duplicated_rows(0.25)[3, 4] - 1.0 == 0.0


def test_white_noise_zero_variance():
    assert duplicated_rows(0.0)[0, 0] - 1.0 == 0.0


def test_white_noise_rejects_negative_variance():
    with pytest.raises(KernelSpecError):
        spec_se(sigma2=-1e-3)


# -- squared exponential ----------------------------------------------------


def test_se_identity():
    assert k1(spec_se(h=2.0), 0.0, 0.0) == 4.0


def test_se_unit_distance():
    assert k1(spec_se(), 0.0, 1.0) == pytest.approx(EXP_M1, rel=1e-15)


def test_se_far_limit():
    assert k1(spec_se(), 0.0, math.sqrt(40.0)) < 1e-12


# -- rational quadratic ------------------------------------------------------


def spec_rq(alpha, h=1.0):
    return KernelSpec(RATIONAL_QUADRATIC, amplitude=h, alpha=alpha)


def test_rq_identity():
    assert k1(spec_rq(1.0), 0.0, 0.0) == 1.0


def test_rq_unit():
    assert k1(spec_rq(1.0), 0.0, 1.0) == pytest.approx(0.5, abs=0)


def test_rq_limits_to_se():
    assert abs(k1(spec_rq(1e6), 0.0, 1.0) - k1(spec_se(), 0.0, 1.0)) < 1e-4


def test_rq_se_convergence_is_monotone():
    # distances whose squares span r2 in [0, 10]
    r = np.sqrt(np.linspace(0.0, 10.0, 201))[:, None]
    se = kernels.main_matrix(spec_se(), [[0.0]], r)
    sups = [np.max(np.abs(kernels.main_matrix(spec_rq(2.0**k), [[0.0]], r) - se)) for k in range(21)]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-5


# -- matern ------------------------------------------------------------------


def spec_matern(nu, h=1.0):
    return KernelSpec(MATERN, amplitude=h, nu=nu)


def test_matern_identity():
    assert k1(spec_matern(0.5, h=3.0), 0.0, 0.0) == 9.0


def test_matern12_unit():
    assert k1(spec_matern(0.5), 0.0, 1.0) == pytest.approx(EXP_M1, rel=1e-15)


def test_matern32_unit_closed_form():
    assert k1(spec_matern(1.5), 0.0, 1.0) == pytest.approx(MATERN32_AT_1, rel=1e-15)


def test_matern_closed_form_matches_bessel_oracle():
    # standard Matern via the modified Bessel function of the second kind
    for nu in (0.5, 1.5, 2.5):
        for r in (0.05, 0.3, 1.0, 2.7):
            arg = math.sqrt(2 * nu) * r
            oracle = (2 ** (1 - nu) / math.gamma(nu)) * arg**nu * scipy.special.kv(nu, arg)
            assert k1(spec_matern(nu), 0.0, r) == pytest.approx(oracle, rel=1e-10)


def test_matern_rejects_unsupported_nu():
    with pytest.raises(KernelSpecError):
        spec_matern(2.0)


# -- periodic ----------------------------------------------------------------


def periodic_se(h=1.0, w=1.0, T=288.0):
    return spec_periodic(base_family=SQUARED_EXPONENTIAL, nu=None, h=h, w=w, T=T)


def test_periodic_identity():
    assert k1(periodic_se(), 0.0, 0.0) == pytest.approx(1.0, abs=0)


def test_periodic_full_period():
    assert k1(periodic_se(), 0.0, 288.0) == pytest.approx(1.0, abs=1e-15)


def test_periodic_antiperiodic_point():
    k = k1(periodic_se(), 0.0, 144.0)
    assert k == pytest.approx(EXP_M2, rel=1e-14)


def test_periodic_is_periodic():
    rng = np.random.default_rng(7)
    spec = periodic_se(h=1.2, w=0.7)
    for d in rng.uniform(0, 600, size=20):
        k0 = k1(spec, 0.0, d)
        for n in (1, 2, 5):
            assert k1(spec, 0.0, d + n * 288.0) == pytest.approx(k0, abs=1e-12)


def test_periodic_rejects_non_stationary_base():
    with pytest.raises(KernelSpecError):
        KernelSpec(PERIODIC, amplitude=1.0, roughness=1.0, period=288.0, base=WHITE_NOISE)


def test_periodic_base_cannot_be_periodic_or_noise():
    with pytest.raises(KernelSpecError):
        spec_periodic(base_family=WHITE_NOISE, nu=None)


# -- composite ---------------------------------------------------------------


def test_composite_diagonal_includes_noise():
    assert duplicated_rows(0.1)[5, 5] == pytest.approx(1.1, abs=0)


def test_composite_noise_keys_on_index_not_value():
    assert duplicated_rows(0.1)[5, 6] == pytest.approx(1.0, abs=0)


def test_composite_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for spec in family_specs(ndim=2):
        for _ in range(25):
            X = rng.normal(size=(4, 2))
            K = gp.build_covariance(X, X, spec, with_noise=True)
            for i in range(4):
                for j in range(4):
                    assert K[i, j] == pytest.approx(composite_oracle(X[i], X[j], i, j, spec), rel=1e-12)


def test_composite_dimensionality_mismatch():
    with pytest.raises(ValueError):
        kernels.main_matrix(spec_se(), [[1.0, 2.0]], [[1.0]])


def test_composite_symmetry():
    rng = np.random.default_rng(3)
    for spec in family_specs(ndim=2):
        for _ in range(20):
            A, B = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
            K = gp.build_covariance(A, A, spec, with_noise=True)
            assert np.array_equal(K, K.T)
            assert np.array_equal(kernels.main_matrix(spec, A, B), kernels.main_matrix(spec, B, A).T)


def test_boundedness_by_self_covariance():
    rng = np.random.default_rng(11)
    for spec in family_specs(ndim=2):
        if spec.family == WHITE_NOISE:
            continue
        for _ in range(30):
            X = rng.normal(size=(2, 2)) * 3
            self_k, cross = kernels.main_matrix(spec, X[:1], X)[0]  # a cross block: no noise
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
        # distinct index spaces: cross blocks carry no delta term
        want = cross_oracle(A, B, spec)
        for i in range(4):
            for j in range(3):
                assert K[i, j] == pytest.approx(want[i, j], rel=1e-12, abs=1e-15)


PERIODIC_2D = KernelSpec(
    PERIODIC, amplitude=850.0, lengthscales=(1.0, 8.0), roughness=10.0, period=288.0, base=MATERN, nu=0.5
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


def test_main_matrix_upper_leaves_below_the_diagonal_as_it_was():
    # each row block evaluates a few entries below the diagonal, in its leading
    # square, and puts them back: two triangles can share one array
    rng = np.random.default_rng(10)
    for n in (5, 600):  # one row block, and several
        X = np.column_stack([np.arange(float(n)), rng.uniform(0, 1, n)])
        below = np.tril_indices(n, -1)
        for spec in family_specs(ndim=2) + [PERIODIC_2D]:
            K = np.full((n, n), np.nan)
            kernels.main_matrix(spec, X, X, same_samples=True, out=K, upper=True)
            assert np.isnan(K[below]).all(), (n, spec.to_text())
            whole = kernels.main_matrix(spec, X, X, same_samples=True)
            assert np.array_equal(np.triu(K), np.triu(whole)), (n, spec.to_text())


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
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.3)]
    bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
    specs = family_specs(ndim=2) + [KernelSpec(MATERN, amplitude=1.1, lengthscales=(2.0, 0.5), nu=nu) for nu in (0.5, 2.5)]
    specs += [
        KernelSpec(PERIODIC, amplitude=1.2, lengthscales=(1.0, 0.7), roughness=0.8, period=23.3, **b) for b in bases
    ]
    for spec in specs:
        # the noise variance is not a main-kernel hyperparameter
        params = [p for p in spec.hyperparameters() if p.field != "noise_variance"]
        ev = kernels.GramEvaluator(X, X, same_samples=True)
        K = ev.gram(spec).copy()
        for p in params:
            block = K * ev.log_derivative(spec, p)
            step = 1e-6
            up, down = (
                kernels.main_matrix(kernels.with_hyperparameters(spec, [p], [p.get(spec) * math.exp(s)]), X, X, same_samples=True)
                for s in (step, -step)
            )
            fd = (up - down) / (2 * step)
            assert np.allclose(block, fd, rtol=1e-6, atol=1e-8 * np.abs(K).max()), (spec.to_text(), p)


def test_gram_evaluator_log_derivatives_do_not_depend_on_call_order():
    # each derivative rebuilds its distance variable from the cached geometry
    # and reads the spec it is given, so no block depends on which blocks or
    # Grams were asked for before it, nor on whether a Gram was
    rng = np.random.default_rng(14)
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.3)]
    bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
    for ndim in (1, 2):
        t = np.sort(rng.uniform(0, 60, 40))
        X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, 40)])
        ls = (2.0, 0.5)[:ndim]
        other = KernelSpec(PERIODIC, amplitude=0.6, lengthscales=ls, roughness=2.1, period=17.0, base=MATERN, nu=1.5)
        specs = [KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.3, lengthscales=ls)]
        specs += [KernelSpec(RATIONAL_QUADRATIC, amplitude=1.3, lengthscales=ls, alpha=1.7)]
        specs += [KernelSpec(MATERN, amplitude=1.1, lengthscales=ls, nu=nu) for nu in MATERN_NUS]
        specs += [KernelSpec(PERIODIC, amplitude=1.2, lengthscales=ls, roughness=0.8, period=23.3, **b) for b in bases]
        for spec in specs:
            params = [p for p in spec.hyperparameters() if p.field != "noise_variance"]
            # each block from a fresh evaluator that never ran gram
            want = [kernels.GramEvaluator(X, X, same_samples=True).log_derivative(spec, p).copy() for p in params]
            ev = kernels.GramEvaluator(X, X, same_samples=True)
            ev.gram(spec)
            for k in [*reversed(range(len(params))), *range(len(params)), *rng.integers(0, len(params), 6)]:
                assert np.array_equal(ev.log_derivative(spec, params[k]), want[k]), (spec.to_text(), params[k])
            assert np.array_equal(ev.K, kernels.main_matrix(spec, X, X, same_samples=True)), spec.to_text()
            # after a Gram at another period and roughness
            ev.gram(other)
            for p, block in zip(params, want):
                assert np.array_equal(ev.log_derivative(spec, p), block), (spec.to_text(), p)


def test_main_matrix_cross_row_blocks_match_one_periodic_block():
    rng = np.random.default_rng(16)
    A = np.column_stack([rng.uniform(0, 200, 300), rng.uniform(0, 1, 300)])
    B = np.column_stack([rng.uniform(0, 200, 700), rng.uniform(0, 1, 700)])
    assert 300 * 700 > 2 * kernels._BLOCK_ELEMENTS  # several row blocks
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.3)]
    bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
    for b in bases:
        spec = KernelSpec(PERIODIC, amplitude=1.2, lengthscales=(1.0, 0.7), roughness=0.8, period=23.3, **b)
        whole = kernels.GramEvaluator(A, B).gram(spec)
        assert np.array_equal(kernels.main_matrix(spec, A, B), whole), spec.to_text()


def test_gram_evaluator_uses_handed_b_phases_only_at_their_period():
    # phases of B taken at T=288 serve a T=288 spec; at any other T the chord computes its own
    rng = np.random.default_rng(17)
    X = np.column_stack([np.sort(rng.uniform(0, 60, 10)), rng.uniform(0, 1, 10)])
    for period in (288.0, 23.3):
        spec = KernelSpec(PERIODIC, amplitude=1.0, lengthscales=(1.0, 0.7), roughness=0.8, period=period, base=MATERN, nu=0.5)
        ev = kernels.GramEvaluator(X, X, b_phases=(288.0, *kernels._phases(X[:, 0], 288.0)))
        assert np.array_equal(ev.gram(spec), kernels.main_matrix(spec, X, X)), period


def test_hyperparameters_name_every_scalar_a_fit_frees():
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.3)]
    bases += [dict(base=MATERN, nu=nu) for nu in MATERN_NUS]
    for ndim in (1, 2):
        ls = (2.0, 0.5)[:ndim]
        stationary = [("lengthscales", d) for d in range(ndim)]
        cases = [(KernelSpec(WHITE_NOISE, amplitude=0.7, noise_variance=0.1), [])]
        cases += [(KernelSpec(SQUARED_EXPONENTIAL, lengthscales=ls), stationary)]
        cases += [(KernelSpec(RATIONAL_QUADRATIC, lengthscales=ls, alpha=1.7), stationary + [("alpha", None)])]
        cases += [(KernelSpec(MATERN, lengthscales=ls, nu=nu), stationary) for nu in MATERN_NUS]
        for b in bases:
            # the periodic warp's roughness w stands for the time axis's lengthscale;
            # the period T, like nu, is a constant of the kernel
            middle = [("lengthscales", 1)][: ndim - 1] + [("alpha", None)] * (b["base"] == RATIONAL_QUADRATIC)
            spec = KernelSpec(PERIODIC, lengthscales=ls, roughness=0.8, period=23.3, **b)
            cases.append((spec, [("roughness", None)] + middle))
        for spec, middle in cases:
            # the amplitude is solved in closed form, never freed
            expected = middle + [("noise_variance", None)]
            assert [(p.field, p.index) for p in spec.hyperparameters()] == expected, spec.to_text()


def test_with_hyperparameters_is_one_replace_equal_to_one_replace_per_field(monkeypatch):
    rng = np.random.default_rng(13)
    calls = []
    one_replace = kernels.replace
    monkeypatch.setattr(kernels, "replace", lambda *a, **k: calls.append(k) or one_replace(*a, **k))
    for spec in family_specs(ndim=2) + [spec_periodic(RATIONAL_QUADRATIC, nu=None, alpha=2.0, ls=(1.0, 0.3))]:
        params = [kernels.Hyperparameter("amplitude"), *spec.hyperparameters()]
        values = [math.exp(v) for v in rng.normal(0.0, 1.0, len(params))]
        expected = spec
        for p, v in zip(params, values):
            if p.index is None:
                expected = replace(expected, **{p.field: v})
            else:
                ls = list(expected.lengthscales)
                ls[p.index] = v
                expected = replace(expected, lengthscales=tuple(ls))
        calls.clear()
        got = kernels.with_hyperparameters(spec, params, values)
        assert len(calls) == 1
        assert got == expected and got.to_text() == expected.to_text()
        assert [p.get(got) for p in params] == values


def test_fused_exponential_shapes_match_the_oracle():
    # se and matern12, alone or as a periodic base, are evaluated as one exp
    # of the summed distance variables, exp(-(x_warp + x_stat)), times h^2
    specs = [
        KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.3, lengthscales=(2.0, 0.5)),
        KernelSpec(MATERN, amplitude=1.1, lengthscales=(2.0, 0.5), nu=0.5),
        spec_periodic(SQUARED_EXPONENTIAL, nu=None, h=0.8, ls=(1.0, 0.5), w=0.9, T=7.0),
        spec_periodic(nu=0.5, h=0.8, ls=(1.0, 0.5), w=0.9, T=7.0),
    ]
    rng = np.random.default_rng(12)
    A = np.column_stack([np.sort(rng.uniform(0, 30, 25)), rng.uniform(0, 1, 25)])
    B = np.column_stack([np.sort(rng.uniform(0, 30, 20)), rng.uniform(0, 1, 20)])
    for spec in specs:
        K = kernels.main_matrix(spec, A, B)
        np.testing.assert_allclose(K, cross_oracle(A, B, spec), rtol=1e-12, atol=0, err_msg=spec.to_text())
        # h^2 multiplies after the exp, so k(x, x) is h^2 exactly
        assert np.all(np.diag(kernels.main_matrix(spec, A, A)) == spec.amplitude**2), spec.to_text()


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


def test_text_round_trip_random_specs_and_stray_fields():
    rng = np.random.default_rng(61)
    shapes = [dict(family=SQUARED_EXPONENTIAL), dict(family=RATIONAL_QUADRATIC)]
    shapes += [dict(family=MATERN, nu=nu) for nu in MATERN_NUS]
    specs = []
    for ndim in (1, 2):
        for _ in range(10):
            # every field drawn, whether or not the family reads it
            stray = dict(
                amplitude=float(rng.uniform(0.1, 5.0)),
                lengthscales=tuple(rng.uniform(0.1, 5.0, ndim)),
                alpha=float(rng.uniform(0.3, 5.0)),
                nu=float(rng.choice(MATERN_NUS)),
                roughness=float(rng.uniform(0.1, 3.0)),
                period=float(rng.uniform(5.0, 300.0)),
                noise_variance=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
            )
            shape = shapes[int(rng.integers(len(shapes)))]
            specs.append(KernelSpec(WHITE_NOISE, **{**stray, "base": shape["family"]}))
            specs.append(KernelSpec(**{**stray, **shape, "base": SQUARED_EXPONENTIAL}))
            specs.append(KernelSpec(**{**stray, **shape, "base": shape["family"], "family": PERIODIC}))
    m12 = kernels.parse("periodic(matern12; h=1.0, ls=[1.0, 0.3], w=1.0, T=288.0)")
    specs += [
        KernelSpec(SQUARED_EXPONENTIAL, alpha=3.0),
        KernelSpec(SQUARED_EXPONENTIAL, roughness=2.0, period=5.0),
        KernelSpec(SQUARED_EXPONENTIAL, base=RATIONAL_QUADRATIC),
        replace(m12, base=RATIONAL_QUADRATIC, alpha=2.0),
        KernelSpec(WHITE_NOISE, lengthscales=(3.0,)),
    ]
    for spec in specs:
        assert kernels.parse(spec.to_text()) == spec, spec.to_text()
    assert replace(m12, base=RATIONAL_QUADRATIC, alpha=2.0).nu is None
    assert KernelSpec(WHITE_NOISE, lengthscales=(3.0,)) == KernelSpec(WHITE_NOISE)


def test_text_form_is_documented_shape():
    text = spec_periodic(nu=0.5, h=1.0, ls=(1.0, 0.3), w=1.0, T=288.0, sigma2=0.01).to_text()
    assert text == "periodic(matern12; h=1.0, ls=[1.0, 0.3], w=1.0, T=288.0) + whitenoise(sigma2=0.01)"


def test_parse_rejects_garbage():
    for bad in [
        "",
        "se(h=1.0",
        "wibble(h=1.0)",
        "se(h=-1.0, ls=[1.0])",
        "se(h=1.0, ls=[1.0]) + se(h=1.0, ls=[1.0])",
        # a list where a number belongs
        "rq(h=1.0, ls=[1.0], alpha=[2.0])",
        "se(h=1.0, ls=[1.0]) + whitenoise(sigma2=[0.1])",
        # an argument the term does not take
        "se(h=1.0, ls=[1.0], bogus=3.0)",
        "se(h=1.0, ls=[1.0], w=1.0, T=288.0)",
        "periodic(se; h=1.0, ls=[1.0], alpha=2.0, w=1.0, T=288.0)",
        "se(h=1.0, lenscales=[9.0])",
        "se(h=1.0, ls=[1.0], sigma2=0.1)",
        "se(h=1.0, ls=[1.0]) + whitenoise(sigma2=0.1, h=1.0)",
        "se(h=1.0, h=2.0, ls=[1.0])",
        "se(matern12; h=1.0, ls=[1.0])",
        "se(h=1.0, ls=[a])",
        # no lengthscale for a kernel that needs one
        "se(h=1.0, ls=[])",
        "periodic(se; h=1.0, ls=[], w=1.0, T=288.0)",
        # h is finite but h^2 is not
        "se(h=1e200, ls=[3.0])",
    ]:
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


@pytest.mark.parametrize(
    "text, field, named",
    [
        ("periodic(matern12; h=1.0, ls=[1.0, 1.0], w=inf, T=288.0)", "roughness", "roughness w"),
        ("periodic(matern12; h=1.0, ls=[1.0, 1.0], w=1.0, T=inf)", "period", "period T"),
        ("rq(h=1.0, ls=[1.0], alpha=inf)", "alpha", "alpha"),
        ("periodic(rq; h=1.0, ls=[1.0], alpha=inf, w=1.0, T=288.0)", "alpha", "alpha"),
    ],
)
def test_non_finite_roughness_period_or_alpha_is_rejected_naming_it(text, field, named):
    # T = inf would make the time factor 1 everywhere: a forecast without the daily cycle
    with pytest.raises(KernelSpecError, match=named):
        kernels.parse(text)
    valid = kernels.parse(text.replace("inf", "2.0"))
    with pytest.raises(KernelSpecError, match=named):
        replace(valid, **{field: math.inf})
