"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import datetime as dt
import functools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pvgp import experiments as ex
from pvgp import gp, kernels, pipeline
from pvgp.cli import main as cli_main
from pvgp.geotime import GeoPoint, latlon_to_tm, tm_to_latlon
from pvgp.gp import TrainingSet
from pvgp.kernels import (
    MATERN,
    PERIODIC,
    RATIONAL_QUADRATIC,
    SQUARED_EXPONENTIAL,
    WHITE_NOISE,
    KernelSpec,
)
from pvgp.pipeline import HrvRasterStack, PvSystem, assemble, filter_systems, load_metadata, load_power

from oracles import fd_gradient, patch_mean_oracle, posterior_oracle, stencil_gradient

UTC = dt.timezone.utc


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return deco


def random_family_spec(rng, ndim, family):
    h = float(rng.uniform(0.5, 2.0))
    ls = tuple(rng.uniform(0.5, 3.0, size=ndim))
    sigma2 = float(rng.uniform(1e-3, 0.3))
    if family == WHITE_NOISE:
        return KernelSpec(WHITE_NOISE, amplitude=h, noise_variance=sigma2)
    if family == SQUARED_EXPONENTIAL:
        return KernelSpec(family, amplitude=h, lengthscales=ls, noise_variance=sigma2)
    if family == RATIONAL_QUADRATIC:
        return KernelSpec(family, amplitude=h, lengthscales=ls, alpha=float(rng.uniform(0.3, 5.0)), noise_variance=sigma2)
    if family == MATERN:
        return KernelSpec(family, amplitude=h, lengthscales=ls, nu=float(rng.choice([0.5, 1.5, 2.5])), noise_variance=sigma2)
    return KernelSpec(
        PERIODIC,
        amplitude=h,
        lengthscales=ls,
        roughness=float(rng.uniform(0.3, 2.0)),
        period=float(rng.uniform(5.0, 30.0)),
        base=MATERN,
        nu=0.5,
        noise_variance=sigma2,
    )


ALL_FAMILIES = (WHITE_NOISE, SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC)


@criterion(1, "gp-exactness")
def test_posterior_matches_brute_force_inverse():
    start = time.time()
    rng = np.random.default_rng(2001)
    for trial in range(200):
        family = ALL_FAMILIES[trial % len(ALL_FAMILIES)]
        ndim = int(rng.integers(1, 3))
        spec = random_family_spec(rng, ndim, family)
        n = int(rng.integers(1, 7))
        t = np.sort(rng.choice(np.arange(60), size=n, replace=False)).astype(float)
        X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, n)])
        train = TrainingSet.from_arrays(X, rng.normal(5.0, 2.0, size=n))
        Q = X[: min(n, 3)] + rng.uniform(0.1, 0.9, size=(min(n, 3), ndim))
        pred = gp.posterior(train, Q, spec)
        mean_o, cov_o = posterior_oracle(train, Q, spec)
        rel_mean = np.linalg.norm(pred.mean - mean_o) / max(np.linalg.norm(mean_o), 1e-12)
        rel_cov = np.linalg.norm(pred.cov - cov_o) / max(np.linalg.norm(cov_o), 1e-12)
        assert rel_mean <= 1e-8, f"trial {trial}: mean rel err {rel_mean}"
        assert rel_cov <= 1e-8, f"trial {trial}: cov rel err {rel_cov}"
    assert time.time() - start < 10.0


@criterion(2, "kernel-psd")
def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(2002)
    specs = [random_family_spec(rng, 2, family) for family in ALL_FAMILIES]
    specs.append(KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.0, lengthscales=(2.0, 0.5), noise_variance=0.25))
    for spec in specs:
        for _ in range(50):
            n = int(rng.integers(2, 21))
            X = np.column_stack([np.sort(rng.uniform(0, 600, size=n)), rng.uniform(0, 1, size=n)])
            K = gp.build_covariance(X, X, spec, with_noise=True)
            min_eig = float(np.linalg.eigvalsh((K + K.T) / 2).min())
            assert min_eig >= -1e-8 * np.trace(K), f"{spec.family}: min eig {min_eig}"


@criterion(3, "gradient-consistency")
def test_optimizer_gradient_agrees_with_stencil():
    rng = np.random.default_rng(2003)
    for trial in range(50):
        family = (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC, MATERN, PERIODIC)[trial % 4]
        spec = random_family_spec(rng, 1, family)
        n = int(rng.integers(6, 12))
        X = np.sort(rng.choice(np.arange(100), size=n, replace=False)).astype(float)[:, None]
        train = TrainingSet.from_arrays(X, rng.normal(0.0, 1.0, size=n))

        def objective(x):
            s = replace(spec, amplitude=math.exp(x[0]), noise_variance=math.exp(x[1]),
                        lengthscales=(math.exp(x[2]),))
            return -gp.log_marginal_likelihood(train, s)

        x0 = np.log([spec.amplitude, spec.noise_variance, spec.lengthscales[0]])
        g2 = fd_gradient(objective, x0)
        g5 = stencil_gradient(objective, x0)
        err = np.linalg.norm(g2 - g5) / max(np.linalg.norm(g5), 1.0)
        assert err <= 1e-4, f"trial {trial}: gradient rel err {err}"

    # the plain analytic gradient, over every hyperparameter of the spec, for
    # all families in 1-D and 2-D; the optimiser consumes the concentrated one,
    # which test_gp's test_concentrated_gradient_matches_a_stencil_of_the_concentrated_value checks
    bases = [dict(base=SQUARED_EXPONENTIAL), dict(base=RATIONAL_QUADRATIC, alpha=1.7)]
    bases += [dict(base=MATERN, nu=nu) for nu in (0.5, 1.5, 2.5)]
    for trial in range(60):
        family = ALL_FAMILIES[trial % len(ALL_FAMILIES)]
        ndim = 1 + (trial // len(ALL_FAMILIES)) % 2
        spec = random_family_spec(rng, ndim, family)
        n = int(rng.integers(6, 12))
        t = np.sort(rng.choice(np.arange(100), size=n, replace=False)).astype(float)
        if family == PERIODIC:
            spec = replace(spec, **bases[trial % len(bases)], period=float(rng.uniform(20.0, 60.0)))
        X = t[:, None] if ndim == 1 else np.column_stack([t, rng.uniform(0, 1, n)])
        train = TrainingSet.from_arrays(X, rng.normal(0.0, 1.0, size=n))
        params = spec.hyperparameters()

        def objective(x):
            return -gp.log_marginal_likelihood(train, kernels.with_hyperparameters(spec, params, np.exp(x)))

        gradient = gp.LmlGradient(train, params)
        gp.log_marginal_likelihood(train, spec, gradient)
        g5 = stencil_gradient(objective, np.log([p.get(spec) for p in params]))
        err = np.linalg.norm(-gradient.value - g5) / max(np.linalg.norm(g5), 1.0)
        assert err <= 1e-4, f"analytic trial {trial} ({spec.to_text()}): gradient rel err {err}"


@criterion(4, "hyperparameter-recovery")
def test_generate_and_recover_se_hyperparameters():
    start = time.time()
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.arange(40.0)[:, None]
        truth = KernelSpec(SQUARED_EXPONENTIAL, amplitude=1.0, lengthscales=(4.0,), noise_variance=0.25)
        K = gp.build_covariance(X, X, truth, with_noise=True)
        y = np.linalg.cholesky(K + 1e-12 * np.eye(40)) @ rng.standard_normal(40)
        train = TrainingSet.from_arrays(X, y)
        template = KernelSpec(
            SQUARED_EXPONENTIAL,
            amplitude=train.target_scale,
            lengthscales=(0.1 * float(np.ptp(X)),),
            noise_variance=0.1 * train.target_scale**2,
        )
        fitted = gp.fit_hyperparameters(train, template, restarts=3, seed=seed)
        err = max(
            abs(math.log(fitted.amplitude) - math.log(truth.amplitude)),
            abs(math.log(fitted.lengthscales[0]) - math.log(truth.lengthscales[0])),
            abs(math.log(fitted.noise_variance) - math.log(truth.noise_variance)),
        )
        hits += err <= 0.5
    elapsed = time.time() - start
    assert hits >= 7, f"recovered {hits}/10 seeds"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(5, "mae-fidelity")
def test_mae_unit_edge_cases_exact():
    y = np.array([500.0, 1200.0, 80.0, 2500.0])
    assert ex.mae(y, y) == 0.0
    # the 100 W illustration: every prediction off by exactly 100 W
    assert ex.mae(y, y + 100.0) == 100.0
    assert ex.mae(y, y - 100.0) == 100.0
    assert ex.mae([100.0, 200.0], [150.0, 250.0]) == 50.0
    with pytest.raises(ValueError):
        ex.mae([], [])
    with pytest.raises(ValueError):
        ex.mae([1.0], [1.0, 2.0])


@criterion(6, "projection")
def test_projection_round_trip_and_worked_example():
    lat_os = 52 + 39 / 60 + 27.2531 / 3600
    lon_os = 1 + 43 / 60 + 4.5177 / 3600
    e, n = latlon_to_tm(lat_os, lon_os)
    assert abs(e - 651409.903) <= 0.01
    assert abs(n - 313177.270) <= 0.01

    rng = np.random.default_rng(2006)
    lat = rng.uniform(49.9, 60.8, size=1000)
    lon = rng.uniform(-7.5, 1.8, size=1000)
    lat2, lon2 = tm_to_latlon(*latlon_to_tm(lat, lon))
    assert np.max(np.abs(lat2 - lat)) <= 1e-8
    assert np.max(np.abs(lon2 - lon)) <= 1e-8


@criterion(7, "pipeline-filters")
def test_filter_corpus_removes_exactly_three(tmp_path):
    meta_path = tmp_path / "metadata.csv"
    meta_path.write_text(
        "system_id,latitude,longitude,capacity_w\n"
        "1,51.5,-0.12,2460\n"  # clean
        "2,51.5,30.0,3870\n"  # out of bounds (far east of the UK)
        "3,52.2,0.1,\n"  # missing metadata (no capacity)
        "4,53.4,-2.9,2820\n"  # overnight generator
    )
    power_path = tmp_path / "power.csv"
    lines = ["timestamp_utc,system_id,power_w"]
    for day in range(3):
        noon = dt.datetime(2021, 6, 1 + day, 12, 0, tzinfo=UTC)
        midnight = dt.datetime(2021, 6, 1 + day, 0, 0, tzinfo=UTC)
        for sid in (1, 2, 4):
            lines.append(f"{noon:%Y-%m-%dT%H:%M:%SZ},{sid},1000.0")
        lines.append(f"{midnight:%Y-%m-%dT%H:%M:%SZ},4,1410.0")  # 50% of capacity at night
    power_path.write_text("\n".join(lines) + "\n")

    load = load_metadata(meta_path)
    power = load_power(power_path)
    result = filter_systems(load.systems, power)

    assert len(load.skipped) == 1  # system 3: the missing-metadata removal
    assert [s.system_id for s in result.kept] == [1]
    reasons = {r.system.system_id: r.reason for r in result.removed}
    assert reasons == {2: pipeline.REASON_OUT_OF_BOUNDS, 4: pipeline.REASON_OVERNIGHT}
    removed_total = len(load.skipped) + len(result.removed)
    assert removed_total == 3


@criterion(8, "patch-averaging")
def test_patch_mean_equals_double_loop_oracle():
    rng = np.random.default_rng(2008)
    epoch = dt.datetime(2021, 6, 1, tzinfo=UTC)
    for _ in range(100):
        size = int(rng.choice([2, 6, 12]))
        h, w = int(rng.integers(14, 30)), int(rng.integers(14, 30))
        frame = rng.uniform(0, 1023, size=(h, w)).astype(np.float32)
        stack = HrvRasterStack(
            origin_easting=0.0, origin_northing=0.0, pixel_size=1000.0,
            width=w, height=h, epoch_utc=epoch,
            frame_indices=np.array([0]), frames=frame[None],
        )
        px = int(rng.integers(6, w - 6))
        py = int(rng.integers(6, h - 6))
        system = PvSystem(
            system_id=1,
            location=GeoPoint(latitude=51.5, longitude=-0.12,
                              easting=(px + 0.5) * 1000.0, northing=(py + 0.5) * 1000.0),
            capacity_w=3000.0,
        )
        got = pipeline.hrv_patch_mean(stack, system, size, 0)
        want = patch_mean_oracle(frame, px, py, size) / 1023.0
        assert got == want, f"patch {size} at ({px},{py}): {got} != {want}"


@criterion(9, "given-vs-persistence")
def test_given_cloud_beats_persistence_on_scattered_days():
    start = time.time()
    system = PvSystem(system_id=1, location=GeoPoint.from_latlon(51.5, -0.12), capacity_w=3000.0)
    bundle = ex.generate_synthetic("scattered", days=12, system=system, seed=7)
    series = assemble(system, bundle.power, bundle.stack, 6, (0, 12 * 288))
    common = dict(
        training_days=1, patch_px=6, kernel=ex.default_kernel("matern12"),
        horizon_steps=ex.STEPS_4H, forecast_start=288 + 120, system_ids=(1,),
        test_days=10, training_stride=2, refit=True,
    )
    options = ex.FitOptions(restarts=2, max_iter=120)
    report = ex.run_grid(
        [
            ex.ExperimentConfig(cloud_mode=ex.CLOUD_GIVEN, **common),
            ex.ExperimentConfig(cloud_mode=ex.CLOUD_PERSISTENCE, **common),
        ],
        {(1, 6): series},
        seed=0,
        fit_options=options,
    )
    given = report.rows[0].per_system[1]
    persistence = report.rows[1].per_system[1]
    elapsed = time.time() - start
    assert given < persistence, f"given {given:.2f} !< persistence {persistence:.2f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@criterion(10, "protocol-shape")
def test_set_one_grid_emits_one_factor_at_a_time_layout():
    system = PvSystem(system_id=709, location=GeoPoint.from_latlon(51.5, -0.12), capacity_w=2460.0)
    bundle = ex.generate_synthetic("clear-sky", days=32, system=system, seed=1)
    datasets = {
        (709, patch): assemble(system, bundle.power, bundle.stack, patch, (0, 32 * 288))
        for patch in (2, 6, 12)
    }
    configs = ex.set_one_configs((709,), forecast_start=30 * 288, training_stride=24, refit=False)
    report = ex.run_grid(configs, datasets, seed=0)

    assert len(report.rows) == 10
    layout = [(r.config.training_period_label(), r.config.patch_px, r.config.kernel_label()) for r in report.rows]
    assert layout == [
        ("1 week", 2, "periodic(matern12)"),
        ("2 weeks", 2, "periodic(matern12)"),
        ("3 weeks", 2, "periodic(matern12)"),
        ("1 month", 2, "periodic(matern12)"),
        ("3 weeks", 2, "periodic(matern12)"),
        ("3 weeks", 6, "periodic(matern12)"),
        ("3 weeks", 12, "periodic(matern12)"),
        ("3 weeks", 2, "periodic(se)"),
        ("3 weeks", 2, "periodic(rq)"),
        ("3 weeks", 2, "periodic(matern12)"),
    ]
    assert all(not row.failures and 709 in row.per_system for row in report.rows)
    for row in report.rows:
        assert row.average == pytest.approx(np.mean(list(row.per_system.values())), abs=1e-9)

    # horizon arithmetic on both protocols
    r48 = ex.forecast_48h(
        datasets[(709, 2)],
        ex.ExperimentConfig(
            training_days=7, patch_px=2, kernel=ex.default_kernel("matern12"),
            horizon_steps=ex.STEPS_48H, cloud_mode=ex.CLOUD_GIVEN,
            forecast_start=30 * 288, system_ids=(709,), training_stride=24, refit=False,
        ),
    )
    assert r48.time_index.size == 576
    r4 = ex.forecast_4h(
        datasets[(709, 6)],
        ex.ExperimentConfig(
            training_days=7, patch_px=6, kernel=ex.default_kernel("matern12"),
            horizon_steps=ex.STEPS_4H, cloud_mode=ex.CLOUD_GIVEN,
            forecast_start=30 * 288, system_ids=(709,), training_stride=24, refit=False,
        ),
    )
    assert r4.time_index.size == 48


@criterion(11, "determinism")
def test_cmd_experiment_is_byte_deterministic(tmp_path):
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"synth": {"days": 3, "scenario": "scattered"}}))
    assert cli_main(["synth", "--config", str(synth_cfg), "--seed", "4", "--out", str(data_dir)]) == 0

    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(
        json.dumps(
            {
                "paths": {
                    "metadata": str(data_dir / "metadata.csv"),
                    "power": str(data_dir / "power.csv"),
                    "hrv": str(data_dir / "hrv.bin"),
                    "output_dir": str(tmp_path / "out"),
                },
                "fit": {"restarts": 1, "max_iter": 40},
                "experiment": {
                    "protocol": "custom",
                    "training_stride": 4,
                    "forecast_start_index": 288 + 120,
                    "custom": {
                        "training_days": [1],
                        "patch_px": [6],
                        "kernels": ["periodic(matern12; h=1.0, ls=[1.0, 1.0], w=1.0, T=288.0) + whitenoise(sigma2=0.01)"],
                        "horizon_steps": 48,
                        "cloud_modes": ["given", "persistence"],
                    },
                },
            }
        )
    )
    names = ["report.csv", "report.txt", "report.json", "boxplot_by_day.csv", "boxplot_by_system.csv", "effective_config.json"]
    assert cli_main(["experiment", "--config", str(run_cfg), "--seed", "11"]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    assert cli_main(["experiment", "--config", str(run_cfg), "--seed", "11"]) == 0
    second = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    assert first == second
