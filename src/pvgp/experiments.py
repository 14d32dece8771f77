"""Forecast experiments: error metric, protocols, grids, and reports.

Two protocols are built in, mirroring the experiment sets the model is
evaluated under:

* set one: 48-hour forecasts (576 steps) with cloud coverage given at
  every query point, factored over training period, sky-patch size and
  kernel structure in a one-factor-at-a-time layout;
* set two: 4-hour forecasts (48 steps) comparing given cloud coverage
  against persistence (the last observed coverage held for the whole
  horizon), at 6x6 and 12x12 patches.

:func:`custom_configs` builds the full cross product of its factors
instead.  Each builder's keyword defaults are its protocol's defaults; the
CLI reads its default protocol blocks from them.

A grid cell is one (config, system); each cell launches one forecast per
test day from midnight-anchored start indices, fits hyperparameters per
launch (configurable), and scores MAE in watts over the full horizon.
A launch fits and conditions its GP on the rows one builder,
:func:`training_set`, picks: its training window thinned to every
``training_stride``-th step, and of those only the daylight rows (solar
elevation above 0 degrees, :func:`daylight`), since power is 0 W by
physics with the sun below the horizon.  The posterior is
evaluated at the daylight steps of the horizon; a night step's forecast
comes from the solar-elevation rule instead: 0 W with zero variance.
Forecast means are clamped to [0, capacity] for scoring and reporting;
raw posterior values stay available on the result.  Reports render to
CSV, aligned text, and JSON, all byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import geotime, gp, kernels, pipeline
from .gp import ConditioningError, FitError, TrainingSet
from .kernels import PERIODIC, RATIONAL_QUADRATIC, KernelSpec, parse as parse_kernel
from .pipeline import AssembledSeries, CoverageError, EmptyDatasetError, HrvRasterStack, PowerData, PvSystem

__all__ = [
    "CLOUD_GIVEN",
    "CLOUD_PERSISTENCE",
    "STEPS_48H",
    "STEPS_4H",
    "ExperimentConfig",
    "FitOptions",
    "ForecastResult",
    "ReportRow",
    "ExperimentReport",
    "mae",
    "forecast_48h",
    "forecast_4h",
    "run_grid",
    "export_boxplot_data",
    "generate_synthetic",
    "SyntheticBundle",
    "set_one_configs",
    "set_two_configs",
    "custom_configs",
    "default_kernel",
    "training_set",
    "daylight",
]

CLOUD_GIVEN = "given"
CLOUD_PERSISTENCE = "persistence"
STEPS_48H = 576
STEPS_4H = 48

TRAINING_PERIOD_LABELS = {7: "1 week", 14: "2 weeks", 21: "3 weeks", 30: "1 month"}


def mae(actual, predicted) -> float:
    """Mean absolute error in watts: ``(1/N) * sum |y_i - y*_i|``."""
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0:
        raise ValueError("mae needs at least one sample")
    if actual.size != predicted.size:
        raise ValueError(f"length mismatch: {actual.size} vs {predicted.size}")
    return float(np.mean(np.abs(actual - predicted)))


@dataclass(frozen=True)
class FitOptions:
    """Settings of each launch's :func:`pvgp.gp.fit_hyperparameters` call."""

    restarts: int = gp.FIT_RESTARTS
    max_iter: int = gp.MAX_FIT_ITERATIONS
    optimize_period: bool = False

    def __post_init__(self):
        for name in ("restarts", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"fit option {name!r} must be >= 1, got {getattr(self, name)}")


def _fit(train: TrainingSet, template: KernelSpec, seed: int, options: FitOptions) -> KernelSpec:
    """Fit ``template``, re-anchored to ``train``'s scale, to ``train`` under ``options``.

    The one place a launch or ``pvgp fit`` meets the fitter, so both start
    from the same :func:`_anchor_template`.
    """
    return gp.fit_hyperparameters(train, _anchor_template(template, train), seed=seed, **asdict(options))


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell description.

    ``forecast_start`` anchors the first test day; with ``test_days`` > 1
    further forecasts launch at whole-day offsets.  The training window is
    the ``training_days`` of data ending at each launch, subsampled to
    every ``training_stride``-th step (a desk-scale control; 1 keeps the
    full 5-minute cadence).  ``refit=False`` uses the kernel template's
    hyperparameters as-is instead of refitting per launch.
    """

    training_days: int
    patch_px: int
    kernel: KernelSpec
    horizon_steps: int
    cloud_mode: str
    forecast_start: int
    system_ids: tuple[int, ...]
    test_days: int = 1
    training_stride: int = 1
    refit: bool = True

    def __post_init__(self):
        object.__setattr__(self, "system_ids", tuple(int(s) for s in self.system_ids))
        self.validate()

    def validate(self) -> None:
        if self.horizon_steps not in (STEPS_48H, STEPS_4H):
            raise ValueError(f"horizon_steps must be {STEPS_48H} or {STEPS_4H}, got {self.horizon_steps}")
        if self.cloud_mode not in (CLOUD_GIVEN, CLOUD_PERSISTENCE):
            raise ValueError(f"unknown cloud_mode {self.cloud_mode!r}")
        if self.horizon_steps == STEPS_48H and self.cloud_mode != CLOUD_GIVEN:
            raise ValueError("48-hour forecasts use given cloud coverage only")
        if self.patch_px not in (2, 6, 12):
            raise ValueError(f"patch_px must be one of 2, 6, 12, got {self.patch_px}")
        if self.training_days < 1 or self.test_days < 1 or self.training_stride < 1:
            raise ValueError("training_days, test_days and training_stride must be >= 1")
        if not self.system_ids:
            raise ValueError("system_ids must be nonempty")

    def training_period_label(self) -> str:
        return TRAINING_PERIOD_LABELS.get(self.training_days, f"{self.training_days} days")

    def kernel_label(self) -> str:
        name = kernels._shape_name(self.kernel)
        return f"periodic({name})" if self.kernel.family == PERIODIC else name

    def key(self) -> str:
        return "|".join(
            [
                f"{self.training_days}d",
                f"{self.patch_px}x{self.patch_px}",
                self.kernel_label(),
                f"{self.horizon_steps}steps",
                self.cloud_mode,
                f"start{self.forecast_start}",
            ]
        )

    def to_jsonable(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**data, "kernel": self.kernel.to_text(), "system_ids": list(self.system_ids)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_jsonable`; raises ``ValueError`` naming unknown or missing keys."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if unknown or missing:
            raise ValueError(f"experiment config: unknown key(s) {unknown}, missing key(s) {missing}")
        return cls(**{**data, "kernel": parse_kernel(data["kernel"])})


@dataclass
class ForecastResult:
    """One launched forecast with its score."""

    system_id: int
    forecast_start: int
    cloud_mode: str
    time_index: np.ndarray
    # raw posterior at daylight steps, watts; a night step is 0 W with zero
    # (co)variance by the solar-elevation rule, not from the posterior
    prediction: gp.PosteriorPrediction
    mean_clamped: np.ndarray  # [0, capacity] for reporting
    sd: np.ndarray
    truth: np.ndarray
    mae: float
    mae_daylight: float | None
    fitted_kernel: KernelSpec


def default_kernel(base: str = "matern12", ndim: int = 2) -> KernelSpec:
    """Periodic daily-cycle kernel template around a stationary base."""
    if base not in kernels._NAME_TO_FAMILY:
        raise ValueError(f"unknown base kernel {base!r}")
    shape, nu = kernels._NAME_TO_FAMILY[base]
    return KernelSpec(
        PERIODIC,
        amplitude=1.0,
        lengthscales=tuple([1.0] * ndim),
        alpha=2.0 if shape == RATIONAL_QUADRATIC else None,
        nu=nu,
        roughness=1.0,
        period=float(geotime.STEPS_PER_DAY),
        base=shape,
        noise_variance=0.01,
    )


def _anchor_template(template: KernelSpec, train: TrainingSet) -> KernelSpec:
    """Re-anchor a template's amplitude and noise to the training scale.

    Shape parameters (lengthscales, w, T, alpha, nu) pass through; this
    only gives the fit's first restart a scale-appropriate start.
    """
    return replace(template, amplitude=train.target_scale, noise_variance=0.05 * train.target_scale**2)


def daylight(series: AssembledSeries, time_index) -> np.ndarray:
    """True at each step of ``time_index`` whose solar elevation at the system is above 0 degrees."""
    seconds = series.epoch_utc.timestamp() + np.asarray(time_index, dtype=float) * geotime.STEP_SECONDS
    return np.asarray(geotime.solar_elevation_deg(series.latitude, series.longitude, seconds)) > 0.0


def training_set(series: AssembledSeries, end: int, training_days: int, stride: int) -> tuple[TrainingSet, AssembledSeries]:
    """The training set a launch at ``end`` fits and conditions on, and its window's rows.

    Takes the ``training_days`` of rows ending before ``end``, keeps every
    ``stride``-th step counted from the window's start, and of those the
    :func:`daylight` rows; the centring constants are theirs.  The window's
    rows are returned before thinning.  Raises
    :class:`~pvgp.pipeline.CoverageError` naming the window when it holds
    fewer than two rows, or fewer than two daylight rows are kept, and
    ``ValueError`` naming a ``training_days`` or ``stride`` below 1.
    """
    for name, value in (("training_days", training_days), ("training_stride", stride)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    lo = end - training_days * geotime.STEPS_PER_DAY
    rows = series.window(lo, end)
    if rows.n < 2:
        raise CoverageError(f"training window [{lo}, {end}) holds {rows.n} rows")
    keep = np.flatnonzero((rows.time_index - lo) % stride == 0)
    keep = keep[daylight(series, rows.time_index[keep])]
    if keep.size < 2:
        raise CoverageError(f"training window [{lo}, {end}) holds {keep.size} daylight rows")
    X = np.column_stack([rows.time_index[keep].astype(float), rows.hrv_mean[keep]])
    return TrainingSet.from_arrays(X, rows.power_w[keep]), rows


def _forecast_once(
    series: AssembledSeries,
    cfg: ExperimentConfig,
    day: int,
    seed: int,
    fit_options: FitOptions,
) -> ForecastResult:
    start = cfg.forecast_start + day * geotime.STEPS_PER_DAY
    train, train_rows = training_set(series, start, cfg.training_days, cfg.training_stride)

    horizon = series.window(start, start + cfg.horizon_steps)
    wanted = np.arange(start, start + cfg.horizon_steps)
    if horizon.n != cfg.horizon_steps or not np.array_equal(horizon.time_index, wanted):
        raise CoverageError(
            f"horizon [{start}, {start + cfg.horizon_steps}) covered by {horizon.n}/{cfg.horizon_steps} rows"
        )

    if cfg.cloud_mode == CLOUD_GIVEN:
        query_hrv = horizon.hrv_mean
    else:
        query_hrv = np.full(cfg.horizon_steps, train_rows.hrv_mean[-1])
    query = np.column_stack([wanted.astype(float), query_hrv])

    spec = _fit(train, cfg.kernel, seed, fit_options) if cfg.refit else cfg.kernel
    # night steps are 0 W with zero variance; the posterior covers daylight only
    day_mask = daylight(series, wanted)
    pred = gp.PosteriorPrediction(mean=np.zeros(cfg.horizon_steps), cov=np.zeros((cfg.horizon_steps,) * 2))
    if day_mask.any():
        day_pred = gp.posterior(train, query[day_mask], spec)
        pred.mean[day_mask] = day_pred.mean
        pred.cov[np.ix_(day_mask, day_mask)] = day_pred.cov
    clamped = np.clip(pred.mean, 0.0, series.capacity_w)
    error = mae(horizon.power_w, clamped)
    mae_daylight = mae(horizon.power_w[day_mask], clamped[day_mask]) if day_mask.any() else None

    return ForecastResult(
        system_id=series.system_id,
        forecast_start=start,
        cloud_mode=cfg.cloud_mode,
        time_index=wanted,
        prediction=pred,
        mean_clamped=clamped,
        sd=pred.std,
        truth=horizon.power_w.copy(),
        mae=error,
        mae_daylight=mae_daylight,
        fitted_kernel=spec,
    )


def _check_horizon(cfg: ExperimentConfig, expected: int) -> None:
    if cfg.horizon_steps != expected:
        raise ValueError(f"config horizon is {cfg.horizon_steps} steps, expected {expected}")


def forecast_48h(series: AssembledSeries, cfg: ExperimentConfig, seed: int = 0, fit_options: FitOptions | None = None) -> ForecastResult:
    """48-hour forecast (576 steps) with cloud coverage given at each step."""
    _check_horizon(cfg, STEPS_48H)
    return _forecast_once(series, cfg, day=0, seed=seed, fit_options=fit_options or FitOptions())


def forecast_4h(series: AssembledSeries, cfg: ExperimentConfig, seed: int = 0, fit_options: FitOptions | None = None) -> ForecastResult:
    """4-hour forecast (48 steps); persistence mode holds the last observed coverage."""
    _check_horizon(cfg, STEPS_4H)
    return _forecast_once(series, cfg, day=0, seed=seed, fit_options=fit_options or FitOptions())


# -- grid running ----------------------------------------------------------------


@dataclass
class ReportRow:
    config: ExperimentConfig
    per_system: dict[int, float]  # successful cells only
    failures: dict[int, str]

    @property
    def average(self) -> float | None:
        if not self.per_system:
            return None
        return float(np.mean(sorted(self.per_system.values())))

    def _cells(self, ids, number, blank: str) -> tuple[list[str], list[str]]:
        """Label cells, then a cell per system in ``ids`` and the average: ``number(value)``, "failed" or ``blank``."""
        cfg = self.config
        labels = [cfg.training_period_label(), f"{cfg.patch_px}x{cfg.patch_px}", cfg.kernel_label(), cfg.cloud_mode]
        values = [
            number(self.per_system[i]) if i in self.per_system else "failed" if i in self.failures else blank
            for i in ids
        ]
        values.append(blank if self.average is None else number(self.average))
        return labels, values


@dataclass
class ExperimentReport:
    """Grid results: one row per config, plus per-day samples for box plots."""

    rows: list[ReportRow]
    samples: list[tuple[int, int, int, float]]  # (config index, system, day, mae)
    seed: int

    def system_ids(self) -> list[int]:
        ids: set[int] = set()
        for row in self.rows:
            ids.update(row.config.system_ids)
        return sorted(ids)

    def to_csv(self) -> str:
        ids = self.system_ids()
        header = ["training_period", "sky_coverage", "kernel", "cloud_mode", "horizon_steps"]
        header += [f"system_{i}_mae_w" for i in ids] + ["average_mae_w", "status"]
        lines = [",".join(header)]
        for row in self.rows:
            labels, values = row._cells(ids, repr, "")
            status = "ok" if not row.failures else f"failed:{len(row.failures)}"
            lines.append(",".join(labels + [str(row.config.horizon_steps)] + values + [status]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        ids = self.system_ids()
        header = ["training", "sky", "kernel", "mode"] + [str(i) for i in ids] + ["average"]
        table = [header]
        for row in self.rows:
            labels, values = row._cells(ids, "{:.2f}".format, "-")
            table.append(labels + values)
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "rows": [
                {
                    "config": row.config.to_jsonable(),
                    "per_system": {str(k): v for k, v in sorted(row.per_system.items())},
                    "failures": {str(k): v for k, v in sorted(row.failures.items())},
                    "average": row.average,
                }
                for row in self.rows
            ],
            "samples": [list(s) for s in self.samples],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Inverse of :meth:`to_json`.

        Raises ``ValueError`` naming every missing top-level key, or the
        index and the missing key or wrong shape of a malformed row or sample.
        """
        payload = _json_object(json.loads(text), "report document", ("rows", "samples", "seed"))
        if not (isinstance(payload["rows"], list) and isinstance(payload["samples"], list) and type(payload["seed"]) is int):
            raise ValueError("report document: 'rows' and 'samples' must be lists and 'seed' an integer")
        rows, samples = [], []
        for i, item in enumerate(payload["rows"]):
            where = f"report document: row {i}"
            item = _json_object(item, where, _ROW_KEYS)
            config, per_system, failures = (_json_object(item[key], f"{where} {key}", ()) for key in _ROW_KEYS)
            try:
                rows.append(
                    ReportRow(
                        config=ExperimentConfig.from_jsonable(config),
                        per_system={int(k): float(v) for k, v in per_system.items()},
                        failures={int(k): str(v) for k, v in failures.items()},
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
        for i, item in enumerate(payload["samples"]):
            try:
                if not (isinstance(item, list) and len(item) == 4):
                    raise ValueError(f"expected [config index, system, day, mae], got {item!r}")
                samples.append((int(item[0]), int(item[1]), int(item[2]), float(item[3])))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"report document: sample {i}: {exc}") from exc
        return cls(rows=rows, samples=samples, seed=payload["seed"])


_ROW_KEYS = ("config", "per_system", "failures")


def _json_object(value, where: str, required) -> dict:
    """``value`` if it is a JSON object holding every ``required`` key; else ``ValueError`` naming ``where``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")
    return value


def _cell_seed(seed: int, config_index: int, system_id: int, day: int) -> int:
    ss = np.random.SeedSequence([int(seed), int(config_index), int(system_id), int(day)])
    return int(ss.generate_state(1)[0])


def run_grid(
    configs: list[ExperimentConfig],
    datasets: dict[tuple[int, int], AssembledSeries],
    seed: int = 0,
    jobs: int = 1,
    fit_options: FitOptions | None = None,
) -> ExperimentReport:
    """Execute every (config, system, test day) cell and collect MAEs.

    ``datasets`` maps (system_id, patch_px) to an assembled series.  Cell
    failures are recorded, never fatal.  Execution may be parallel
    (``jobs``); assembly order is deterministic regardless, and per-cell
    seeds derive from (seed, config index, system, day).
    """
    if not configs:
        raise ValueError("empty experiment grid")
    fit_options = fit_options or FitOptions()

    tasks = []
    for ci, cfg in enumerate(configs):
        for sid in cfg.system_ids:
            tasks.append((ci, cfg, sid))

    def run_cell(task):
        ci, cfg, sid = task
        series = datasets.get((sid, cfg.patch_px))
        if series is None:
            return ci, sid, None, f"no dataset for system {sid} at {cfg.patch_px}x{cfg.patch_px}"
        day_maes = []
        try:
            for day in range(cfg.test_days):
                result = _forecast_once(series, cfg, day, _cell_seed(seed, ci, sid, day), fit_options)
                day_maes.append(result.mae)
        except (CoverageError, EmptyDatasetError, ConditioningError, FitError, ValueError) as exc:
            return ci, sid, None, f"{type(exc).__name__}: {exc}"
        return ci, sid, day_maes, None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_cell, tasks))
    else:
        outcomes = [run_cell(t) for t in tasks]

    rows = [ReportRow(config=cfg, per_system={}, failures={}) for cfg in configs]
    samples: list[tuple[int, int, int, float]] = []
    for ci, sid, day_maes, failure in outcomes:
        if failure is not None:
            rows[ci].failures[sid] = failure
            continue
        rows[ci].per_system[sid] = float(np.mean(day_maes))
        for day, value in enumerate(day_maes):
            samples.append((ci, sid, day, value))
    samples.sort(key=lambda s: (s[0], s[1], s[2]))
    return ExperimentReport(rows=rows, samples=samples, seed=seed)


# -- box-plot export -----------------------------------------------------------


def export_boxplot_data(report: ExperimentReport, group_by: str, path=None) -> list[dict]:
    """Tukey box-plot statistics of MAE samples, grouped for plotting.

    ``group_by`` is ``"testing-day"`` or ``"system"``.  Whiskers reach the
    most extreme samples within 1.5 IQR of the quartile; everything beyond
    is listed as an outlier.  Returns the rows; writes CSV when ``path``
    is given.
    """
    if group_by not in ("testing-day", "system"):
        raise ValueError(f"group_by must be 'testing-day' or 'system', got {group_by!r}")
    pos = 2 if group_by == "testing-day" else 1
    groups: dict[int, list[float]] = {}
    for sample in report.samples:
        groups.setdefault(sample[pos], []).append(sample[3])
    failed = sum(len(r.failures) for r in report.rows)
    if failed:
        warnings.warn(f"{failed} failed cell(s) contribute no box-plot samples", stacklevel=2)

    rows = []
    for key in sorted(groups):
        values = np.sort(np.asarray(groups[key], dtype=float))
        q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = values[(values >= lo_fence) & (values <= hi_fence)]
        outliers = values[(values < lo_fence) | (values > hi_fence)]
        rows.append(
            {
                "group": int(key),
                "count": int(values.size),
                "minimum": float(values[0]),
                "q1": q1,
                "median": median,
                "q3": q3,
                "maximum": float(values[-1]),
                "whisker_low": float(inside[0]),
                "whisker_high": float(inside[-1]),
                "outliers": ";".join(repr(float(v)) for v in outliers),
            }
        )
    if path is not None:
        header = ["group", "count", "minimum", "q1", "median", "q3", "maximum", "whisker_low", "whisker_high", "outliers"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h]) for h in header))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


# -- synthetic data ---------------------------------------------------------------

SCENARIOS = ("clear-sky", "overcast", "scattered")


@dataclass
class SyntheticBundle:
    """In-memory synthetic dataset plus writers for the wire formats."""

    system: PvSystem
    power: PowerData
    stack: HrvRasterStack
    cloud_fraction: np.ndarray
    clear_power: np.ndarray

    def write(self, outdir) -> dict[str, str]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        meta = outdir / "metadata.csv"
        meta.write_text(
            "system_id,latitude,longitude,capacity_w\n"
            f"{self.system.system_id},{self.system.location.latitude!r},"
            f"{self.system.location.longitude!r},{self.system.capacity_w!r}\n",
            encoding="utf-8",
        )
        power_path = outdir / "power.csv"
        idx, watts = self.power.series[self.system.system_id]
        lines = ["timestamp_utc,system_id,power_w"]
        for t, p in zip(idx.tolist(), watts.tolist()):
            lines.append(f"{geotime.index_to_iso(t, self.power.epoch_utc)},{self.system.system_id},{p!r}")
        power_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        hrv_path = outdir / "hrv.bin"
        pipeline.write_hrv(hrv_path, self.stack)
        return {"metadata": str(meta), "power": str(power_path), "hrv": str(hrv_path)}


def _cloud_fraction(scenario: str, n: int, rng: np.random.Generator, overcast_fraction: float) -> np.ndarray:
    if scenario == "clear-sky":
        return np.zeros(n)
    if scenario == "overcast":
        return np.full(n, float(overcast_fraction))
    # scattered: step changes between near-clear gaps and thick cloud banks
    cf = np.empty(n)
    t = 0
    while t < n:
        length = int(rng.integers(12, 37))  # 1 to 3 hours of stable cover
        if rng.uniform() < 0.5:
            cf[t : t + length] = rng.uniform(0.0, 0.15)
        else:
            cf[t : t + length] = rng.uniform(0.55, 0.95)
        t += length
    return cf


def generate_synthetic(
    scenario: str,
    days: int,
    system: PvSystem,
    seed: int,
    start_utc: dt.datetime = dt.datetime(2021, 6, 1, tzinfo=dt.timezone.utc),
    cloud_attenuation: float = 0.9,
    overcast_fraction: float = 1.0,
    grid_px: int = 16,
    pixel_size: float = 1000.0,
    sensor_max: float = pipeline.HRV_SENSOR_MAX,
    clear_sky_hrv: float = 0.08,
    overcast_hrv: float = 0.85,
) -> SyntheticBundle:
    """Deterministic synthetic power series and matching HRV raster stack.

    Clear-sky power is ``capacity * max(0, sin(elevation))``; cloud cover
    multiplies it by ``1 - cloud_attenuation * fraction``.  Rasters are
    uniform per frame, bright when cloudy, with the system's pixel at the
    grid centre.  The ``scattered`` scenario draws seeded step changes in
    cover; all scenarios are reproducible per seed.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    epoch = start_utc.replace(hour=0, minute=0, second=0, microsecond=0)
    n = days * geotime.STEPS_PER_DAY
    rng = np.random.default_rng(seed)

    seconds = epoch.timestamp() + np.arange(n, dtype=float) * geotime.STEP_SECONDS
    elevation = np.asarray(geotime.solar_elevation_deg(system.location.latitude, system.location.longitude, seconds))
    clear = system.capacity_w * np.clip(np.sin(np.radians(elevation)), 0.0, None)
    cf = _cloud_fraction(scenario, n, rng, overcast_fraction)
    power = clear * (1.0 - cloud_attenuation * cf)

    hrv_value = (clear_sky_hrv + cf * (overcast_hrv - clear_sky_hrv)) * sensor_max
    frames = np.repeat(hrv_value.astype(np.float32)[:, None, None], grid_px, axis=1)
    frames = np.repeat(frames, grid_px, axis=2)
    origin_e = math.floor(system.location.easting / pixel_size) * pixel_size - (grid_px // 2) * pixel_size
    origin_n = math.floor(system.location.northing / pixel_size) * pixel_size - (grid_px // 2) * pixel_size
    stack = HrvRasterStack(
        origin_easting=origin_e,
        origin_northing=origin_n,
        pixel_size=pixel_size,
        width=grid_px,
        height=grid_px,
        epoch_utc=epoch,
        frame_indices=np.arange(n, dtype=np.int64),
        frames=frames,
    )
    power_data = PowerData(
        epoch_utc=epoch,
        series={system.system_id: (np.arange(n, dtype=np.int64), power)},
        skipped=[],
    )
    return SyntheticBundle(system=system, power=power_data, stack=stack, cloud_fraction=cf, clear_power=clear)


# -- protocol grids ----------------------------------------------------------------


def set_one_configs(
    system_ids,
    training_days=(7, 14, 21, 30),
    patch_px=(2, 6, 12),
    kernel_bases=("se", "rq", "matern12"),
    **cell,
) -> list[ExperimentConfig]:
    """48-hour protocol grid in the one-factor-at-a-time row layout.

    Rows: training period varied at 2x2/matern12, then patch size varied
    at 3 weeks/matern12, then kernel varied at 3 weeks/2x2.  ``cell``
    holds the :class:`ExperimentConfig` fields every row shares:
    ``forecast_start`` and any of ``test_days``, ``training_stride`` and
    ``refit``.  The same holds for the other grid builders.
    """
    common = dict(horizon_steps=STEPS_48H, cloud_mode=CLOUD_GIVEN, system_ids=tuple(system_ids), **cell)
    m12 = default_kernel("matern12")
    return (
        [ExperimentConfig(training_days=days, patch_px=2, kernel=m12, **common) for days in training_days]
        + [ExperimentConfig(training_days=21, patch_px=patch, kernel=m12, **common) for patch in patch_px]
        + [ExperimentConfig(training_days=21, patch_px=2, kernel=default_kernel(base), **common) for base in kernel_bases]
    )


def set_two_configs(system_ids, training_days=21, patch_px=(6, 12), **cell) -> list[ExperimentConfig]:
    """4-hour protocol grid: given vs persistence coverage at each patch size."""
    return [
        ExperimentConfig(
            training_days=training_days,
            patch_px=patch,
            kernel=default_kernel("matern12"),
            horizon_steps=STEPS_4H,
            cloud_mode=mode,
            system_ids=tuple(system_ids),
            **cell,
        )
        for patch in patch_px
        for mode in (CLOUD_GIVEN, CLOUD_PERSISTENCE)
    ]


def custom_configs(
    system_ids,
    training_days=(1,),
    patch_px=(6,),
    kernels=(),
    horizon_steps=STEPS_4H,
    cloud_modes=(CLOUD_GIVEN,),
    **cell,
) -> list[ExperimentConfig]:
    """Cross product of training periods, patch sizes, kernel texts and cloud modes."""
    if not kernels:
        raise ValueError("kernels must list at least one kernel text")
    specs = [parse_kernel(text) for text in kernels]
    return [
        ExperimentConfig(
            training_days=days,
            patch_px=patch,
            kernel=spec,
            horizon_steps=horizon_steps,
            cloud_mode=mode,
            system_ids=tuple(system_ids),
            **cell,
        )
        for days in training_days
        for patch in patch_px
        for spec in specs
        for mode in cloud_modes
    ]
