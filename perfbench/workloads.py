"""The three benchmark workloads: seeded inputs, set-up, ops and output checks.

Each workload writes a seeded synthetic bundle to disk, ingests it in its
set-up, and then runs ops in a closed loop with one caller.  Ops cycle
through a fixed list of ``cycle`` distinct launches, so quality figures and
traced counts come from the same work on every run of a seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pvgp import cli, experiments, geotime, pipeline
from pvgp.geotime import GeoPoint
from pvgp.pipeline import PvSystem

DAY = geotime.STEPS_PER_DAY
SYSTEM_ID = 1
CAPACITY_W = 3000.0
REPORT_FILES = ("report.csv", "report.txt", "report.json", "boxplot_by_day.csv", "boxplot_by_system.csv")


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def write_bundle(seed: int, days: int, outdir: Path) -> tuple[dict[str, str], np.ndarray]:
    """Scattered-cloud bundle for one 3 kW system; returns paths and true power."""
    system = PvSystem(system_id=SYSTEM_ID, location=GeoPoint.from_latlon(51.5, -0.12), capacity_w=CAPACITY_W)
    bundle = experiments.generate_synthetic("scattered", days, system, seed=derived_seed(seed, 0))
    paths = bundle.write(outdir)
    return paths, bundle.power.series[SYSTEM_ID][1]


def ingest(paths: dict[str, str], patches) -> dict[tuple[int, int], pipeline.AssembledSeries]:
    """The user's ingest path: metadata, power, HRV, filters, one assemble per patch.

    Module attributes are looked up at call time so a traced run sees them.
    """
    meta = pipeline.load_metadata(paths["metadata"])
    power = pipeline.load_power(paths["power"])
    stack = pipeline.read_hrv(paths["hrv"], power.epoch_utc)
    kept = pipeline.filter_systems(meta.systems, power).kept
    lo = int(min(idx.min() for idx, _ in power.series.values()))
    hi = int(max(idx.max() for idx, _ in power.series.values())) + 1
    return {
        (system.system_id, patch): pipeline.assemble(system, power, stack, patch, (lo, hi))
        for system in kept
        for patch in patches
    }


@dataclass
class Launch:
    """Forecast-launch workloads: one op is one ``forecast_4h``/``forecast_48h`` call."""

    horizon: int
    training_days: int
    stride: int
    refit: bool
    patch: int
    hour_steps: int  # launch offset into the day
    cycle: int
    kernel: object
    fit: experiments.FitOptions

    @property
    def days(self) -> int:
        return self.training_days + self.cycle + math.ceil((self.hour_steps + self.horizon) / DAY)

    @property
    def patches(self) -> tuple[int, ...]:
        return (self.patch,)

    def prepare(self, seed: int, datasets, truth: np.ndarray, workdir: Path) -> None:
        self.series = datasets[(SYSTEM_ID, self.patch)]
        self.truth = truth
        self.configs = [
            experiments.ExperimentConfig(
                training_days=self.training_days,
                patch_px=self.patch,
                kernel=self.kernel,
                horizon_steps=self.horizon,
                cloud_mode=experiments.CLOUD_GIVEN,
                forecast_start=(self.training_days + day) * DAY + self.hour_steps,
                system_ids=(SYSTEM_ID,),
                training_stride=self.stride,
                refit=self.refit,
            )
            for day in range(self.cycle)
        ]
        self.fit_seeds = [derived_seed(seed, 1, day) for day in range(self.cycle)]

    def op(self, i: int):
        k = i % self.cycle
        # looked up per call so a traced run goes through its wrapper
        runner = experiments.forecast_4h if self.horizon == experiments.STEPS_4H else experiments.forecast_48h
        return runner(self.series, self.configs[k], seed=self.fit_seeds[k], fit_options=self.fit)

    def op_size(self, i: int) -> dict:
        cfg = self.configs[i % self.cycle]
        n = len(range(0, cfg.training_days * DAY, cfg.training_stride))
        return {"launch": cfg.forecast_start, "n": n, "horizon": cfg.horizon_steps}

    def check(self, i: int, result) -> None:
        cfg = self.configs[i % self.cycle]
        wanted = np.arange(cfg.forecast_start, cfg.forecast_start + self.horizon)
        _require(result.time_index.size == self.horizon, f"{result.time_index.size} horizon points, want {self.horizon}")
        _require(np.array_equal(result.time_index, wanted), "horizon time index is not the launch window")
        for label, values in (("mean", result.prediction.mean), ("cov", result.prediction.cov), ("sd", result.sd)):
            _require(bool(np.isfinite(values).all()), f"non-finite {label}")
        clamped = result.mean_clamped
        _require(bool(((clamped >= 0.0) & (clamped <= self.series.capacity_w)).all()), "mean_clamped outside [0, capacity]")
        _require(np.array_equal(result.truth, self.truth[wanted]), "truth differs from the generated power")
        _require(result.mae == experiments.mae(result.truth, clamped), "result.mae != mae(truth, mean_clamped)")

    def quality(self, results: list) -> tuple[float, float]:
        """Mean MAE and |95% coverage - 0.95| over one cycle of launches."""
        first = results[: self.cycle]
        inside = np.concatenate([np.abs(r.truth - r.mean_clamped) <= 1.96 * r.sd for r in first])
        return float(np.mean([r.mae for r in first])), abs(float(inside.mean()) - 0.95)


@dataclass
class CliSetOne:
    """``pvgp experiment`` on the set-one protocol: one op is one in-process CLI call."""

    training_days: tuple[int, ...]
    cycle: int
    stride: int = 24

    @property
    def days(self) -> int:
        return max(self.training_days) + 2

    patches = (2, 6, 12)

    def prepare(self, seed: int, datasets, truth: np.ndarray, workdir: Path) -> None:
        self.datasets = datasets
        self.workdir = workdir
        config = {
            "seed": seed,
            "jobs": 1,
            "paths": {
                "metadata": str(workdir / "bundle" / "metadata.csv"),
                "power": str(workdir / "bundle" / "power.csv"),
                "hrv": str(workdir / "bundle" / "hrv.bin"),
                "output_dir": str(workdir / "cli-out"),
            },
            "experiment": {
                "protocol": "set_one",
                "training_stride": self.stride,
                "refit": False,
                "set_one": {"training_days": list(self.training_days)},
            },
        }
        self.config_path = workdir / "experiment.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.first_files: dict[str, bytes] | None = None

    def _outdir(self, i: int) -> Path:
        return self.workdir / "cli-out" / f"op{i:04d}"

    def op(self, i: int):
        argv = ["experiment", "--config", str(self.config_path), "--out", str(self._outdir(i))]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def op_size(self, i: int) -> dict:
        rows = [len(range(0, d * DAY, self.stride)) for d in self.training_days]
        return {"cells": len(self.layout()), "n": rows, "horizon": experiments.STEPS_48H}

    def layout(self) -> list[tuple[int, int, str]]:
        """Set one's one-factor-at-a-time rows: training period, patch, kernel."""
        m12 = "periodic(matern12)"
        return (
            [(days, 2, m12) for days in self.training_days]
            + [(21, patch, m12) for patch in (2, 6, 12)]
            + [(21, 2, f"periodic({base})") for base in ("se", "rq", "matern12")]
        )

    def check(self, i: int, code) -> None:
        _require(code == 0, f"pvgp experiment exited {code}")
        outdir = self._outdir(i)
        files = {name: (outdir / name).read_bytes() for name in REPORT_FILES}
        if self.first_files is None:
            report = experiments.ExperimentReport.from_json(files["report.json"].decode("utf-8"))
            layout = [(r.config.training_days, r.config.patch_px, r.config.kernel_label()) for r in report.rows]
            _require(layout == self.layout(), f"report rows are not the set-one layout: {layout}")
            failures = [f for row in report.rows for f in row.failures.values()]
            _require(not failures, f"failed cells: {failures}")
            self.first_files, self.report = files, report
        else:
            changed = [name for name in REPORT_FILES if files[name] != self.first_files[name]]
            _require(not changed, f"report files differ from the run's first op: {changed}")

    def quality(self, results: list) -> tuple[float, float]:
        """Mean of report.json row averages, and |95% coverage - 0.95| of its cells.

        report.json carries no sd, so each cell is replayed through
        ``forecast_48h`` on the set-up's series; the replay must reproduce
        the cell's MAE, which also ties the CLI's report to the library.
        """
        inside = []
        for row in self.report.rows:
            cfg = row.config
            result = experiments.forecast_48h(self.datasets[(SYSTEM_ID, cfg.patch_px)], cfg)
            _require(
                math.isclose(result.mae, row.per_system[SYSTEM_ID], rel_tol=1e-12),
                f"replayed cell {cfg.key()} MAE {result.mae!r} != report {row.per_system[SYSTEM_ID]!r}",
            )
            inside.append(np.abs(result.truth - result.mean_clamped) <= 1.96 * result.sd)
        mae_w = float(np.mean([row.average for row in self.report.rows]))
        return mae_w, abs(float(np.concatenate(inside).mean()) - 0.95)
