"""Command-line entry point.

One binary, subcommand style; all numerics live in the library modules and
this stays a thin shell.  Subcommands: ``ingest``, ``synth``, ``fit``,
``forecast``, ``experiment``, ``report``.  Every run merges the JSON
config over the defaults (unknown keys rejected), applies CLI overrides,
and writes the resulting effective config next to its outputs so the run
can be reproduced bit-for-bit from that file and the seed.

Defaults the library owns are read from it, not restated: ``fit`` is
:class:`~pvgp.experiments.FitOptions`, ``kernel`` is
:func:`~pvgp.experiments.default_kernel`, the generator values and start
date of ``synth`` are :func:`~pvgp.experiments.generate_synthetic`'s
keyword defaults, and ``test_days``, ``training_stride`` and ``refit`` are
:class:`~pvgp.experiments.ExperimentConfig`'s.  Each protocol block under
``experiment`` (``set_one``, ``set_two``, ``custom``) holds its grid
builder's keyword defaults under the builder's parameter names, and is
passed to that builder as it stands.

Exit codes: 0 success, 2 usage/config/data error, 3 internal numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import datetime as dt
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import geotime, gp, kernels, pipeline
from .geotime import TransverseMercator
from .gp import ConditioningError, FitError
from .pipeline import BoundaryBox

__all__ = ["main", "DEFAULT_CONFIG", "load_config", "read_forecast_csv"]


class ConfigError(ValueError):
    """Bad configuration document."""


def _keyword_defaults(fn) -> dict:
    """The keyword defaults of ``fn`` as config values (tuples become lists)."""
    return {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty
    }


_PROTOCOLS = {"set_one": ex.set_one_configs, "set_two": ex.set_two_configs, "custom": ex.custom_configs}
# the grid cell fields with a default: test_days, training_stride, refit
_CELL = _keyword_defaults(ex.ExperimentConfig)
_GENERATOR = _keyword_defaults(ex.generate_synthetic)
# generator keywords the synth block carries as they are; the start is a
# date there, and the sensor maximum is hrv.sensor_max
_SYNTH_KEYS = [key for key in _GENERATOR if key not in ("start_utc", "sensor_max")]

DEFAULT_CONFIG = {
    "seed": 0,
    "jobs": 1,
    "paths": {
        "metadata": None,
        "power": None,
        "hrv": None,
        "output_dir": "pvgp-out",
    },
    "projection": TransverseMercator().to_mapping(),
    "boundary": {
        "min_easting": 0.0,
        "min_northing": 0.0,
        "max_easting": 700_000.0,
        "max_northing": 1_300_000.0,
    },
    "filters": {
        "night_elevation_deg": geotime.NIGHT_ELEVATION_DEG,
        "overnight_power_fraction": pipeline.OVERNIGHT_POWER_FRACTION,
        "overnight_min_nights": pipeline.OVERNIGHT_MIN_NIGHTS,
    },
    "hrv": {
        "sensor_max": pipeline.HRV_SENSOR_MAX,
        "patch_px": 6,
    },
    "kernel": ex.default_kernel().to_text(),
    "fit": _keyword_defaults(ex.FitOptions),
    "forecast": {"training_days": 1, "training_stride": _CELL["training_stride"], "refit": _CELL["refit"]},
    "experiment": {
        "protocol": "set_two",
        "systems": [],
        "forecast_start_index": None,
        **_CELL,
        **{name: _keyword_defaults(builder) for name, builder in _PROTOCOLS.items()},
    },
    "synth": {
        "scenario": "scattered",
        "days": 12,
        "start_date": _GENERATOR["start_utc"].date().isoformat(),
        "system_id": 1,
        "latitude": 51.5,
        "longitude": -0.12,
        "capacity_w": 3000.0,
        **{key: _GENERATOR[key] for key in _SYNTH_KEYS},
    },
    "invocation": None,
}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path[:-1] or '<root>'} must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        name = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        example = _EXAMPLE.get(name, default)
        if example is None or (value is None and default is None):
            merged[key] = copy.deepcopy(value)
        elif isinstance(example, dict):
            merged[key] = _merge(example, value, path=f"{name}.")
        elif _same_type(value, example):
            if isinstance(example, list):
                _check_entries(value, example[0], name)
            merged[key] = copy.deepcopy(value)
        else:
            want, got = type(example).__name__, type(value).__name__
            raise ConfigError(f"config key {name!r} must be {want}, got {got} {value!r}")
    return merged


# a value of the JSON type of each key whose default is null or an empty list; null
# stays allowed, and invocation, with none, takes any value
_EXAMPLE = {
    **dict.fromkeys(["paths.metadata", "paths.power", "paths.hrv"], ""),
    "experiment.systems": [0],
    "experiment.forecast_start_index": 0,
    "experiment.custom.kernels": [""],
}


def _check_entries(value: list, example, key: str) -> None:
    """Raise ``ConfigError`` naming ``key`` unless every entry has the JSON type of ``example``."""
    for i, entry in enumerate(value):
        if not _same_type(entry, example):
            want, got = type(example).__name__, type(entry).__name__
            raise ConfigError(f"config key {key!r} entry {i} must be {want}, got {got} {entry!r}")


def _same_type(value, default) -> bool:
    """Whether ``value`` has the JSON type of ``default``; an integer stands for a float."""
    return type(value) is type(default) or (type(default) is float and type(value) is int)


# the lower bound of each key that no library check covers; null passes.  Checked
# after the command line's overrides, before any output is written
_MINIMUM = {"seed": 0, "jobs": 1, "experiment.forecast_start_index": 0}


def _check_minima(cfg: dict) -> None:
    """Raise ``ConfigError`` naming the first :data:`_MINIMUM` key whose value is below its bound."""
    for name, low in _MINIMUM.items():
        value = cfg
        for part in name.split("."):
            value = value[part]
        if value is not None and value < low:
            raise ConfigError(f"config key {name!r} must be >= {low}, got {value}")


def load_config(path: str | None) -> dict:
    """Read the JSON config document and merge it over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    text = Path(path).read_text(encoding="utf-8")
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return _merge(DEFAULT_CONFIG, user)


def _write_effective_config(cfg: dict) -> Path:
    """Write ``effective_config.json`` into the output directory and return the directory.

    Called once a command's inputs have loaded, so a run rejected for its
    inputs leaves no output behind.
    """
    outdir = Path(cfg["paths"]["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "effective_config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return outdir


def _require_path(cfg: dict, key: str) -> Path:
    value = cfg["paths"].get(key)
    if not value:
        raise ConfigError(f"paths.{key} is not set in the config")
    path = Path(value)
    if not path.exists():
        raise FileNotFoundError(f"paths.{key}: no such file: {path}")
    return path


def _load_bundle(cfg: dict):
    """Load metadata + power + HRV and run the cleaning filters."""
    projection = TransverseMercator.from_mapping(cfg["projection"])
    meta = pipeline.load_metadata(_require_path(cfg, "metadata"), projection)
    power = pipeline.load_power(_require_path(cfg, "power"))
    stack = pipeline.read_hrv(_require_path(cfg, "hrv"), power.epoch_utc)
    boundary = BoundaryBox(**cfg["boundary"])
    filters = cfg["filters"]
    result = pipeline.filter_systems(
        meta.systems,
        power,
        boundary,
        night_threshold_deg=filters["night_elevation_deg"],
        overnight_fraction=filters["overnight_power_fraction"],
        min_nights=filters["overnight_min_nights"],
    )
    return meta, power, stack, result


def _assemble_kept(cfg: dict, power, stack, kept, patch_px: int):
    datasets = {}
    lo = int(min(idx.min() for idx, _ in power.series.values()))
    hi = int(max(idx.max() for idx, _ in power.series.values())) + 1
    for system in kept:
        datasets[(system.system_id, patch_px)] = pipeline.assemble(
            system, power, stack, patch_px, (lo, hi), sensor_max=cfg["hrv"]["sensor_max"]
        )
    return datasets


def _load_series(cfg: dict, system_id: int):
    """Load the bundle and assemble one kept system at ``hrv.patch_px``."""
    _, power, stack, result = _load_bundle(cfg)
    kept = [system for system in result.kept if system.system_id == system_id]
    if not kept:
        raise ConfigError(f"unknown or filtered system {system_id}")
    patch = cfg["hrv"]["patch_px"]
    return _assemble_kept(cfg, power, stack, kept, patch)[(system_id, patch)]


def _print_filter_summary(meta, power, result, out) -> None:
    """Kept and removed systems, every skipped metadata row, and the count and first five of the skipped power rows."""
    print(f"kept {len(result.kept)} system(s)", file=out)
    print(f"removed {len(result.removed)} system(s)", file=out)
    for removal in result.removed:
        print(f"  system {removal.system.system_id}: {removal.reason} ({removal.detail})", file=out)
    for what, skipped, shown in (("metadata", meta.skipped, None), ("power", power.skipped, 5)):
        if skipped:
            print(f"skipped {len(skipped)} {what} row(s)", file=out)
            for lineno, reason in sorted(skipped)[:shown]:
                print(f"  line {lineno}: {reason}", file=out)


# -- subcommands -------------------------------------------------------------


def cmd_ingest(cfg: dict, args) -> int:
    meta, power, stack, result = _load_bundle(cfg)
    patch = cfg["hrv"]["patch_px"]
    datasets = _assemble_kept(cfg, power, stack, result.kept, patch)
    outdir = _write_effective_config(cfg)
    _print_filter_summary(meta, power, result, sys.stdout)
    for (sid, _), series in sorted(datasets.items()):
        path = outdir / f"assembled_{sid}_{patch}px.csv"
        lines = ["time_index,timestamp_utc,hrv_mean,power_w"]
        for t, h, p in zip(series.time_index.tolist(), series.hrv_mean.tolist(), series.power_w.tolist()):
            lines.append(f"{t},{geotime.index_to_iso(t, series.epoch_utc)},{h!r},{p!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"assembled system {sid}: {series.n} rows, {series.gaps} gaps -> {path}", file=sys.stdout)
    return 0


def cmd_synth(cfg: dict, args) -> int:
    s = cfg["synth"]
    projection = TransverseMercator.from_mapping(cfg["projection"])
    location = geotime.GeoPoint.from_latlon(s["latitude"], s["longitude"], projection)
    system = pipeline.PvSystem(system_id=s["system_id"], location=location, capacity_w=s["capacity_w"])
    # a calendar date: a time or an offset would be dropped, so neither is accepted
    try:
        start = dt.date.fromisoformat(s["start_date"])
    except ValueError as exc:
        raise ConfigError(f"config key 'synth.start_date' must be a date YYYY-MM-DD, got {s['start_date']!r}") from exc
    bundle = ex.generate_synthetic(
        s["scenario"],
        s["days"],
        system,
        seed=cfg["seed"],
        start_utc=dt.datetime.combine(start, dt.time(), tzinfo=geotime.UTC),
        sensor_max=cfg["hrv"]["sensor_max"],
        **{key: s[key] for key in _SYNTH_KEYS},
    )
    paths = bundle.write(_write_effective_config(cfg))
    for kind, path in paths.items():
        print(f"{kind}: {path}", file=sys.stdout)
    return 0


def cmd_fit(cfg: dict, args) -> int:
    series = _load_series(cfg, args.system)
    fc = cfg["forecast"]
    # the daylight rows a forecast launch ending after the last row would fit on
    end = int(series.time_index.max()) + 1
    train, _ = ex.training_set(series, end, fc["training_days"], fc["training_stride"])
    template = kernels.parse(cfg["kernel"])
    fit_options = ex.FitOptions(**cfg["fit"])
    outdir = _write_effective_config(cfg)
    fitted = ex._fit(train, template, cfg["seed"], fit_options)
    objective = gp.log_marginal_likelihood(train, fitted)
    text = fitted.to_text()
    (outdir / "fitted_kernel.txt").write_text(f"{text}\nlog_marginal_likelihood={objective!r}\n", encoding="utf-8")
    print(text, file=sys.stdout)
    print(f"log marginal likelihood: {objective:.4f} ({train.n} training rows)", file=sys.stdout)
    return 0


def cmd_forecast(cfg: dict, args) -> int:
    series = _load_series(cfg, args.system)
    try:
        start = geotime.timestamp_to_index(dt.datetime.fromisoformat(args.start.replace("Z", "+00:00")), series.epoch_utc)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"--start {args.start}: {exc}") from exc
    if start < 0:
        raise ConfigError(f"--start {args.start} is before the data's first step: forecast start index {start}")
    horizon, runner = {"48h": (ex.STEPS_48H, ex.forecast_48h), "4h": (ex.STEPS_4H, ex.forecast_4h)}[args.horizon]
    config = ex.ExperimentConfig(
        **cfg["forecast"],
        patch_px=cfg["hrv"]["patch_px"],
        kernel=kernels.parse(cfg["kernel"]),
        horizon_steps=horizon,
        cloud_mode=args.cloud_mode,
        forecast_start=start,
        system_ids=(args.system,),
    )
    fit_options = ex.FitOptions(**cfg["fit"])
    outdir = _write_effective_config(cfg)
    outcome = runner(series, config, seed=cfg["seed"], fit_options=fit_options)

    path = outdir / f"forecast_{args.system}_{start}.csv"
    lines = ["time_index,timestamp_utc,mean_w,sd_w"]
    for t, m, s in zip(outcome.time_index.tolist(), outcome.mean_clamped.tolist(), outcome.sd.tolist()):
        lines.append(f"{t},{geotime.index_to_iso(t, series.epoch_utc)},{m!r},{s!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"forecast written to {path} (MAE vs held-out truth: {outcome.mae:.2f} W)", file=sys.stdout)
    return 0


def read_forecast_csv(path):
    """Read a forecast CSV back into (time_index, mean_w, sd_w) arrays."""
    times, means, sds = [], [], []
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["time_index", "timestamp_utc", "mean_w", "sd_w"]:
            raise ValueError(f"{path}: unexpected forecast header {reader.fieldnames}")
        for row in reader:
            times.append(int(row["time_index"]))
            means.append(float(row["mean_w"]))
            sds.append(float(row["sd_w"]))
    return np.asarray(times), np.asarray(means), np.asarray(sds)


def _build_grid(cfg: dict, kept_ids: list[int]):
    e = cfg["experiment"]
    systems = e["systems"] or kept_ids
    if not systems:
        raise ConfigError("no systems available for the experiment grid")
    unknown = [sid for sid in systems if sid not in kept_ids]
    if unknown:
        raise ConfigError(f"config key 'experiment.systems' lists system {unknown[0]}, which is unknown or filtered")
    protocol = e["protocol"]
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"unknown experiment.protocol {protocol!r}")
    block = e[protocol]
    start = e["forecast_start_index"]
    if start is None:
        # the first launch follows the longest training window
        if block["training_days"] == []:
            raise ConfigError(f"config key 'experiment.{protocol}.training_days' must list at least one period")
        start = int(np.max(block["training_days"])) * geotime.STEPS_PER_DAY
    cell = {key: e[key] for key in _CELL}
    return _PROTOCOLS[protocol](systems, forecast_start=int(start), **block, **cell)


def cmd_experiment(cfg: dict, args) -> int:
    meta, power, stack, result = _load_bundle(cfg)
    configs = _build_grid(cfg, sorted(s.system_id for s in result.kept))
    if not configs:
        raise ConfigError("experiment grid is empty")

    # only the systems and patch sizes the grid runs
    used = {sid for c in configs for sid in c.system_ids}
    systems = [s for s in result.kept if s.system_id in used]
    datasets = {}
    for patch in sorted({c.patch_px for c in configs}):
        datasets.update(_assemble_kept(cfg, power, stack, systems, patch))

    fit_options = ex.FitOptions(**cfg["fit"])
    outdir = _write_effective_config(cfg)
    report = ex.run_grid(configs, datasets, seed=cfg["seed"], jobs=cfg["jobs"], fit_options=fit_options)

    _write_report_files(report, outdir)
    print(report.to_text(), file=sys.stdout)
    failed = sum(len(r.failures) for r in report.rows)
    if failed:
        print(f"{failed} cell(s) failed; see report.json for reasons", file=sys.stdout)
    return 0


def _write_report_files(report: ex.ExperimentReport, outdir: Path) -> None:
    (outdir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (outdir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (outdir / "report.json").write_text(report.to_json(), encoding="utf-8")
    ex.export_boxplot_data(report, "testing-day", outdir / "boxplot_by_day.csv")
    ex.export_boxplot_data(report, "system", outdir / "boxplot_by_system.csv")


def cmd_report(cfg: dict, args) -> int:
    report_path = Path(args.report)
    if not report_path.exists():
        raise FileNotFoundError(f"no such report: {report_path}")
    report = ex.ExperimentReport.from_json(report_path.read_text(encoding="utf-8"))
    _write_report_files(report, _write_effective_config(cfg))
    print(report.to_text(), file=sys.stdout)
    return 0


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pvgp", description="GP forecasting of PV power from cloud coverage")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--jobs", type=int, help="parallel grid cells")
        p.add_argument("--out", help="override paths.output_dir")

    common(sub.add_parser("ingest", help="load, filter, and assemble datasets"))
    common(sub.add_parser("synth", help="generate a synthetic dataset bundle"))

    fit = sub.add_parser("fit", help="fit kernel hyperparameters for one system")
    common(fit)
    fit.add_argument("--system", type=int, required=True)

    fc = sub.add_parser("forecast", help="forecast one system and write mean/sd CSV")
    common(fc)
    fc.add_argument("--system", type=int, required=True)
    fc.add_argument("--start", required=True, help="ISO-8601 UTC forecast start on a 5-minute boundary")
    fc.add_argument("--horizon", choices=["48h", "4h"], default="4h")
    fc.add_argument("--cloud-mode", choices=[ex.CLOUD_GIVEN, ex.CLOUD_PERSISTENCE], default=ex.CLOUD_GIVEN)

    exp = sub.add_parser("experiment", help="run the configured experiment grid")
    common(exp)

    rep = sub.add_parser("report", help="re-render report files from a report.json")
    common(rep)
    rep.add_argument("--report", required=True, help="path to a report.json")

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "experiment": cmd_experiment,
    "report": cmd_report,
}

_USAGE_ERRORS = (ValueError, KeyError, FileNotFoundError, csv.Error)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.jobs is not None:
            cfg["jobs"] = args.jobs
        if args.out is not None:
            cfg["paths"]["output_dir"] = args.out
        _check_minima(cfg)
        cfg["invocation"] = {
            "command": args.command,
            "args": {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None},
        }
        return _COMMANDS[args.command](cfg, args)
    except (ConditioningError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
