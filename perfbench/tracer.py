"""Span tracer that wraps pvgp's public functions from outside the package.

A traced run installs wrappers on module and class attributes, records one
span per wrapped call (name, start, end, parent span, op id) in memory, and
restores every attribute when it is removed.  Nothing under ``src/`` knows
about it.  An attribute that the package no longer has is skipped and
listed in :attr:`Tracer.missing`; the run then reports itself incorrect,
unless the attribute is in :data:`OPTIONAL`, because a renamed boundary
would otherwise read 0 and look like a speed-up.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize

from pvgp import cli, experiments, geotime, gp, kernels, pipeline

# boundaries a planned change removes on purpose (analytic LML gradients
# replace the finite-difference one); their figures may read 0
OPTIONAL = {"gp.fd_gradient"}


class Tracer:
    """In-memory span and counter store plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # "module.attr" of targets that are absent

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = time.perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            record[2] = time.perf_counter()
            self._stack.pop()
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            self.counts[name + ".calls"] += 1
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None, span: bool = True) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            owner_name = owner.__name__ if isinstance(owner, type) else owner.__name__.rpartition(".")[2]
            self.missing.append(f"{owner_name}.{attr}")
            return
        make = self._span_wrapper if span else self._count_wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(name, original, observe))

    def required_missing(self) -> list[str]:
        """Absent targets that are not expected to go away."""
        return [target for target in self.missing if target not in OPTIONAL]

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reductions -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_s
        return calls, total, own

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


# -- observers: counts taken at the wrapped boundary --------------------------


def _count_elements(tracer, args, result, exc):
    if exc is None:
        tracer.counts["kernels.main_matrix.elements"] += np.size(result)


def _lml_outcome(tracer, args, result, exc):
    if exc is not None or not np.isfinite(result):
        tracer.counts["gp.log_marginal_likelihood.failed"] += 1


def _cholesky_attempt(tracer, args, result, exc):
    if isinstance(exc, np.linalg.LinAlgError):
        tracer.counts["gp.cholesky.retries"] += 1


def _train_rows(tracer, args, result, exc):
    if args and hasattr(args[0], "n"):
        tracer.counts["gp.train_rows.sum"] += args[0].n
        tracer.counts["gp.train_rows.sets"] += 1


def _minimize_result(tracer, args, result, exc):
    if exc is None:
        tracer.counts["gp.minimize.nit"] += int(getattr(result, "nit", 0))
        tracer.counts["gp.minimize.nfev"] += int(getattr(result, "nfev", 0))
        tracer.counts["gp.minimize.converged"] += bool(getattr(result, "success", False))


def _solar_points(tracer, args, result, exc):
    if exc is None:
        tracer.counts["geotime.solar_elevation_deg.points"] += np.size(result)


def _power_rows(tracer, args, result, exc):
    if exc is None:
        tracer.counts["pipeline.load_power.rows"] += sum(idx.size for idx, _ in result.series.values())
        tracer.counts["pipeline.load_power.skipped"] += len(result.skipped)


def _hrv_bytes(tracer, args, result, exc):
    if exc is None and args:
        tracer.counts["pipeline.read_hrv.bytes"] += os.path.getsize(args[0])


def _assembled(tracer, args, result, exc):
    if exc is None:
        tracer.counts["pipeline.assemble.rows"] += result.n
        tracer.counts["pipeline.assemble.gaps"] += result.gaps


def _grid_cells(tracer, args, result, exc):
    if exc is None:
        for row in result.rows:
            tracer.counts["experiments.run_grid.cells"] += len(row.per_system) + len(row.failures)
            tracer.counts["experiments.run_grid.failed_cells"] += len(row.failures)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; call :meth:`Tracer.remove` to undo."""
    p = tracer.patch
    p(kernels, "main_matrix", "kernels.main_matrix", _count_elements)

    p(gp, "fit_hyperparameters", "gp.fit_hyperparameters", _train_rows)
    p(gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", _lml_outcome)
    p(gp, "fd_gradient", "gp.fd_gradient")
    p(gp, "build_covariance", "gp.build_covariance")
    p(gp, "_cholesky_with_jitter", "gp.cholesky")
    p(scipy.linalg, "cholesky", "gp.cholesky_attempt", _cholesky_attempt, span=False)
    p(gp, "posterior", "gp.posterior", _train_rows)
    p(scipy.optimize, "minimize", "gp.minimize", _minimize_result)

    # pipeline imported solar_elevation_deg by name, so it holds its own reference
    p(geotime, "solar_elevation_deg", "geotime.solar_elevation_deg", _solar_points)
    p(pipeline, "solar_elevation_deg", "geotime.solar_elevation_deg", _solar_points)
    p(geotime, "latlon_to_tm", "geotime.latlon_to_tm")

    p(pipeline, "load_metadata", "pipeline.load_metadata")
    p(pipeline, "load_power", "pipeline.load_power", _power_rows)
    p(pipeline, "read_hrv", "pipeline.read_hrv", _hrv_bytes)
    p(pipeline, "filter_systems", "pipeline.filter_systems")
    p(pipeline, "assemble", "pipeline.assemble", _assembled)
    p(pipeline, "hrv_patch_mean", "pipeline.hrv_patch_mean", span=False)
    p(pipeline.AssembledSeries, "window", "pipeline.window")

    for attr in ("forecast_4h", "forecast_48h", "_forecast_once"):
        p(experiments, attr, "experiments.forecast")
    p(experiments, "run_grid", "experiments.run_grid", _grid_cells)
    for attr in ("to_csv", "to_text", "to_json"):
        p(experiments.ExperimentReport, attr, "experiments.report")
    p(experiments, "export_boxplot_data", "experiments.report")

    p(cli, "main", "cli.main")


# (metric name, unit); the order is the order BENCHMARK.json lists them in
PER_LAYER = [
    ("kernels.main_matrix.calls", "count"),
    ("kernels.main_matrix.s", "s"),
    ("kernels.main_matrix.elements", "count"),
    ("kernels.main_matrix.ns_per_element", "ns"),
    ("kernels.main_matrix.bytes_computed", "B"),
    ("gp.fit_hyperparameters.calls", "count"),
    ("gp.fit_hyperparameters.s", "s"),
    ("gp.log_marginal_likelihood.calls", "count"),
    ("gp.log_marginal_likelihood.s", "s"),
    ("gp.log_marginal_likelihood.failed", "count"),
    ("gp.fd_gradient.calls", "count"),
    ("gp.fd_gradient.s", "s"),
    ("gp.lml_fd_share", "ratio"),
    ("gp.build_covariance.calls", "count"),
    ("gp.build_covariance.s", "s"),
    ("gp.cholesky.calls", "count"),
    ("gp.cholesky.s", "s"),
    ("gp.cholesky.retries", "count"),
    ("gp.posterior.calls", "count"),
    ("gp.posterior.s", "s"),
    ("gp.minimize.nit", "count"),
    ("gp.minimize.nfev", "count"),
    ("gp.minimize.converged_ratio", "ratio"),
    ("gp.train_rows", "count"),
    ("geotime.solar_elevation_deg.calls", "count"),
    ("geotime.solar_elevation_deg.s", "s"),
    ("geotime.solar_elevation_deg.points", "count"),
    ("geotime.latlon_to_tm.s", "s"),
    ("pipeline.load_metadata.s", "s"),
    ("pipeline.load_power.s", "s"),
    ("pipeline.load_power.rows", "count"),
    ("pipeline.load_power.skipped", "count"),
    ("pipeline.read_hrv.s", "s"),
    ("pipeline.read_hrv.bytes", "B"),
    ("pipeline.filter_systems.s", "s"),
    ("pipeline.assemble.s", "s"),
    ("pipeline.assemble.rows", "count"),
    ("pipeline.assemble.gaps", "count"),
    ("pipeline.hrv_patch_mean.calls", "count"),
    ("pipeline.window.calls", "count"),
    ("pipeline.window.s", "s"),
    ("experiments.forecast.self_s", "s"),
    ("experiments.run_grid.self_s", "s"),
    ("experiments.run_grid.cells", "count"),
    ("experiments.run_grid.failed_cells", "count"),
    ("experiments.report.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Per-layer figures, totalled over everything the tracer recorded.

    ``.s`` is the summed duration of a boundary's spans and ``.self_s`` the
    part not covered by child spans; the leaf kernel span's ``.s`` is its
    self time.
    """
    calls, total, own = tracer.totals()
    c = tracer.counts
    lml_in_fd = sum(
        1
        for i, span in enumerate(tracer.spans)
        if span[0] == "gp.log_marginal_likelihood" and tracer.has_ancestor(i, "gp.fd_gradient")
    )
    elements = c["kernels.main_matrix.elements"]
    values = {
        "kernels.main_matrix.calls": calls["kernels.main_matrix"],
        "kernels.main_matrix.s": own["kernels.main_matrix"],
        "kernels.main_matrix.elements": elements,
        "kernels.main_matrix.ns_per_element": _ratio(1e9 * own["kernels.main_matrix"], elements),
        "kernels.main_matrix.bytes_computed": 8 * elements,
        "gp.lml_fd_share": _ratio(lml_in_fd, calls["gp.log_marginal_likelihood"]),
        "gp.cholesky.retries": c["gp.cholesky.retries"],
        "gp.log_marginal_likelihood.failed": c["gp.log_marginal_likelihood.failed"],
        "gp.minimize.nit": c["gp.minimize.nit"],
        "gp.minimize.nfev": c["gp.minimize.nfev"],
        "gp.minimize.converged_ratio": _ratio(c["gp.minimize.converged"], calls["gp.minimize"]),
        "gp.train_rows": _ratio(c["gp.train_rows.sum"], c["gp.train_rows.sets"]),
        "geotime.solar_elevation_deg.points": c["geotime.solar_elevation_deg.points"],
        "pipeline.load_power.rows": c["pipeline.load_power.rows"],
        "pipeline.load_power.skipped": c["pipeline.load_power.skipped"],
        "pipeline.read_hrv.bytes": c["pipeline.read_hrv.bytes"],
        "pipeline.assemble.rows": c["pipeline.assemble.rows"],
        "pipeline.assemble.gaps": c["pipeline.assemble.gaps"],
        "pipeline.hrv_patch_mean.calls": c["pipeline.hrv_patch_mean.calls"],
        "experiments.run_grid.cells": c["experiments.run_grid.cells"],
        "experiments.run_grid.failed_cells": c["experiments.run_grid.failed_cells"],
        "trace.overhead": overhead,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        boundary, _, field = name.rpartition(".")
        source = {"calls": calls, "s": total, "self_s": own}[field]
        values[name] = source[boundary]
    return {name: float(values[name]) for name, _ in PER_LAYER}
