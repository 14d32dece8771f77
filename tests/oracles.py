"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (scalar
loops, explicit inverses, brute-force summation) and kept free of the
code paths it is meant to verify.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from pvgp import geotime
from pvgp.gp import build_covariance
from pvgp.kernels import PERIODIC, RATIONAL_QUADRATIC, SQUARED_EXPONENTIAL, WHITE_NOISE, GramEvaluator
from pvgp.pipeline import EmptyDatasetError, PowerData, _parse_timestamp

# the library's documented jitter floor, shared so oracles factor the same matrix
JITTER0 = 1e-10


def composite_oracle(xi, xj, i, j, spec):
    """Scalar re-derivation of the composite kernel from the raw formulas."""
    xi = [float(v) for v in np.atleast_1d(xi)]
    xj = [float(v) for v in np.atleast_1d(xj)]
    noise = spec.noise_variance if i == j else 0.0
    if spec.family == WHITE_NOISE:
        return (spec.amplitude**2 if i == j else 0.0) + noise

    def profile(family, r, alpha, nu, half):
        if family == SQUARED_EXPONENTIAL:
            return math.exp(-0.5 * r * r) if half else math.exp(-r * r)
        if family == RATIONAL_QUADRATIC:
            q = r * r / (2.0 * alpha) if half else r * r / alpha
            return (1.0 + q) ** (-alpha)
        if nu == 0.5:
            return math.exp(-r)
        if nu == 1.5:
            return (1.0 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
        return (1.0 + math.sqrt(5) * r + 5.0 / 3.0 * r * r) * math.exp(-math.sqrt(5) * r)

    if spec.family == PERIODIC:
        u = 2.0 * abs(math.sin(math.pi * (xi[0] - xj[0]) / spec.period))
        k = profile(spec.base, u / spec.roughness, spec.alpha, spec.nu, half=True)
        if len(xi) > 1:
            r2 = sum(((a - b) / l) ** 2 for a, b, l in zip(xi[1:], xj[1:], spec.lengthscales[1:]))
            k *= profile(spec.base, math.sqrt(r2), spec.alpha, spec.nu, half=False)
        return spec.amplitude**2 * k + noise
    r2 = sum(((a - b) / l) ** 2 for a, b, l in zip(xi, xj, spec.lengthscales))
    return spec.amplitude**2 * profile(spec.family, math.sqrt(r2), spec.alpha, spec.nu, half=False) + noise


def gram_oracle(X, spec, with_noise):
    """Training Gram via the scalar oracle; noise rides on matching indices."""
    X = np.atleast_2d(X)
    probe = spec if with_noise else replace(spec, noise_variance=0.0)
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = composite_oracle(X[i], X[j], i, j, probe)
    return K


def cross_oracle(Q, X, spec):
    """Cross block via the scalar oracle; disjoint index spaces, no delta."""
    Q, X = np.atleast_2d(Q), np.atleast_2d(X)
    K = np.empty((Q.shape[0], X.shape[0]))
    for q in range(Q.shape[0]):
        for i in range(X.shape[0]):
            K[q, i] = composite_oracle(Q[q], X[i], X.shape[0] + q, i, spec)
    return K


def posterior_oracle(train, Q, spec):
    """Posterior mean/cov by explicit matrix inversion in watt space."""
    Q = np.atleast_2d(Q)
    Kxx = gram_oracle(train.inputs, spec, with_noise=True)
    Kxx = Kxx + JITTER0 * np.mean(np.diag(Kxx)) * np.eye(train.n)
    Kinv = np.linalg.inv(Kxx)
    Ks = cross_oracle(Q, train.inputs, spec)
    Kqq = gram_oracle(Q, spec, with_noise=False)
    mu = train.target_mean
    mean = mu + Ks @ Kinv @ (train.targets - mu)
    cov = Kqq - Ks @ Kinv @ Ks.T
    return mean, cov


def jittered_rfp_factor_out_of_place(K):
    """RFP (``transr='N'``, ``uplo='L'``) Cholesky factor of ``K + eps * mean(diag) * I``, eps escalating tenfold.

    Each attempt packs a fresh jittered square with ``dtrttf`` and factorises
    a copy of it with ``dpftrf``, so nothing is overwritten in place.
    """
    shift = float(np.mean(np.diag(K))) * np.eye(K.shape[0])
    eps = JITTER0
    while True:
        arf, info = lapack.dtrttf(np.asfortranarray(K + eps * shift), transr="N", uplo="L")
        assert info == 0
        L, info = lapack.dpftrf(K.shape[0], arf, transr="N", uplo="L", overwrite_a=0)
        if info == 0:
            return L
        eps *= 10.0


def posterior_out_of_place(train, Q, spec):
    """Posterior mean/cov with every factorisation and solve writing a new array.

    The reference for the library's in-place linear algebra.  The Gram
    blocks come from the library's own builder, and the arithmetic is the
    library's step for step (pack to RFP, ``dpftrf``, ``dtfsm``), so the two
    must agree bit for bit; only where the factor and the solve are stored
    differs.
    """
    Q = np.array(Q, dtype=float, ndmin=2)
    s2 = train.target_scale**2
    Kss = build_covariance(Q, Q, spec)
    L = jittered_rfp_factor_out_of_place(build_covariance(train.inputs, train.inputs, spec, with_noise=True) / s2)
    Ks = build_covariance(Q, train.inputs, spec) / s2
    # one solve against [Ks^T | y] gives V = L^-1 Ks^T and z = L^-1 y
    Vz = lapack.dtfsm(1.0, L, np.column_stack([Ks.T, train.scaled_targets()]), transr="N", side="L", uplo="L")
    V, z = Vz[:, :-1], Vz[:, -1]
    mean = train.target_mean + train.target_scale * blas.dgemv(1.0, V, z, trans=1)
    # Kss - s2 V^T V on Kss's upper triangle (the lower one of Kss.T), into a new array
    low = blas.dsyrk(-s2, V, beta=1.0, c=Kss.T, trans=1, lower=1)
    cov = np.where(np.tri(len(Q), dtype=bool), low, low.T)
    np.fill_diagonal(cov, np.clip(np.diag(cov).copy(), 0.0, None))
    return mean, cov


def lml_oracle(train, spec):
    """Log marginal likelihood by explicit determinant and inverse."""
    s2 = train.target_scale**2
    K = gram_oracle(train.inputs, spec, with_noise=True) / s2
    K = K + JITTER0 * np.mean(np.diag(K)) * np.eye(train.n)
    y = (train.targets - train.target_mean) / train.target_scale
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(K) @ y - 0.5 * logdet - 0.5 * train.n * math.log(2 * math.pi))


def lml_gradient_full_w(train, spec, params):
    """``d LML / d log theta`` for each of ``params`` through the full weight matrix.

    ``1/2 sum(W * dK/dlog theta)`` with ``W = alpha alpha^T - K^-1`` held
    whole (``K^-1`` by ``dpotri`` from the jittered factor, mirrored to
    both triangles) and every derivative block written out in full:
    ``sigma^2 I / s2`` for the noise and ``K_main * log_derivative / s2``
    for a shape hyperparameter.
    """
    s2 = train.target_scale**2
    n = train.n
    K = build_covariance(train.inputs, train.inputs, spec, with_noise=True) / s2
    L = scipy.linalg.cholesky(K + JITTER0 * np.mean(np.diag(K)) * np.eye(n), lower=True)
    alpha = scipy.linalg.cho_solve((L, True), train.scaled_targets())
    inv, info = scipy.linalg.lapack.dpotri(L, lower=1)
    assert info == 0
    W = np.outer(alpha, alpha) - (np.tril(inv) + np.tril(inv, -1).T)
    evaluator = GramEvaluator(train.inputs, train.inputs, same_samples=True)
    K_main = evaluator.gram(spec).copy()
    grad = []
    for p in params:
        if p.field == "noise_variance":
            dK = spec.noise_variance * np.eye(n) / s2
        else:
            dK = K_main * evaluator.log_derivative(spec, p) / s2
        grad.append(0.5 * float(np.sum(W * dK)))
    return np.array(grad)


FD_STEP = 1e-4


def fd_gradient(fn, x, step=FD_STEP):
    """Second-order central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def stencil_gradient(fn, x, step=1e-3):
    """Fourth-order five-point central-difference gradient."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (-fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e) + fn(x - 2 * e)) / (12.0 * step)
    return g


def patch_mean_oracle(frame, px, py, size):
    """Naive double-loop window average over the raw frame."""
    total = 0.0
    for col in range(px - size // 2, px + size // 2):
        for row in range(py - size // 2, py + size // 2):
            total += float(frame[row, col])
    return total / (size * size)


def assemble_per_row(system, power, stack, patch_px, window, sensor_max=1023.0):
    """The per-row join: one dict lookup and one patch mean per joined index.

    Returns ``(time_index, hrv_mean, power_w, gaps)`` as ``assemble`` fills
    them; assumes a non-empty join and a patch inside the raster.
    """
    lo, hi = window
    idx, watts = power.series[system.system_id]
    in_window = (idx >= lo) & (idx < hi)
    idx, watts = idx[in_window], watts[in_window]
    frame_idx = stack.frame_indices[(stack.frame_indices >= lo) & (stack.frame_indices < hi)]
    joint = np.intersect1d(idx, frame_idx)
    gaps = int(idx.size - joint.size) + int(frame_idx.size - joint.size)
    power_lookup = dict(zip(idx.tolist(), watts.tolist()))
    frame_lookup = {int(t): k for k, t in enumerate(stack.frame_indices)}
    px = int(np.floor((system.location.easting - stack.origin_easting) / stack.pixel_size))
    py = int(np.floor((system.location.northing - stack.origin_northing) / stack.pixel_size))
    times, hrv, pw = [], [], []
    for t in joint.tolist():
        p = power_lookup[t]
        if not 0.0 <= p <= 1.1 * system.capacity_w:
            gaps += 1
            continue
        frame = stack.frames[frame_lookup[t]]
        patch = frame[py - patch_px // 2 : py + (patch_px + 1) // 2, px - patch_px // 2 : px + (patch_px + 1) // 2]
        mean = float(patch.mean(dtype=np.float64))
        times.append(t)
        hrv.append(min(1.0, max(0.0, mean / sensor_max)))
        pw.append(p)
    return np.array(times, dtype=np.int64), np.array(hrv), np.array(pw), gaps


def load_power_per_row(path):
    """The per-row power CSV reader: one ``csv.DictReader`` row, parsed stamp and index at a time.

    Returns what ``load_power`` returns, ``skipped`` in the same order:
    malformed rows, then misaligned rows, then each system's repeats.
    """
    path = Path(path)
    rows = []  # (file line, time, system, watts)
    skipped = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        required = {"timestamp_utc", "system_id", "power_w"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: power header must contain {sorted(required)}")
        for row in reader:
            lineno = reader.line_num
            try:
                when = _parse_timestamp(row["timestamp_utc"])
                rows.append((lineno, when, int(row["system_id"]), float(row["power_w"])))
            except (ValueError, OverflowError) as exc:
                skipped.append((lineno, str(exc)))
    if not rows:
        raise EmptyDatasetError(f"{path}: no parseable power rows")
    epoch = min(r[1] for r in rows).replace(hour=0, minute=0, second=0, microsecond=0)

    per_system = {}  # system -> [(index, file line, watts)]
    for lineno, when, system_id, power in rows:
        try:
            idx = geotime.timestamp_to_index(when, epoch)
        except geotime.AlignmentError as exc:
            skipped.append((lineno, str(exc)))
            continue
        per_system.setdefault(system_id, []).append((idx, lineno, power))

    series = {}
    for system_id, readings in per_system.items():
        readings.sort()  # by index, then by file line: the first reading of a step leads its run
        idx = np.array([r[0] for r in readings], dtype=np.int64)
        first = np.concatenate([[True], np.diff(idx) > 0])
        for k in np.flatnonzero(~first):
            kept = readings[np.searchsorted(idx, idx[k])][1]
            when = geotime.index_to_iso(int(idx[k]), epoch)
            skipped.append((readings[k][1], f"duplicate reading for system {system_id} at {when} (first on line {kept})"))
        watts = np.array([r[2] for r in readings], dtype=float)
        series[system_id] = (idx[first], watts[first])
    return PowerData(epoch_utc=epoch, series=series, skipped=skipped)


def solar_elevation_psa(lat_deg, lon_deg, when):
    """PSA solar-position algorithm (Blanco-Muriel et al. 2001), ~0.01 deg.

    Independent of the library's almanac-based implementation; used as the
    high-accuracy cross-check.
    """
    import datetime as _dt

    if when.tzinfo is not None:
        when = when.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    hour = when.hour + when.minute / 60.0 + when.second / 3600.0
    # Julian day from calendar date (Fliegel-Van Flandern), then elapsed J2000 days
    year, month, day = when.year, when.month, when.day
    aux1 = (month - 14) // 12
    aux2 = (1461 * (year + 4800 + aux1)) // 4 + (367 * (month - 2 - 12 * aux1)) // 12
    aux2 += -(3 * ((year + 4900 + aux1) // 100)) // 4 + day - 32075
    jd = aux2 - 0.5 + hour / 24.0
    elapsed = jd - 2451545.0

    omega = 2.1429 - 0.0010394594 * elapsed
    mean_long = 4.8950630 + 0.017202791698 * elapsed
    mean_anom = 6.2400600 + 0.0172019699 * elapsed
    ecl_long = (
        mean_long
        + 0.03341607 * math.sin(mean_anom)
        + 0.00034894 * math.sin(2 * mean_anom)
        - 0.0001134
        - 0.0000203 * math.sin(omega)
    )
    obliquity = 0.4090928 - 6.2140e-9 * elapsed + 0.0000396 * math.cos(omega)

    sin_ecl = math.sin(ecl_long)
    ra = math.atan2(math.cos(obliquity) * sin_ecl, math.cos(ecl_long)) % (2 * math.pi)
    dec = math.asin(math.sin(obliquity) * sin_ecl)

    gmst = 6.6974243242 + 0.0657098283 * elapsed + hour
    lmst = math.radians(gmst * 15 + lon_deg)
    ha = lmst - ra
    lat = math.radians(lat_deg)
    zenith = math.acos(
        min(1.0, max(-1.0, math.cos(lat) * math.cos(ha) * math.cos(dec) + math.sin(dec) * math.sin(lat)))
    )
    # parallax correction
    zenith += (6371.01 / 149597890.0) * math.sin(zenith)
    return 90.0 - math.degrees(zenith)
