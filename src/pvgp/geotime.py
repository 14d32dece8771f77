"""Geodetic projection, solar geometry, and the 5-minute time index.

All datasets are keyed on an integer time index where one step is five
minutes; index 0 is anchored at a per-dataset epoch (midnight UTC of the
first ingested day, by convention).  Locations carry both geographic
coordinates and a metric transverse Mercator easting/northing; the default
projection constants are the British National Grid on the Airy 1830
ellipsoid, and every constant is configurable.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "TransverseMercator",
    "BRITISH_NATIONAL_GRID",
    "GeoPoint",
    "ProjectionDomainError",
    "AlignmentError",
    "latlon_to_tm",
    "tm_to_latlon",
    "solar_elevation",
    "solar_elevation_deg",
    "timestamp_to_index",
    "index_to_timestamp",
    "index_to_iso",
    "STEP_SECONDS",
    "STEPS_PER_DAY",
    "NIGHT_ELEVATION_DEG",
]

STEP_SECONDS = 300
STEPS_PER_DAY = 288
# "night" for the overnight-corruption filter; below zero to tolerate twilight
NIGHT_ELEVATION_DEG = -5.0

UTC = dt.timezone.utc


class ProjectionDomainError(ValueError):
    """Coordinates outside the projection's usable domain."""


class AlignmentError(ValueError):
    """Timestamp does not land on a 5-minute boundary."""


@dataclass(frozen=True)
class TransverseMercator:
    """Projection constants for a transverse Mercator national grid.

    Defaults are the British National Grid: Airy 1830 semi-axes, scale
    factor on the 2 degrees W central meridian, true origin 49 degrees N,
    false origin 400 km W / 100 km N of the true origin.
    """

    semi_major_m: float = 6377563.396
    semi_minor_m: float = 6356256.909
    central_scale: float = 0.9996012717
    origin_lat_deg: float = 49.0
    origin_lon_deg: float = -2.0
    false_easting_m: float = 400_000.0
    false_northing_m: float = -100_000.0

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TransverseMercator":
        """Build from a key-value configuration block; unknown keys rejected."""
        known = set(cls.__dataclass_fields__)
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown projection key(s): {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in mapping.items()})

    def to_mapping(self) -> dict:
        return asdict(self)


BRITISH_NATIONAL_GRID = TransverseMercator()

_POLE_LIMIT_DEG = 89.9  # series expansion unusable close to the poles


def _ellipsoid(params: TransverseMercator):
    a, b = params.semi_major_m, params.semi_minor_m
    e2 = 1.0 - (b * b) / (a * a)
    n = (a - b) / (a + b)
    return a, b, e2, n


def _meridional_arc(lat, lat0, b, f0, n):
    n2, n3 = n * n, n * n * n
    ma = (1 + n + 1.25 * n2 + 1.25 * n3) * (lat - lat0)
    mb = (3 * n + 3 * n2 + 2.625 * n3) * np.sin(lat - lat0) * np.cos(lat + lat0)
    mc = (1.875 * n2 + 1.875 * n3) * np.sin(2 * (lat - lat0)) * np.cos(2 * (lat + lat0))
    md = (35.0 / 24.0) * n3 * np.sin(3 * (lat - lat0)) * np.cos(3 * (lat + lat0))
    return b * f0 * (ma - mb + mc - md)


def latlon_to_tm(lat_deg, lon_deg, params: TransverseMercator = BRITISH_NATIONAL_GRID):
    """Project geographic coordinates to grid easting/northing in metres.

    Standard national-grid series expansion; accepts scalars or arrays.
    Raises :class:`ProjectionDomainError` at or near the poles.
    """
    lat_deg = np.asarray(lat_deg, dtype=float)
    lon_deg = np.asarray(lon_deg, dtype=float)
    if np.any(np.abs(lat_deg) > 90) or np.any(np.abs(lon_deg) > 180):
        raise ProjectionDomainError("latitude must be in [-90, 90] and longitude in [-180, 180]")
    if np.any(np.abs(lat_deg) > _POLE_LIMIT_DEG):
        raise ProjectionDomainError(f"latitude within {90 - _POLE_LIMIT_DEG} degrees of a pole")

    a, b, e2, n = _ellipsoid(params)
    f0 = params.central_scale
    lat0 = math.radians(params.origin_lat_deg)
    lon0 = math.radians(params.origin_lon_deg)
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)

    sinlat, coslat, tanlat = np.sin(lat), np.cos(lat), np.tan(lat)
    nu = a * f0 / np.sqrt(1 - e2 * sinlat**2)
    rho = a * f0 * (1 - e2) / (1 - e2 * sinlat**2) ** 1.5
    eta2 = nu / rho - 1

    m = _meridional_arc(lat, lat0, b, f0, n)
    i = m + params.false_northing_m
    ii = nu / 2 * sinlat * coslat
    iii = nu / 24 * sinlat * coslat**3 * (5 - tanlat**2 + 9 * eta2)
    iiia = nu / 720 * sinlat * coslat**5 * (61 - 58 * tanlat**2 + tanlat**4)
    iv = nu * coslat
    v = nu / 6 * coslat**3 * (nu / rho - tanlat**2)
    vi = nu / 120 * coslat**5 * (5 - 18 * tanlat**2 + tanlat**4 + 14 * eta2 - 58 * tanlat**2 * eta2)

    dl = lon - lon0
    northing = i + ii * dl**2 + iii * dl**4 + iiia * dl**6
    easting = params.false_easting_m + iv * dl + v * dl**3 + vi * dl**5
    if easting.ndim == 0:
        return float(easting), float(northing)
    return easting, northing


def tm_to_latlon(easting, northing, params: TransverseMercator = BRITISH_NATIONAL_GRID):
    """Inverse projection: grid metres back to latitude/longitude degrees."""
    easting = np.asarray(easting, dtype=float)
    northing = np.asarray(northing, dtype=float)
    if not (np.isfinite(easting).all() and np.isfinite(northing).all()):
        raise ProjectionDomainError("easting/northing must be finite")

    a, b, e2, n = _ellipsoid(params)
    f0 = params.central_scale
    lat0 = math.radians(params.origin_lat_deg)
    lon0 = math.radians(params.origin_lon_deg)

    lat = np.full_like(northing, lat0, dtype=float) if northing.ndim else np.array(lat0)
    lat = lat + (northing - params.false_northing_m) / (a * f0)
    for _ in range(25):
        m = _meridional_arc(lat, lat0, b, f0, n)
        delta = northing - params.false_northing_m - m
        lat = lat + delta / (a * f0)
        if np.max(np.abs(delta)) < 1e-8:  # metres
            break

    sinlat, coslat, tanlat = np.sin(lat), np.cos(lat), np.tan(lat)
    nu = a * f0 / np.sqrt(1 - e2 * sinlat**2)
    rho = a * f0 * (1 - e2) / (1 - e2 * sinlat**2) ** 1.5
    eta2 = nu / rho - 1
    seclat = 1.0 / coslat

    vii = tanlat / (2 * rho * nu)
    viii = tanlat / (24 * rho * nu**3) * (5 + 3 * tanlat**2 + eta2 - 9 * tanlat**2 * eta2)
    ix = tanlat / (720 * rho * nu**5) * (61 + 90 * tanlat**2 + 45 * tanlat**4)
    x = seclat / nu
    xi = seclat / (6 * nu**3) * (nu / rho + 2 * tanlat**2)
    xii = seclat / (120 * nu**5) * (5 + 28 * tanlat**2 + 24 * tanlat**4)
    xiia = seclat / (5040 * nu**7) * (61 + 662 * tanlat**2 + 1320 * tanlat**4 + 720 * tanlat**6)

    de = easting - params.false_easting_m
    lat_out = lat - vii * de**2 + viii * de**4 - ix * de**6
    lon_out = lon0 + x * de - xi * de**3 + xii * de**5 - xiia * de**7
    lat_deg, lon_deg = _newton_refine(np.degrees(lat_out), np.degrees(lon_out), easting, northing, params)
    if lat_deg.ndim == 0:
        return float(lat_deg), float(lon_deg)
    return lat_deg, lon_deg


def _newton_refine(lat_deg, lon_deg, easting, northing, params, iterations=2):
    """Polish the series inverse against the forward projection.

    The truncated series leave ~1e-8 degree residuals far from the central
    meridian; two Newton steps with a finite-difference Jacobian push the
    round trip to machine precision.
    """
    step = 1e-5
    for _ in range(iterations):
        e0, n0 = latlon_to_tm(lat_deg, lon_deg, params)
        de_dlat = np.stack(latlon_to_tm(lat_deg + step, lon_deg, params))
        de_dlon = np.stack(latlon_to_tm(lat_deg, lon_deg + step, params))
        j11 = (de_dlat[0] - e0) / step
        j21 = (de_dlat[1] - n0) / step
        j12 = (de_dlon[0] - e0) / step
        j22 = (de_dlon[1] - n0) / step
        det = j11 * j22 - j12 * j21
        re, rn = easting - e0, northing - n0
        lat_deg = lat_deg + (j22 * re - j12 * rn) / det
        lon_deg = lon_deg + (-j21 * re + j11 * rn) / det
    return np.asarray(lat_deg), np.asarray(lon_deg)


@dataclass(frozen=True)
class GeoPoint:
    """One location in both geographic and projected coordinates."""

    latitude: float
    longitude: float
    easting: float
    northing: float

    @classmethod
    def from_latlon(cls, lat_deg: float, lon_deg: float, params: TransverseMercator = BRITISH_NATIONAL_GRID):
        if not (-90 <= lat_deg <= 90):
            raise ProjectionDomainError(f"latitude {lat_deg} outside [-90, 90]")
        if not (-180 <= lon_deg <= 180):
            raise ProjectionDomainError(f"longitude {lon_deg} outside [-180, 180]")
        e, nrth = latlon_to_tm(lat_deg, lon_deg, params)
        return cls(latitude=float(lat_deg), longitude=float(lon_deg), easting=e, northing=nrth)


# -- solar position ----------------------------------------------------------


def _days_since_j2000(when) -> tuple[np.ndarray, bool]:
    """Fractional days since 2000-01-01T12:00Z; flags scalar input."""
    if isinstance(when, dt.datetime):
        when = [when]
        scalar = True
    else:
        scalar = np.isscalar(when)
        if scalar:
            when = [when]
    if isinstance(when, np.ndarray) and when.dtype.kind in "fiu":
        stamps = when.astype(float)
    else:
        stamps = np.array(
            [
                (t if t.tzinfo else t.replace(tzinfo=UTC)).timestamp() if isinstance(t, dt.datetime) else float(t)
                for t in when
            ]
        )
    return stamps / 86400.0 - 10957.5, scalar


def solar_elevation_deg(lat_deg, lon_deg, when):
    """Solar elevation in degrees, accurate to a few hundredths of a degree.

    Low-precision Astronomer's Almanac formulas: solar ecliptic longitude
    from the mean anomaly, declination through the obliquity, local hour
    angle from sidereal time.  ``when`` may be a UTC datetime (naive taken
    as UTC), a POSIX-seconds value, or a sequence of either.
    """
    t, scalar = _days_since_j2000(when)
    hours_utc = ((t - 0.5) % 1.0) * 24.0

    mean_long = (280.460 + 0.9856474 * t) % 360.0
    mean_anom = np.radians((357.528 + 0.9856003 * t) % 360.0)
    ecl_long = np.radians((mean_long + 1.915 * np.sin(mean_anom) + 0.020 * np.sin(2 * mean_anom)) % 360.0)
    obliquity = np.radians(23.439 - 0.0000004 * t)

    ra = np.arctan2(np.cos(obliquity) * np.sin(ecl_long), np.cos(ecl_long))
    dec = np.arcsin(np.sin(obliquity) * np.sin(ecl_long))

    gmst = (6.697375 + 0.0657098242 * t + hours_utc) % 24.0
    lmst = np.radians(gmst * 15.0 + np.asarray(lon_deg, dtype=float))
    ha = (lmst - ra + np.pi) % (2 * np.pi) - np.pi

    lat = np.radians(np.asarray(lat_deg, dtype=float))
    sin_el = np.sin(dec) * np.sin(lat) + np.cos(dec) * np.cos(lat) * np.cos(ha)
    el = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    return float(el[0]) if scalar and el.size == 1 else el


def solar_elevation(point: GeoPoint, when: dt.datetime) -> float:
    """Elevation of the sun above the horizon at a location and UTC time."""
    el = solar_elevation_deg(point.latitude, point.longitude, when)
    return float(np.asarray(el).ravel()[0])


# -- 5-minute time index -------------------------------------------------------


def _as_utc(t: dt.datetime) -> dt.datetime:
    return t.replace(tzinfo=UTC) if t.tzinfo is None else t.astimezone(UTC)


def timestamp_to_index(t: dt.datetime, epoch: dt.datetime) -> int:
    """Integer 5-minute index of ``t`` relative to ``epoch``.

    Raises :class:`AlignmentError` off the 5-minute grid.
    """
    delta = _as_utc(t) - _as_utc(epoch)
    seconds = delta.days * 86400 + delta.seconds
    if delta.microseconds or seconds % STEP_SECONDS:
        raise AlignmentError(f"{t.isoformat()} is not on a 5-minute boundary relative to {epoch.isoformat()}")
    return seconds // STEP_SECONDS


def index_to_timestamp(index: int, epoch: dt.datetime) -> dt.datetime:
    """UTC timestamp of a 5-minute index; exact inverse of timestamp_to_index."""
    return _as_utc(epoch) + dt.timedelta(seconds=int(index) * STEP_SECONDS)


def index_to_iso(index: int, epoch: dt.datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` form of a 5-minute index, as the CSV files write it."""
    return index_to_timestamp(index, epoch).strftime("%Y-%m-%dT%H:%M:%SZ")
