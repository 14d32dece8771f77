"""Dataset ingestion: PV metadata, power series, HRV raster stacks.

Loads the three external file formats, applies the cleaning filters
(geospatial boundary, missing metadata, overnight generation), and
assembles per-system `AssembledSeries` rows of (time index, cloud coverage,
power): one join of the power and HRV time indices, then one gather of the
patch above the system from every joined frame.

File formats
------------
* Metadata CSV, header ``system_id,latitude,longitude,capacity_w``.
* Power CSV, header ``timestamp_utc,system_id,power_w``, timestamps on
  5-minute boundaries.  A timestamp is any ISO 8601 form
  ``datetime.fromisoformat`` reads once stripped and with each ``Z`` read
  as ``+00:00``; an offset is converted to UTC, and a stamp without one is
  read as UTC.  The writer's ``YYYY-MM-DDTHH:MM:SSZ`` is the form
  converted in array operations; any other is parsed one row at a time.
  A row whose stamp, id or watts cannot be read, a stamp whose conversion
  to UTC leaves years 1-9999 included, is skipped; a line the CSV reader
  cannot read is an error.
* HRV raster stack, binary: magic ``HRV1``, little-endian header
  (origin_easting f64, origin_northing f64, pixel_size f64, width u32,
  height u32, frame_count u32), then per frame an i64 of POSIX epoch
  seconds followed by the row-major f32 grid.  ``frames[t][row][col]``
  covers the ground square with south-west corner
  ``(origin_easting + col * pixel_size, origin_northing + row * pixel_size)``.
  It is the one raster format: rasters from any other source become an
  :class:`HrvRasterStack` saved with :func:`write_hrv`.

Both CSVs are UTF-8, with or without a byte-order mark.  Missing data is
dropped and counted, never interpolated.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geotime
from .geotime import (
    NIGHT_ELEVATION_DEG,
    UTC,
    AlignmentError,
    GeoPoint,
    TransverseMercator,
    BRITISH_NATIONAL_GRID,
    solar_elevation_deg,
)

__all__ = [
    "PvSystem",
    "HrvRasterStack",
    "AssembledSeries",
    "PowerData",
    "MetadataLoad",
    "BoundaryBox",
    "FilterResult",
    "Removal",
    "CoverageError",
    "GapError",
    "EmptyDatasetError",
    "UK_BOUNDARY",
    "HRV_SENSOR_MAX",
    "load_metadata",
    "load_power",
    "filter_systems",
    "hrv_patch_mean",
    "assemble",
    "write_hrv",
    "read_hrv",
]

HRV_MAGIC = b"HRV1"
HRV_SENSOR_MAX = 1023.0
OVERNIGHT_POWER_FRACTION = 0.01
OVERNIGHT_MIN_NIGHTS = 3

REASON_OUT_OF_BOUNDS = "out-of-bounds"
REASON_MISSING_METADATA = "missing-metadata"
REASON_NO_POWER = "no-power"
REASON_OVERNIGHT = "overnight-generation"


class CoverageError(ValueError):
    """Requested patch or window falls outside the available data."""


class GapError(KeyError):
    """No HRV frame at the requested time index."""


class EmptyDatasetError(ValueError):
    """A join or window produced no rows."""


@dataclass
class PvSystem:
    system_id: int
    location: GeoPoint
    capacity_w: float
    provenance: str = ""


@dataclass(frozen=True)
class BoundaryBox:
    """Axis-aligned box in projected metres."""

    min_easting: float
    min_northing: float
    max_easting: float
    max_northing: float

    def contains(self, easting: float, northing: float) -> bool:
        return (
            self.min_easting <= easting <= self.max_easting
            and self.min_northing <= northing <= self.max_northing
        )


# generous box around the British National Grid's coverage of Great Britain
UK_BOUNDARY = BoundaryBox(0.0, 0.0, 700_000.0, 1_300_000.0)


@dataclass
class HrvRasterStack:
    """Time-stacked georeferenced cloud-brightness rasters.

    A stack from :func:`read_hrv` maps its ``frames`` read-only from the
    file; it cannot be written to.
    """

    origin_easting: float
    origin_northing: float
    pixel_size: float
    width: int
    height: int
    epoch_utc: dt.datetime
    frame_indices: np.ndarray  # (F,) int64, sorted, unique
    frames: np.ndarray  # (F, height, width) float32, >= 0

    def __post_init__(self):
        self.frame_indices = np.asarray(self.frame_indices, dtype=np.int64)
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.validate()

    def validate(self) -> None:
        if self.frames.shape != (self.frame_indices.size, self.height, self.width):
            raise ValueError(
                f"frames shape {self.frames.shape} != ({self.frame_indices.size}, {self.height}, {self.width})"
            )
        if self.frame_indices.size:
            if np.any(np.diff(self.frame_indices) <= 0):
                raise ValueError("frame indices must be strictly increasing")
            if not np.isfinite(self.frames).all() or self.frames.min() < 0:
                raise ValueError("pixel values must be finite and >= 0")
        if self.pixel_size <= 0:
            raise ValueError("pixel_size must be > 0")

    def frame_at(self, index: int) -> np.ndarray:
        k = int(np.searchsorted(self.frame_indices, index))
        if k == self.frame_indices.size or self.frame_indices[k] != index:
            raise GapError(f"no HRV frame at time index {index}")
        return self.frames[k]


@dataclass
class AssembledSeries:
    """Joined (time index, cloud coverage, power) rows for one system."""

    system_id: int
    capacity_w: float
    latitude: float
    longitude: float
    patch_px: int
    epoch_utc: dt.datetime
    time_index: np.ndarray
    hrv_mean: np.ndarray
    power_w: np.ndarray
    gaps: int = 0

    def __post_init__(self):
        self.time_index = np.asarray(self.time_index, dtype=np.int64)
        self.hrv_mean = np.asarray(self.hrv_mean, dtype=float)
        self.power_w = np.asarray(self.power_w, dtype=float)

    @property
    def n(self) -> int:
        return self.time_index.size

    def window(self, lo: int, hi: int) -> "AssembledSeries":
        """Rows with lo <= time index < hi (metadata shared, gaps reset)."""
        m = (self.time_index >= lo) & (self.time_index < hi)
        return AssembledSeries(
            system_id=self.system_id,
            capacity_w=self.capacity_w,
            latitude=self.latitude,
            longitude=self.longitude,
            patch_px=self.patch_px,
            epoch_utc=self.epoch_utc,
            time_index=self.time_index[m],
            hrv_mean=self.hrv_mean[m],
            power_w=self.power_w[m],
        )


@dataclass
class MetadataLoad:
    systems: list[PvSystem]
    skipped: list[tuple[int, str]]  # (line number, reason)


@dataclass
class PowerData:
    """Per-system 5-minute power series on a shared time index."""

    epoch_utc: dt.datetime
    series: dict[int, tuple[np.ndarray, np.ndarray]]  # id -> (indices, watts)
    skipped: list[tuple[int, str]]  # (CSV line number, reason)


@dataclass
class Removal:
    system: PvSystem
    reason: str
    detail: str = ""


@dataclass
class FilterResult:
    kept: list[PvSystem]
    removed: list[Removal]


_POSIX0 = dt.datetime(1970, 1, 1, tzinfo=UTC)
_DAY_US = 86_400_000_000
_MICROSECOND = dt.timedelta(microseconds=1)
_STEP_US = geotime.STEP_SECONDS * 1_000_000
_CHUNK_ROWS = 4096  # rows whose strings are alive at once
# the writer's stamp YYYY-MM-DDTHH:MM:SSZ, each digit written as 0, and its largest
# character less that of the form: 9 at a digit, 0 at a separator
_STAMP_FORM = "0000-00-00T00:00:00Z"
_STAMP_ZERO = np.array([[ord(c)] for c in _STAMP_FORM], dtype=np.uint32)
_STAMP_MAX = np.array([[9 * (c == "0")] for c in _STAMP_FORM], dtype=np.uint32)


def _parse_timestamp(text: str) -> dt.datetime:
    t = dt.datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    return t.replace(tzinfo=UTC) if t.tzinfo is None else t.astimezone(UTC)


def _writer_stamps_us(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """POSIX microseconds of the stamps in the writer's ``YYYY-MM-DDTHH:MM:SSZ`` form.

    Returns the microseconds and a mask of the stamps read; a stamp in any
    other form, or naming a date or time that does not exist, is left for
    :func:`_parse_timestamp`.
    """
    n = len(stamps)
    # one row per character of the form, one column per stamp; below "0" wraps to a large uint32
    chars = (np.array(stamps, dtype="<U20").view(np.uint32).reshape(n, 20).T - _STAMP_ZERO).copy()
    read = (np.fromiter(map(len, stamps), dtype=np.int64, count=n) == 20) & (chars <= _STAMP_MAX).all(axis=0)
    chars[:, ~read] = 0

    def field(first: int, stop: int) -> np.ndarray:
        value = chars[first].astype(np.int64)
        for k in range(first + 1, stop):
            value = value * 10 + chars[k]
        return value

    year, month, day = field(0, 4), field(5, 7), field(8, 10)
    hour, minute, second = field(11, 13), field(14, 16), field(17, 19)
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]").astype(np.int64)
    month_days = (months + 1).astype("datetime64[D]").astype(np.int64) - days
    read &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    read &= (hour <= 23) & (minute <= 59) & (second <= 59)
    return ((days + day - 1) * 86400 + hour * 3600 + minute * 60 + second) * 1_000_000, read


def load_metadata(path, projection: TransverseMercator = BRITISH_NATIONAL_GRID) -> MetadataLoad:
    """Read the metadata CSV; malformed rows are skipped and reported with their file line number.

    A ``system_id`` already read is skipped as well, naming the line that
    kept it: the first well-formed row in file order wins.
    """
    path = Path(path)
    systems: list[PvSystem] = []
    skipped: list[tuple[int, str]] = []
    first_line: dict[int, int] = {}  # system id -> the file line it was read from
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        required = {"system_id", "latitude", "longitude", "capacity_w"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: metadata header must contain {sorted(required)}")
        for row in reader:
            # the reader skips blank lines but counts them
            lineno = reader.line_num
            try:
                if any(not row[k].strip() for k in required):
                    raise ValueError("missing field")
                system_id = int(row["system_id"])
                lat = float(row["latitude"])
                lon = float(row["longitude"])
                capacity = float(row["capacity_w"])
                if capacity <= 0:
                    raise ValueError(f"capacity_w must be > 0, got {capacity}")
                location = GeoPoint.from_latlon(lat, lon, projection)
                if system_id in first_line:
                    raise ValueError(f"duplicate system {system_id} (first on line {first_line[system_id]})")
            except ValueError as exc:
                skipped.append((lineno, str(exc)))
                continue
            first_line[system_id] = lineno
            systems.append(
                PvSystem(system_id=system_id, location=location, capacity_w=capacity, provenance=f"{path.name}:{lineno}")
            )
    return MetadataLoad(systems=systems, skipped=skipped)


def load_power(path) -> PowerData:
    """Read the power CSV and place readings on the 5-minute index.

    The epoch is midnight UTC of the first day present, so day boundaries
    land on multiples of 288.  Misaligned or malformed rows, a short one
    included, are skipped and recorded with their file line number.  So is
    a reading for a system and step already read, naming the line that
    kept it: the first well-formed row in file order wins.  ``skipped``
    lists the malformed rows, then the misaligned ones, each in file order,
    then each system's repeated readings by step.

    Rows are converted a chunk at a time, the writer's stamps in one array
    pass (:func:`_writer_stamps_us`) and any other stamp one at a time.
    """
    path = Path(path)
    chunks = []  # per chunk: file lines, POSIX microseconds, system codes, watts of the rows read
    skipped: list[tuple[int, str]] = []
    systems: dict[int, int] = {}  # system id -> code, in order of first sight
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = {"timestamp_utc", "system_id", "power_w"}
        if header is None or not required <= set(header):
            raise ValueError(f"{path}: power header must contain {sorted(required)}")
        column = {name: k for k, name in enumerate(header)}  # a repeated name keeps its last column, as csv.DictReader does
        columns = [column["timestamp_utc"], column["system_id"], column["power_w"]]
        for lines, rows in _row_chunks(reader, max(columns) + 1):
            chunks.append(_parse_rows(lines, *([row[k] for row in rows] for k in columns), systems, skipped))
    parts = [np.concatenate(part) for part in zip(*chunks)]
    if not parts or not parts[0].size:
        raise EmptyDatasetError(f"{path}: no parseable power rows")
    line, us, code, watts = parts
    epoch_us = int(us.min()) // _DAY_US * _DAY_US
    epoch = _POSIX0 + dt.timedelta(microseconds=epoch_us)
    offset = us - epoch_us
    aligned = offset % _STEP_US == 0
    for k in np.flatnonzero(~aligned).tolist():
        when = _POSIX0 + dt.timedelta(microseconds=int(us[k]))
        skipped.append((int(line[k]), f"{when.isoformat()} is not on a 5-minute boundary relative to {epoch.isoformat()}"))
    idx, line, code, watts = offset[aligned] // _STEP_US, line[aligned], code[aligned], watts[aligned]

    # systems in order of their first aligned row; within one, by index, a stable sort keeping file order
    present, first_row = np.unique(code, return_index=True)
    order = np.lexsort((idx, code))
    idx, line, code, watts = idx[order], line[order], code[order], watts[order]
    system_ids = list(systems)
    series = {}
    for c in present[np.argsort(first_row)].tolist():
        lo, hi = np.searchsorted(code, [c, c + 1])
        system_id, steps, step_lines = system_ids[c], idx[lo:hi], line[lo:hi]
        first = np.concatenate([[True], np.diff(steps) > 0])
        for k in np.flatnonzero(~first).tolist():
            kept = step_lines[np.searchsorted(steps, steps[k])]
            when = geotime.index_to_iso(int(steps[k]), epoch)
            skipped.append((int(step_lines[k]), f"duplicate reading for system {system_id} at {when} (first on line {kept})"))
        series[system_id] = (steps[first], watts[lo:hi][first])
    return PowerData(epoch_utc=epoch, series=series, skipped=skipped)


def _row_chunks(reader, width: int):
    """``(file lines, rows)`` of the reader's non-blank rows, ``_CHUNK_ROWS`` at a time.

    A row's line is the file line it ends on, blank lines counted; a short
    row is padded with ``""`` to ``width`` fields.  A line the reader cannot
    read raises at once: no row's conversion raises, so no earlier row's
    error can take precedence over it.
    """
    lines, rows = [], []
    for row in reader:
        if not row:
            continue
        lines.append(reader.line_num)
        rows.append(row if len(row) >= width else row + [""] * (width - len(row)))
        if len(rows) == _CHUNK_ROWS:
            yield lines, rows
            lines, rows = [], []
    if rows:
        yield lines, rows


def _parse_rows(lines, stamps, ids, watts, systems: dict[int, int], skipped: list) -> tuple[np.ndarray, ...]:
    """File lines, POSIX microseconds, system codes and watts of one chunk's well-formed rows.

    A malformed row is appended to ``skipped`` with the error of its first
    bad field in the order stamp, id, watts; ``systems`` gives each new
    system id the next code.
    """
    us, read = _writer_stamps_us(stamps)
    stamp_errors = {}
    for k in np.flatnonzero(~read).tolist():
        try:
            us[k] = (_parse_timestamp(stamps[k]) - _POSIX0) // _MICROSECOND
        except (ValueError, OverflowError) as exc:
            stamp_errors[k] = str(exc)
    code, id_errors = _system_codes(ids, systems)
    watts, watt_errors = _floats(watts)
    errors = watt_errors | id_errors | stamp_errors
    for k in sorted(errors):
        skipped.append((lines[k], errors[k]))
    ok = np.ones(len(lines), dtype=bool)
    ok[list(errors)] = False
    return np.array(lines, dtype=np.int64)[ok], us[ok], code[ok], watts[ok]


def _system_codes(texts, systems: dict[int, int]) -> tuple[np.ndarray, dict[int, str]]:
    """Each text's system code, -1 where ``int`` fails, and the failures' messages by position.

    A chunk names few systems, so each distinct text is parsed once.
    """
    code_of, errors_of = {}, {}
    for text in dict.fromkeys(texts):
        try:
            code_of[text] = systems.setdefault(int(text), len(systems))
        except ValueError as exc:
            code_of[text], errors_of[text] = -1, str(exc)
    code = np.fromiter(map(code_of.__getitem__, texts), dtype=np.int64, count=len(texts))
    return code, {k: errors_of[texts[k]] for k in np.flatnonzero(code < 0).tolist()}


def _floats(texts) -> tuple[np.ndarray, dict[int, str]]:
    """``float`` of each text, 0 where it fails, and the failures' messages by position."""
    try:
        return np.fromiter(map(float, texts), dtype=float, count=len(texts)), {}
    except ValueError:
        pass
    values, errors = np.zeros(len(texts)), {}
    for k, text in enumerate(texts):
        try:
            values[k] = float(text)
        except ValueError as exc:
            errors[k] = str(exc)
    return values, errors


def filter_systems(
    systems: list[PvSystem],
    power: PowerData,
    boundary: BoundaryBox = UK_BOUNDARY,
    night_threshold_deg: float = NIGHT_ELEVATION_DEG,
    overnight_fraction: float = OVERNIGHT_POWER_FRACTION,
    min_nights: int = OVERNIGHT_MIN_NIGHTS,
) -> FilterResult:
    """Split systems into kept and removed-with-reason.

    Removal reasons, first match wins: ``missing-metadata`` (no usable
    capacity or location), ``out-of-bounds`` (projected location outside
    ``boundary``), ``no-power`` (no power rows, so nothing to assemble),
    ``overnight-generation`` (power above
    ``overnight_fraction`` of capacity while the sun is below
    ``night_threshold_deg`` on at least ``min_nights`` distinct nights).
    """
    kept: list[PvSystem] = []
    removed: list[Removal] = []
    for system in systems:
        if (
            system.capacity_w is None
            or not np.isfinite(system.capacity_w)
            or system.capacity_w <= 0
            or system.location is None
            or not (np.isfinite(system.location.easting) and np.isfinite(system.location.northing))
        ):
            removed.append(Removal(system, REASON_MISSING_METADATA, "capacity or location unusable"))
            continue
        if not boundary.contains(system.location.easting, system.location.northing):
            removed.append(
                Removal(
                    system,
                    REASON_OUT_OF_BOUNDS,
                    f"({system.location.easting:.0f}, {system.location.northing:.0f}) outside boundary",
                )
            )
            continue
        if system.system_id not in power.series:
            removed.append(Removal(system, REASON_NO_POWER, "no power rows"))
            continue
        nights = _overnight_nights(system, power, night_threshold_deg, overnight_fraction)
        if nights >= min_nights:
            removed.append(Removal(system, REASON_OVERNIGHT, f"{nights} nights with overnight power"))
            continue
        kept.append(system)
    return FilterResult(kept=kept, removed=removed)


def _overnight_nights(system, power, night_threshold_deg, overnight_fraction) -> int:
    idx, watts = power.series[system.system_id]
    suspicious = watts > overnight_fraction * system.capacity_w
    if not suspicious.any():
        return 0
    seconds = power.epoch_utc.timestamp() + idx[suspicious].astype(float) * geotime.STEP_SECONDS
    elevation = solar_elevation_deg(system.location.latitude, system.location.longitude, seconds)
    dark = np.asarray(elevation) < night_threshold_deg
    # a night runs noon to noon: key each reading by the day 12 h before it
    return np.unique((seconds[dark] - 43200.0) // 86400.0).size


# -- HRV rasters ----------------------------------------------------------------

_HEADER = struct.Struct("<4sdddIII")
_FRAME_TIME = struct.Struct("<q")


def write_hrv(path, stack: HrvRasterStack) -> None:
    """Write the binary raster container.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so rewriting a path never truncates a file
    that a stack from :func:`read_hrv` still maps.
    """
    path = Path(path)
    epoch_s = int(stack.epoch_utc.timestamp())
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(
                _HEADER.pack(
                    HRV_MAGIC,
                    stack.origin_easting,
                    stack.origin_northing,
                    stack.pixel_size,
                    stack.width,
                    stack.height,
                    stack.frame_indices.size,
                )
            )
            for k, t in enumerate(stack.frame_indices):
                fh.write(_FRAME_TIME.pack(epoch_s + int(t) * geotime.STEP_SECONDS))
                fh.write(np.ascontiguousarray(stack.frames[k], dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_hrv(path, epoch: dt.datetime) -> HrvRasterStack:
    """Read the binary raster container, indexing frames against ``epoch``.

    The frames are memory-mapped read-only from the file rather than
    copied, so the returned stack's ``frames`` cannot be written to.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError(f"{path}: truncated HRV header")
    magic, oe, on, ps, width, height, count = _HEADER.unpack(header)
    if magic != HRV_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {HRV_MAGIC!r}")
    record = np.dtype([("t", "<i8"), ("grid", "<f4", (height, width))])  # one frame
    complete = min(count, (path.stat().st_size - _HEADER.size) // record.itemsize)
    if complete:
        records = np.memmap(path, dtype=record, mode="r", offset=_HEADER.size, shape=(complete,))
    else:
        records = np.zeros(0, dtype=record)
    offsets = records["t"] - int(epoch.timestamp())
    # errors name the first bad frame in file order, as a sequential read would
    off_grid = np.flatnonzero(offsets % geotime.STEP_SECONDS)
    if off_grid.size:
        k = int(off_grid[0])
        raise AlignmentError(f"{path}: frame {k} at {int(records['t'][k])}s is off the 5-minute grid")
    if complete < count:
        raise ValueError(f"{path}: truncated frame {complete}")
    return HrvRasterStack(
        origin_easting=oe,
        origin_northing=on,
        pixel_size=ps,
        width=width,
        height=height,
        epoch_utc=epoch,
        frame_indices=offsets // geotime.STEP_SECONDS,
        frames=records["grid"],
    )


def _patch_window(stack: HrvRasterStack, system: PvSystem, patch_px: int) -> tuple[slice, slice]:
    """Row and column slices of the ``patch_px`` square above a system.

    The window spans columns ``px - s/2 .. px + s/2 - 1`` (same for rows),
    where (px, py) is the pixel containing the system and s the patch
    size; even sizes are anchored so the containing pixel sits just right
    of the window centre.
    """
    if patch_px < 1:
        raise ValueError(f"patch_px must be >= 1, got {patch_px}")
    px = int(np.floor((system.location.easting - stack.origin_easting) / stack.pixel_size))
    py = int(np.floor((system.location.northing - stack.origin_northing) / stack.pixel_size))
    c0, c1 = px - patch_px // 2, px + (patch_px + 1) // 2
    r0, r1 = py - patch_px // 2, py + (patch_px + 1) // 2
    if c0 < 0 or r0 < 0 or c1 > stack.width or r1 > stack.height:
        raise CoverageError(
            f"{patch_px}x{patch_px} patch at pixel ({px}, {py}) crosses the raster edge "
            f"({stack.width}x{stack.height})"
        )
    return slice(r0, r1), slice(c0, c1)


def _check_sensor_max(sensor_max: float) -> None:
    """Raise ``ValueError`` naming ``sensor_max`` unless it is finite and > 0: it scales every patch mean."""
    if not (sensor_max > 0 and math.isfinite(sensor_max)):
        raise ValueError(f"sensor_max must be finite and > 0, got {sensor_max}")


def _patch_means(patches: np.ndarray, sensor_max: float) -> np.ndarray:
    """Mean of each patch over its last two axes, scaled to [0, 1]."""
    # float64 accumulation: sums of <=144 float32 values are exact, so the
    # result is independent of summation order
    return np.clip(patches.mean(axis=(-2, -1), dtype=np.float64) / sensor_max, 0.0, 1.0)


def hrv_patch_mean(
    stack: HrvRasterStack,
    system: PvSystem,
    patch_px: int,
    t_index: int,
    sensor_max: float = HRV_SENSOR_MAX,
) -> float:
    """Mean HRV brightness of the sky patch above a system at one frame, scaled to [0, 1]."""
    _check_sensor_max(sensor_max)
    rows, cols = _patch_window(stack, system, patch_px)
    return float(_patch_means(stack.frame_at(t_index)[rows, cols], sensor_max))


def assemble(
    system: PvSystem,
    power: PowerData,
    stack: HrvRasterStack,
    patch_px: int,
    window: tuple[int, int],
    sensor_max: float = HRV_SENSOR_MAX,
) -> AssembledSeries:
    """Inner-join power readings with HRV patch means over ``[lo, hi)``.

    Rows missing on either side are dropped and counted as gaps, as are
    rows with power outside the physical range [0, 1.1 * capacity].  The
    join is one ``intersect1d`` of the two time indices and the patch means
    one gather over the kept frames, which reads only the patch from a
    memory-mapped stack.  Raises ``ValueError`` naming ``sensor_max`` unless
    it is finite and > 0.
    """
    _check_sensor_max(sensor_max)
    lo, hi = window
    data = power.series.get(system.system_id)
    if data is None:
        raise EmptyDatasetError(f"system {system.system_id} has no power rows")
    idx, watts = data
    in_window = (idx >= lo) & (idx < hi)
    idx, watts = idx[in_window], watts[in_window]
    frame_rows = np.flatnonzero((stack.frame_indices >= lo) & (stack.frame_indices < hi))
    joint, at_power, at_frame = np.intersect1d(idx, stack.frame_indices[frame_rows], return_indices=True)
    watts = watts[at_power]
    # NaN fails both comparisons, so it is dropped with the out-of-range rows
    ok = (watts >= 0.0) & (watts <= 1.1 * system.capacity_w)
    if not ok.any():
        raise EmptyDatasetError(f"empty join for system {system.system_id} in window [{lo}, {hi})")
    rows, cols = _patch_window(stack, system, patch_px)
    return AssembledSeries(
        system_id=system.system_id,
        capacity_w=system.capacity_w,
        latitude=system.location.latitude,
        longitude=system.location.longitude,
        patch_px=patch_px,
        epoch_utc=power.epoch_utc,
        time_index=joint[ok],
        hrv_mean=_patch_means(stack.frames[frame_rows[at_frame[ok]], rows, cols], sensor_max),
        power_w=watts[ok],
        gaps=idx.size + frame_rows.size - joint.size - int(np.count_nonzero(ok)),
    )
