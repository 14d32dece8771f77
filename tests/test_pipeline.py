"""Ingestion, filtering, patch averaging, and assembly."""

import datetime as dt
import random

import numpy as np
import pytest

from pvgp import pipeline
from pvgp.geotime import AlignmentError, GeoPoint, latlon_to_tm
from pvgp.pipeline import (
    CoverageError,
    EmptyDatasetError,
    GapError,
    HrvRasterStack,
    PowerData,
    PvSystem,
    assemble,
    filter_systems,
    hrv_patch_mean,
    load_metadata,
    load_power,
    read_hrv,
    write_hrv,
)

from oracles import assemble_per_row, load_power_per_row, patch_mean_oracle

UTC = dt.timezone.utc
EPOCH = dt.datetime(2021, 6, 1, tzinfo=UTC)

LONDON = GeoPoint.from_latlon(51.5, -0.12)


def make_system(system_id=1, location=LONDON, capacity=3000.0):
    return PvSystem(system_id=system_id, location=location, capacity_w=capacity)


def make_stack(frames, frame_indices, origin=None, pixel_size=1000.0):
    frames = np.asarray(frames, dtype=np.float32)
    h, w = frames.shape[1:]
    if origin is None:
        # centre the grid on London's containing pixel
        origin = (
            np.floor(LONDON.easting / pixel_size) * pixel_size - (w // 2) * pixel_size,
            np.floor(LONDON.northing / pixel_size) * pixel_size - (h // 2) * pixel_size,
        )
    return HrvRasterStack(
        origin_easting=origin[0],
        origin_northing=origin[1],
        pixel_size=pixel_size,
        width=w,
        height=h,
        epoch_utc=EPOCH,
        frame_indices=np.asarray(frame_indices, dtype=np.int64),
        frames=frames,
    )


def make_power(indices, watts, system_id=1):
    return PowerData(
        epoch_utc=EPOCH,
        series={system_id: (np.asarray(indices, dtype=np.int64), np.asarray(watts, dtype=float))},
        skipped=[],
    )


# -- metadata loading -----------------------------------------------------------


def write_metadata(path, rows):
    path.write_text("system_id,latitude,longitude,capacity_w\n" + "\n".join(rows) + "\n")


def test_load_metadata_well_formed(tmp_path):
    p = tmp_path / "meta.csv"
    write_metadata(p, ["1,51.5,-0.12,2460", "2,52.2,0.1,3870", "3,53.4,-2.9,2820", "4,55.9,-3.2,3960"])
    load = load_metadata(p)
    assert len(load.systems) == 4 and not load.skipped
    e, n = latlon_to_tm(51.5, -0.12)
    assert load.systems[0].location.easting == pytest.approx(e)
    assert load.systems[0].location.northing == pytest.approx(n)


def test_load_metadata_missing_capacity_skipped(tmp_path):
    p = tmp_path / "meta.csv"
    write_metadata(p, ["1,51.5,-0.12,2460", "2,52.2,0.1,"])
    load = load_metadata(p)
    assert len(load.systems) == 1
    assert len(load.skipped) == 1 and load.skipped[0][0] == 3


def test_load_metadata_out_of_range_latitude(tmp_path):
    p = tmp_path / "meta.csv"
    write_metadata(p, ["1,91.0,-0.12,2460"])
    load = load_metadata(p)
    assert not load.systems
    assert "91" in load.skipped[0][1]


def test_load_metadata_keeps_the_first_of_repeated_system_ids(tmp_path):
    p = tmp_path / "meta.csv"
    write_metadata(p, ["1,51.5,-0.12,3000", "2,52.2,0.1,3870", "1,51.5,-0.12,1500", "1,51.5,-0.12,"])
    load = load_metadata(p)
    assert [(s.system_id, s.capacity_w, s.provenance) for s in load.systems] == [
        (1, 3000.0, "meta.csv:2"),
        (2, 3870.0, "meta.csv:3"),
    ]
    assert load.skipped == [(4, "duplicate system 1 (first on line 2)"), (5, "missing field")]


# -- power loading ----------------------------------------------------------------


def test_load_power_epoch_and_alignment(tmp_path):
    p = tmp_path / "power.csv"
    p.write_text(
        "timestamp_utc,system_id,power_w\n"
        "2021-06-01T06:00:00Z,1,100.0\n"
        "2021-06-01T06:05:00Z,1,110.0\n"
        "2021-06-01T06:07:00Z,1,120.0\n"  # off-grid, skipped
    )
    data = load_power(p)
    assert data.epoch_utc == EPOCH
    idx, watts = data.series[1]
    assert idx.tolist() == [72, 73]
    assert watts.tolist() == [100.0, 110.0]
    assert len(data.skipped) == 1
    assert data.skipped[0][0] == 4


def test_load_power_skips_a_short_row(tmp_path):
    p = tmp_path / "power.csv"
    p.write_text(
        "timestamp_utc,system_id,power_w\n"
        "2021-06-13T00:00:00Z,1,100.0\n"
        "2021-06-13T00:00:00Z,1\n"  # no power_w
        "2021-06-13T00:05:00Z,1,110.0\n"
    )
    data = load_power(p)
    assert data.series[1][1].tolist() == [100.0, 110.0]
    assert [line for line, _ in data.skipped] == [3]


def test_load_power_keeps_the_first_of_repeated_readings(tmp_path):
    p = tmp_path / "power.csv"
    p.write_text(
        "timestamp_utc,system_id,power_w\n"
        "2021-06-01T10:00:00Z,1,500.0\n"
        "2021-06-01T10:00:00Z,1,100.0\n"  # same system and step: skipped
        "2021-06-01T10:00:00Z,2,300.0\n"  # another system at that step is kept
        "2021-06-01T09:55:00Z,1,450.0\n"
        "2021-06-01T10:00:00+00:00,1,700.0\n"  # the same step written another way
    )
    data = load_power(p)
    assert data.series[1][0].tolist() == [119, 120]
    assert data.series[1][1].tolist() == [450.0, 500.0]
    assert data.series[2][1].tolist() == [300.0]
    reason = "duplicate reading for system 1 at 2021-06-01T10:00:00Z (first on line 2)"
    assert data.skipped == [(3, reason), (6, reason)]


def test_csv_readers_count_blank_lines_in_line_numbers(tmp_path):
    # csv.DictReader skips a blank line but the file still has it
    p = tmp_path / "power.csv"
    p.write_text(
        "timestamp_utc,system_id,power_w\n"
        "2021-06-01T06:00:00Z,1,100.0\n"
        "\n"
        "2021-06-01T06:05:00Z,1,oops\n"
        "2021-06-01T06:07:00Z,1,120.0\n"  # off-grid
    )
    assert sorted(line for line, _ in load_power(p).skipped) == [4, 5]
    meta = tmp_path / "meta.csv"
    write_metadata(meta, ["1,51.5,-0.12,2460", "", "2,52.2,0.1,", "3,53.4,-2.9,2820"])
    load = load_metadata(meta)
    assert [line for line, _ in load.skipped] == [4]
    assert [s.provenance for s in load.systems] == ["meta.csv:2", "meta.csv:5"]


def assert_loads_like_the_per_row_reader(path):
    """``load_power`` returns or raises exactly what the per-row oracle does."""
    try:
        want = load_power_per_row(path)
    except Exception as exc:  # compared below: the same type and text
        want = exc
    try:
        got = load_power(path)
    except Exception as exc:
        got = exc
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert isinstance(got, PowerData), got
    assert (got.epoch_utc, got.epoch_utc.tzinfo) == (want.epoch_utc, want.epoch_utc.tzinfo)
    assert list(got.series) == list(want.series)
    assert {type(k) for k in got.series} <= {int}
    for system_id, (idx, watts) in want.series.items():
        got_idx, got_watts = got.series[system_id]
        assert (got_idx.dtype, got_watts.dtype) == (idx.dtype, watts.dtype)
        np.testing.assert_array_equal(got_idx, idx)
        np.testing.assert_array_equal(got_watts, watts)
    assert got.skipped == want.skipped
    assert {type(line) for line, _ in got.skipped} <= {int}


HEADER = "timestamp_utc,system_id,power_w\n"
GRID_ROWS = "".join(f"2024-02-{28 + k // 288:02d}T{k % 288 // 12:02d}:{k % 12 * 5:02d}:00Z,{1 + k % 3},{k}.5\n" for k in range(600))
EDGE_FILES = {
    "empty": "",
    "blank header": "\n" + HEADER + "2021-06-01T00:00:00Z,1,1\n",
    "header only": HEADER,
    "missing column": "timestamp_utc,system_id\n2021-06-01T00:00:00Z,1\n",
    "every row bad": HEADER + "x,1,1\n2021-06-01T00:00:00Z,y,1\n2021-06-01T00:00:00Z,1,z\n",
    "every row misaligned": HEADER + "2021-06-01T00:03:00Z,1,1\n2021-06-01T00:09:00Z,2,1\n2021-06-01T01:00:00.5Z,1,1\n",
    "reordered, extra and repeated columns": "power_w,note,system_id,timestamp_utc,system_id\n"
    "5,a,9,2021-06-01T00:05:00Z,1\n6,b,1,2021-06-01T00:00:00Z,2\n7,c,1,2021-06-01T00:00:00Z\n",
    "short and long rows": HEADER + "2021-06-01T00:00:00Z\n2021-06-01T00:00:00Z,1\n2021-06-01T00:05:00Z,1,3,extra,more\n",
    "quoted fields and a field over two lines": HEADER + '"2021-06-01T00:00:00Z","1","2.5"\n'
    '"2021-06-01T00:05:00Z",1,"3\n4"\n2021-06-01T00:10:00Z,1,4\n',
    "blank lines": HEADER + "\n\n2021-06-01T00:00:00Z,1,1\n\n2021-06-01T00:02:00Z,1,1\n\n",
    "offsets, naive, fractional and whitespace": HEADER + "2021-06-01T01:00:00+01:00,1,1\n2021-05-31T21:30:00-02:30,1,2\n"
    "2021-06-01T00:10:00,1,3\n 2021-06-01T00:15:00Z ,1,4\n2021-06-01T00:20:00.000000Z,1,5\n2021-06-01T00:25:00.5Z,1,6\n"
    "2021-06-01 00:30:00Z,1,7\n2021-06-01T00:35Z,1,8\n20210601T004000Z,1,9\n",
    "impossible and out-of-range stamps": HEADER + "2021-02-29T00:00:00Z,1,1\n2024-02-29T00:00:00Z,1,2\n"
    "2021-06-01T24:00:00Z,1,3\n2021-06-31T00:00:00Z,1,4\n2021-13-01T00:00:00Z,1,5\n0000-06-01T00:00:00Z,1,6\n"
    "2021-06-01T00:60:00Z,1,7\n2021-06-01T00:00:60Z,1,8\n1900-02-29T00:00:00Z,1,9\n2000-02-29T00:00:00Z,1,10\n"
    "2021-06-01t00:00:00z,1,11\n2021-06-0１T00:00:00Z,1,12\n2021-06-01T00:00:00ZZ,1,13\n",
    "before 1970 and far future": HEADER + "1969-12-31T23:55:00Z,1,1\n9999-12-31T23:55:00Z,2,2\n0001-01-01T00:00:00Z,3,3\n",
    "a stamp past the calendar's start": HEADER + "2021-06-01T00:00:00Z,1,1\n0001-01-01T00:00:00+01:00,1,2\n",
    # the decoder meets the bad byte past its first 8 KiB block, after the earlier row raised
    "a stamp past the calendar's start before an undecodable line": (
        HEADER + "0001-01-01T00:00:00+01:00,1,2\n" + GRID_ROWS[:12000]
    ).encode() + b"\xff,1,1\n",
    "an over-long field": HEADER + "2021-06-01T00:00:00Z,1,1\n2021-06-01T00:05:00Z,1," + "9" * 200_000 + "\n",
    "ids and watts": HEADER + "2021-06-01T00:00:00Z, 7 ,1\n2021-06-01T00:00:00Z,+8,nan\n2021-06-01T00:00:00Z,1_0,-inf\n"
    "2021-06-01T00:00:00Z,99999999999999999999999,1e3\n2021-06-01T00:00:00Z,1.0,1\n2021-06-01T00:00:00Z,,1\n"
    "2021-06-01T00:00:00Z,3,\n2021-06-01T00:00:00Z,3, 4 \n2021-06-01T00:00:00Z,x,y\n",
    "repeats across systems and chunks": HEADER + GRID_ROWS * 8 + "2024-02-28T00:03:00Z,1,1\n",
}


@pytest.mark.parametrize("name", list(EDGE_FILES))
def test_load_power_matches_the_per_row_reader_on_edge_cases(tmp_path, name):
    path = tmp_path / "power.csv"
    content = EDGE_FILES[name]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert_loads_like_the_per_row_reader(path)


def random_power_csv(rng: random.Random) -> str:
    """A power CSV mixing the writer's rows with every kind of odd row the reader meets."""
    names = ["timestamp_utc", "system_id", "power_w"] + rng.sample(["note", "system_id", "power_w", "x"], rng.randint(0, 2))
    rng.shuffle(names)
    start = dt.datetime(rng.choice([2021, 2023, 2024]), rng.choice([1, 2, 6, 12]), rng.randint(1, 28), tzinfo=UTC)

    def stamp():
        t = start + dt.timedelta(minutes=5 * rng.randint(0, 3 * 288))
        kind = rng.random()
        if kind < 0.75:
            return t.strftime("%Y-%m-%dT%H:%M:%SZ")
        t += dt.timedelta(minutes=rng.choice([0, 0, 1, 3]), seconds=rng.choice([0, 0, 30]))
        return rng.choice([
            t.astimezone(dt.timezone(dt.timedelta(hours=1))).isoformat(),
            t.astimezone(dt.timezone(-dt.timedelta(hours=2, minutes=30))).isoformat(),
            t.replace(tzinfo=None).isoformat(),
            t.strftime("%Y-%m-%dT%H:%M:%S.250Z"),
            t.strftime("%Y-%m-%dT24:00:00Z"),
            t.strftime("%Y-02-30T%H:%M:%SZ"),
            t.strftime("%Y-%m-%dT%H:%M:%SZ"),
            f" {t:%Y-%m-%dT%H:%M:%SZ}",
            "garbage",
            "",
        ])

    def field(name):
        if name == "timestamp_utc":
            return stamp()
        if name == "system_id":
            return str(rng.choice([1, 1, 2, 3, 40])) if rng.random() < 0.95 else rng.choice(["x", "", " 2", "1.5"])
        if name == "power_w":
            return f"{rng.uniform(0, 3000):.3f}" if rng.random() < 0.93 else rng.choice(["nan", "inf", "-inf", "w", "", "1e2"])
        return rng.choice(["", "a", "b,c"])

    lines = [",".join(names)]
    for _ in range(rng.randint(1, 150)):
        kind = rng.random()
        if kind < 0.03:
            lines.append("")
            continue
        if kind < 0.08 and len(lines) > 1:
            lines.append(lines[rng.randrange(1, len(lines))])  # a repeated reading
            continue
        row = [field(name) for name in names]
        if kind < 0.12:
            row = row[: rng.randrange(len(row))]
        elif kind < 0.15:
            row += ["extra"]
        lines.append(",".join(f'"{v}"' if "," in v or rng.random() < 0.05 else v for v in row))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


@pytest.mark.parametrize("seed", range(100))
def test_load_power_matches_the_per_row_reader_on_random_files(tmp_path, seed):
    path = tmp_path / "power.csv"
    path.write_text(random_power_csv(random.Random(seed)), encoding="utf-8")
    assert_loads_like_the_per_row_reader(path)


# -- filtering --------------------------------------------------------------------


def overnight_power(capacity, fraction, nights):
    """Half-capacity readings at local midnight on the given nights."""
    indices = [n * 288 for n in nights]  # index 0 is midnight UTC
    return make_power(indices, [fraction * capacity] * len(indices))


def test_filter_keeps_clean_system():
    system = make_system()
    power = make_power([120, 121], [1500.0, 1520.0])  # mid-morning readings
    result = filter_systems([system], power)
    assert result.kept == [system] and not result.removed


def test_filter_removes_overnight_generation():
    system = make_system()
    result = filter_systems([system], overnight_power(system.capacity_w, 0.5, nights=[0, 1, 2]))
    assert not result.kept
    assert result.removed[0].reason == pipeline.REASON_OVERNIGHT


def test_filter_tolerates_two_overnight_nights():
    system = make_system()
    result = filter_systems([system], overnight_power(system.capacity_w, 0.5, nights=[0, 1]))
    assert result.kept == [system]


def test_filter_counts_dark_readings_either_side_of_midnight_as_one_night():
    # 22:00 UTC on day d and 02:00 UTC on day d+1 fall in the same noon-to-noon night
    system = make_system()
    indices = [d * 288 + step for d in (1, 2) for step in (264, 288 + 24)]
    power = make_power(indices, [0.5 * system.capacity_w] * len(indices))
    assert filter_systems([system], power, min_nights=3).kept == [system]
    removed = filter_systems([system], power, min_nights=2).removed
    assert [(r.reason, r.detail) for r in removed] == [(pipeline.REASON_OVERNIGHT, "2 nights with overnight power")]


def test_filter_removes_out_of_bounds():
    away = PvSystem(system_id=9, location=GeoPoint.from_latlon(51.5, 30.0), capacity_w=1000.0)
    result = filter_systems([away], make_power([120], [0.0], system_id=9))
    assert result.removed[0].reason == pipeline.REASON_OUT_OF_BOUNDS


def test_filter_removes_missing_metadata():
    broken = PvSystem(system_id=7, location=LONDON, capacity_w=float("nan"))
    result = filter_systems([broken], make_power([120], [0.0], system_id=7))
    assert result.removed[0].reason == pipeline.REASON_MISSING_METADATA


def test_filter_is_idempotent_and_lossless():
    systems = [
        make_system(1),
        PvSystem(2, GeoPoint.from_latlon(51.5, 30.0), 1000.0),
        PvSystem(3, LONDON, float("nan")),
        make_system(4),
    ]
    power = make_power([120], [500.0], system_id=1)
    result = filter_systems(systems, power)
    assert len(result.kept) + len(result.removed) == len(systems)
    assert [r.reason for r in result.removed] == [pipeline.REASON_OUT_OF_BOUNDS, pipeline.REASON_MISSING_METADATA]
    again = filter_systems(result.kept, power)
    assert again.kept == result.kept and not again.removed


# -- patch averaging ---------------------------------------------------------------


def test_patch_mean_uniform_raster():
    stack = make_stack(np.full((1, 16, 16), 300.0), [0])
    for size in (2, 6, 12):
        assert hrv_patch_mean(stack, make_system(), size, 0) == pytest.approx(300.0 / 1023.0)


def test_patch_mean_two_by_two_half():
    frame = np.zeros((16, 16), dtype=np.float32)
    stack = make_stack(frame[None], [0])
    px = int((LONDON.easting - stack.origin_easting) // 1000)
    py = int((LONDON.northing - stack.origin_northing) // 1000)
    frame[py - 1, px - 1] = 0.0
    frame[py - 1, px] = 0.0
    frame[py, px - 1] = 1023.0
    frame[py, px] = 1023.0
    stack = make_stack(frame[None], [0], origin=(stack.origin_easting, stack.origin_northing))
    assert hrv_patch_mean(stack, make_system(), 2, 0) == pytest.approx(0.5)


def test_patch_mean_matches_double_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        size = int(rng.choice([2, 6, 12]))
        frame = rng.uniform(0, 1023, size=(20, 20)).astype(np.float32)
        stack = make_stack(frame[None], [0])
        px = int((LONDON.easting - stack.origin_easting) // 1000)
        py = int((LONDON.northing - stack.origin_northing) // 1000)
        got = hrv_patch_mean(stack, make_system(), size, 0)
        want = patch_mean_oracle(frame, px, py, size) / 1023.0
        assert got == want  # bitwise-identical arithmetic is not required, but equality is exact here


def test_patch_mean_translation_consistent():
    rng = np.random.default_rng(5)
    frame = rng.uniform(0, 1023, size=(16, 16)).astype(np.float32)
    stack = make_stack(frame[None], [0])
    shift = 3 * 1000.0
    moved_system = PvSystem(
        system_id=1,
        location=GeoPoint(
            latitude=LONDON.latitude,
            longitude=LONDON.longitude,
            easting=LONDON.easting + shift,
            northing=LONDON.northing + shift,
        ),
        capacity_w=3000.0,
    )
    moved_stack = make_stack(frame[None], [0], origin=(stack.origin_easting + shift, stack.origin_northing + shift))
    for size in (2, 6, 12):
        assert hrv_patch_mean(stack, make_system(), size, 0) == hrv_patch_mean(moved_stack, moved_system, size, 0)


def test_patch_mean_errors():
    stack = make_stack(np.full((1, 4, 4), 10.0), [0])
    with pytest.raises(CoverageError):
        hrv_patch_mean(stack, make_system(), 12, 0)
    big = make_stack(np.full((1, 16, 16), 10.0), [0])
    with pytest.raises(GapError):
        hrv_patch_mean(big, make_system(), 2, 99)


# -- assembly ---------------------------------------------------------------------


def full_day_stack(value=200.0):
    return make_stack(np.full((288, 16, 16), value, dtype=np.float32), np.arange(288))


def test_assemble_full_day():
    power = make_power(np.arange(288), np.linspace(0, 100, 288))
    series = assemble(make_system(), power, full_day_stack(), 2, (0, 288))
    assert series.n == 288
    assert series.gaps == 0
    assert np.all(series.hrv_mean == pytest.approx(200.0 / 1023.0))


@pytest.mark.parametrize("sensor_max", [0.0, -1023.0, np.inf, np.nan])
def test_patch_means_reject_a_sensor_max_that_is_not_finite_and_positive(sensor_max):
    # a patch mean is divided by it: 0 gives every mean 1.0, a negative one 0.0
    power = make_power(np.arange(288), np.linspace(0, 100, 288))
    with pytest.raises(ValueError, match="sensor_max"):
        assemble(make_system(), power, full_day_stack(), 2, (0, 288), sensor_max=sensor_max)
    with pytest.raises(ValueError, match="sensor_max"):
        hrv_patch_mean(full_day_stack(), make_system(), 2, 0, sensor_max=sensor_max)


def test_assemble_counts_missing_frame_as_gap():
    stack = make_stack(np.full((287, 16, 16), 200.0, dtype=np.float32), [i for i in range(288) if i != 100])
    power = make_power(np.arange(288), np.full(288, 50.0))
    series = assemble(make_system(), power, stack, 2, (0, 288))
    assert series.n == 287
    assert series.gaps == 1
    assert 100 not in series.time_index


def test_assemble_disjoint_window_raises():
    power = make_power(np.arange(288), np.full(288, 50.0))
    with pytest.raises(EmptyDatasetError):
        assemble(make_system(), power, full_day_stack(), 2, (1000, 1100))


def test_assemble_drops_out_of_range_power():
    power = make_power([0, 1, 2], [50.0, -5.0, 1e9])
    series = assemble(make_system(), power, full_day_stack(), 2, (0, 288))
    assert series.n == 1
    assert series.gaps == 2 + (288 - 3)  # two bad rows plus frames without power


def test_assemble_row_count_equals_index_intersection():
    rng = np.random.default_rng(11)
    power_idx = np.sort(rng.choice(288, size=200, replace=False))
    frame_idx = np.sort(rng.choice(288, size=220, replace=False))
    frames = np.full((220, 16, 16), 100.0, dtype=np.float32)
    stack = make_stack(frames, frame_idx)
    power = make_power(power_idx, np.full(200, 10.0))
    series = assemble(make_system(), power, stack, 6, (0, 288))
    assert series.n == np.intersect1d(power_idx, frame_idx).size


def random_join_case(rng, width=20):
    """A stack and a power series that each miss rows the other has, with bad power rows."""
    frame_idx = np.sort(rng.choice(600, size=450, replace=False))
    frames = rng.uniform(0, 1100, size=(frame_idx.size, width, width)).astype(np.float32)
    power_idx = np.sort(rng.choice(600, size=480, replace=False))
    watts = rng.uniform(0, 3000, size=power_idx.size)
    bad = rng.choice(power_idx.size, size=60, replace=False)
    watts[bad[:20]] = -rng.uniform(0.1, 50, size=20)
    watts[bad[20:40]] = np.nan
    watts[bad[40:]] = 1.1 * 3000.0 + rng.uniform(0.1, 500, size=20)
    return make_stack(frames, frame_idx), make_power(power_idx, watts)


def assert_bitwise_per_row(series, want):
    times, hrv, watts, gaps = want
    for got, ref in ((series.time_index, times), (series.hrv_mean, hrv), (series.power_w, watts)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert series.gaps == gaps


def test_assemble_bitwise_equals_per_row_join():
    rng = np.random.default_rng(14)
    window = (37, 561)  # cuts both series at each end
    for patch in (1, 2, 3, 5, 6, 12):
        for _ in range(3):
            stack, power = random_join_case(rng)
            series = assemble(make_system(), power, stack, patch, window)
            assert series.n > 0 and series.gaps > 0
            assert_bitwise_per_row(series, assemble_per_row(make_system(), power, stack, patch, window))


def test_assemble_from_memory_mapped_stack_equals_per_row_join(tmp_path):
    stack, power = random_join_case(np.random.default_rng(15))
    write_hrv(tmp_path / "stack.hrv", stack)
    mapped = read_hrv(tmp_path / "stack.hrv", EPOCH)
    for patch in (1, 6, 12):
        series = assemble(make_system(), power, mapped, patch, (0, 600), sensor_max=900.0)
        assert_bitwise_per_row(series, assemble_per_row(make_system(), power, stack, patch, (0, 600), 900.0))


def test_assemble_empty_join_raises_before_checking_the_patch():
    power = make_power(np.arange(288), np.full(288, 50.0))
    with pytest.raises(EmptyDatasetError):
        assemble(make_system(), power, full_day_stack(), 0, (1000, 1100))
    every_row_out_of_range = make_power([0, 1, 2], [-1.0, np.nan, 1e9])
    with pytest.raises(EmptyDatasetError):
        assemble(make_system(), every_row_out_of_range, full_day_stack(), 0, (0, 288))


def test_assemble_rejects_patch_below_one_after_a_nonempty_join():
    power = make_power(np.arange(288), np.full(288, 50.0))
    with pytest.raises(ValueError, match="patch_px must be >= 1, got 0") as info:
        assemble(make_system(), power, full_day_stack(), 0, (0, 288))
    assert type(info.value) is ValueError


def test_assemble_rejects_patch_crossing_the_raster_edge():
    stack = make_stack(np.full((288, 4, 4), 10.0, dtype=np.float32), np.arange(288))
    power = make_power(np.arange(288), np.full(288, 50.0))
    with pytest.raises(CoverageError, match=r"12x12 patch at pixel \(2, 2\) crosses the raster edge \(4x4\)"):
        assemble(make_system(), power, stack, 12, (0, 288))


def test_frame_at_finds_only_stored_indices():
    stack = make_stack(np.arange(3, dtype=np.float32)[:, None, None] * np.ones((3, 2, 2)), [3, 7, 9])
    assert stack.frame_at(7)[0, 0] == 1.0 and stack.frame_at(9)[0, 0] == 2.0
    for missing in (0, 5, 8, 10):
        with pytest.raises(GapError, match=f"no HRV frame at time index {missing}"):
            stack.frame_at(missing)


# -- HRV container round trips -------------------------------------------------------


def test_hrv_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    stack = make_stack(rng.uniform(0, 1023, size=(5, 8, 8)).astype(np.float32), [0, 1, 2, 5, 9])
    path = tmp_path / "stack.hrv"
    write_hrv(path, stack)
    back = read_hrv(path, EPOCH)
    assert back.width == stack.width and back.height == stack.height
    assert back.pixel_size == stack.pixel_size
    assert back.origin_easting == stack.origin_easting
    assert np.array_equal(back.frame_indices, stack.frame_indices)
    assert np.array_equal(back.frames, stack.frames)


def test_hrv_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hrv"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValueError):
        read_hrv(path, EPOCH)


def random_stack(seed=3):
    rng = np.random.default_rng(seed)
    return make_stack(rng.uniform(0, 1023, size=(5, 8, 8)).astype(np.float32), [0, 1, 2, 5, 9])


def test_hrv_binary_read_write_read_round_trips_exactly(tmp_path):
    path = tmp_path / "stack.hrv"
    write_hrv(path, random_stack())
    first = read_hrv(path, EPOCH)
    copy = tmp_path / "copy.hrv"
    write_hrv(copy, first)
    assert copy.read_bytes() == path.read_bytes()
    second = read_hrv(copy, EPOCH)
    assert np.array_equal(second.frame_indices, first.frame_indices)
    assert np.array_equal(second.frames, first.frames)
    assert (second.origin_easting, second.origin_northing, second.pixel_size) == (
        first.origin_easting,
        first.origin_northing,
        first.pixel_size,
    )


def test_hrv_read_stack_survives_rewrite_of_its_path(tmp_path):
    path = tmp_path / "stack.hrv"
    original = random_stack(3)
    write_hrv(path, original)
    live = read_hrv(path, EPOCH)
    write_hrv(path, make_stack(np.zeros((1, 2, 2), dtype=np.float32), [0]))
    assert np.array_equal(live.frames, original.frames)
    assert np.array_equal(live.frame_indices, original.frame_indices)
    assert read_hrv(path, EPOCH).frames.shape == (1, 2, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stack.hrv"]


def test_hrv_frames_are_read_only(tmp_path):
    path = tmp_path / "stack.hrv"
    write_hrv(path, random_stack())
    stack = read_hrv(path, EPOCH)
    with pytest.raises(ValueError):
        stack.frames[0, 0, 0] = 1.0


def test_hrv_binary_truncation_names_first_missing_frame(tmp_path):
    path = tmp_path / "stack.hrv"
    write_hrv(path, random_stack())
    record = 8 + 8 * 8 * 4
    data = path.read_bytes()
    for keep, missing in ((5 * record - 1, 4), (3 * record, 3), (3 * record + 4, 3), (0, 0)):
        path.write_bytes(data[: len(data) - 5 * record + keep])
        with pytest.raises(ValueError, match=f"truncated frame {missing}$"):
            read_hrv(path, EPOCH)
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="truncated HRV header"):
        read_hrv(path, EPOCH)


def test_hrv_binary_off_grid_frame_names_first_bad_frame(tmp_path):
    path = tmp_path / "stack.hrv"
    write_hrv(path, random_stack())
    record = 8 + 8 * 8 * 4
    data = bytearray(path.read_bytes())
    header = len(data) - 5 * record
    t_s = int(EPOCH.timestamp()) + 5 * 300 + 7  # frame 3 moved off the 5-minute grid
    data[header + 3 * record : header + 3 * record + 8] = t_s.to_bytes(8, "little", signed=True)
    path.write_bytes(bytes(data))
    with pytest.raises(AlignmentError, match=f"frame 3 at {t_s}s is off the 5-minute grid"):
        read_hrv(path, EPOCH)
    # an off-grid frame before the truncation point is reported first, as before
    path.write_bytes(bytes(data[: header + 4 * record + 10]))
    with pytest.raises(AlignmentError, match="frame 3 at"):
        read_hrv(path, EPOCH)
