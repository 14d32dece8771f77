"""End-to-end CLI behaviour: subcommands, exit codes, file outputs."""

import copy
import datetime as dt
import json

import numpy as np
import pytest

from pvgp import cli, geotime, gp, kernels, pipeline
from pvgp import experiments as ex
from pvgp.cli import main, read_forecast_csv

KERNEL = "periodic(matern12; h=1.0, ls=[1.0, 1.0], w=1.0, T=288.0) + whitenoise(sigma2=0.01)"

# the documented default config; the CLI builds most of it from library defaults
DEFAULT_CONFIG = {
    "seed": 0,
    "jobs": 1,
    "paths": {"metadata": None, "power": None, "hrv": None, "output_dir": "pvgp-out"},
    "projection": {
        "central_scale": 0.9996012717,
        "false_easting_m": 400000.0,
        "false_northing_m": -100000.0,
        "origin_lat_deg": 49.0,
        "origin_lon_deg": -2.0,
        "semi_major_m": 6377563.396,
        "semi_minor_m": 6356256.909,
    },
    "boundary": {"min_easting": 0.0, "min_northing": 0.0, "max_easting": 700000.0, "max_northing": 1300000.0},
    "filters": {"night_elevation_deg": -5.0, "overnight_power_fraction": 0.01, "overnight_min_nights": 3},
    "hrv": {"sensor_max": 1023.0, "patch_px": 6},
    "kernel": KERNEL,
    "fit": {"restarts": 2, "max_iter": 200},
    "forecast": {"training_days": 1, "training_stride": 1, "refit": True},
    "experiment": {
        "protocol": "set_two",
        "systems": [],
        "forecast_start_index": None,
        "test_days": 1,
        "training_stride": 1,
        "refit": True,
        "set_one": {"training_days": [7, 14, 21, 30], "patch_px": [2, 6, 12], "kernel_bases": ["se", "rq", "matern12"]},
        "set_two": {"training_days": 21, "patch_px": [6, 12]},
        "custom": {"training_days": [1], "patch_px": [6], "kernels": [], "horizon_steps": 48, "cloud_modes": ["given"]},
    },
    "synth": {
        "scenario": "scattered",
        "days": 12,
        "start_date": "2021-06-01",
        "system_id": 1,
        "latitude": 51.5,
        "longitude": -0.12,
        "capacity_w": 3000.0,
        "cloud_attenuation": 0.9,
        "overcast_fraction": 1.0,
        "grid_px": 16,
        "pixel_size": 1000.0,
        "clear_sky_hrv": 0.08,
        "overcast_hrv": 0.85,
    },
    "invocation": None,
}


def write_config(path, **overrides):
    path.write_text(json.dumps(overrides), encoding="utf-8")
    return str(path)


def make_bundle(tmp_path, days=3, scenario="scattered", seed=4):
    data_dir = tmp_path / "data"
    cfg = write_config(tmp_path / "synth.json", synth={"days": days, "scenario": scenario})
    assert main(["synth", "--config", cfg, "--seed", str(seed), "--out", str(data_dir)]) == 0
    return {
        "metadata": str(data_dir / "metadata.csv"),
        "power": str(data_dir / "power.csv"),
        "hrv": str(data_dir / "hrv.bin"),
    }


def experiment_config(tmp_path, paths, **experiment_overrides):
    experiment = {
        "protocol": "custom",
        "test_days": 1,
        "training_stride": 4,
        "refit": True,
        "forecast_start_index": 288 + 120,
        "custom": {
            "training_days": [1],
            "patch_px": [6],
            "kernels": [KERNEL],
            "horizon_steps": 48,
            "cloud_modes": ["given", "persistence"],
        },
    }
    experiment.update(experiment_overrides)
    return write_config(
        tmp_path / "exp.json",
        paths={**paths, "output_dir": str(tmp_path / "out")},
        fit={"restarts": 1, "max_iter": 40},
        experiment=experiment,
    )


def test_synth_writes_bundle_and_effective_config(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    out = capsys.readouterr().out
    assert "metadata" in out and "hrv" in out
    effective = json.loads((tmp_path / "data" / "effective_config.json").read_text())
    assert effective["seed"] == 4
    assert effective["invocation"]["command"] == "synth"
    # the effective config is itself a loadable config
    reloaded = cli.load_config(tmp_path / "data" / "effective_config.json")
    assert reloaded["synth"]["days"] == 3


def test_ingest_summary_counts(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = write_config(tmp_path / "ingest.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "kept 1 system(s)" in out
    assert "removed 0 system(s)" in out
    assembled = tmp_path / "out" / "assembled_1_6px.csv"
    assert assembled.exists()
    assert assembled.read_text().splitlines()[0] == "time_index,timestamp_utc,hrv_mean,power_w"


def test_ingest_reports_removed_and_skipped(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    meta = tmp_path / "data" / "metadata.csv"
    with meta.open("a") as fh:
        fh.write("2,51.5,30.0,1000.0\n")  # far outside the UK boundary
        fh.write("3,52.0,0.5,\n")  # missing capacity
    assert main(["ingest", "--config", write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})]) == 0
    out = capsys.readouterr().out
    assert "removed 1 system(s)" in out
    assert "out-of-bounds" in out
    assert "skipped 1 metadata row(s)" in out


def test_ingest_reports_skipped_power_rows_by_file_line(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    power = tmp_path / "data" / "power.csv"
    lines = power.read_text().splitlines()
    # a blank line, a short row and six unparseable ones after the good rows
    bad = ["", "2021-06-13T00:00:00Z,1"] + [f"2021-06-13T00:00:00Z,1,x{k}" for k in range(6)]
    power.write_text("\n".join(lines + bad) + "\n")
    cfg = write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 0
    out = capsys.readouterr().out
    first = len(lines) + 2  # the short row, after the blank line
    assert "skipped 7 power row(s)" in out
    shown = [line for line in out.splitlines() if line.startswith("  line ")]
    assert [line.split(":")[0] for line in shown] == [f"  line {first + k}" for k in range(5)]


def test_ingest_skips_repeated_rows_and_keeps_the_first(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    clean = write_config(tmp_path / "clean.json", paths={**paths, "output_dir": str(tmp_path / "clean")})
    assert main(["ingest", "--config", clean]) == 0
    capsys.readouterr()
    meta, power = tmp_path / "data" / "metadata.csv", tmp_path / "data" / "power.csv"
    row = meta.read_text().splitlines()[1].split(",")
    with meta.open("a") as fh:
        fh.write(",".join(row[:-1] + ["1500.0"]) + "\n")  # system 1 again, at half its capacity
    lines = power.read_text().splitlines()
    when, sid, _ = lines[200].split(",")
    power.write_text("\n".join(lines + [f"{when},{sid},1.0"]) + "\n")
    cfg = write_config(tmp_path / "dup.json", paths={**paths, "output_dir": str(tmp_path / "dup")})
    assert main(["ingest", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "kept 1 system(s)" in out
    assert "skipped 1 metadata row(s)\n  line 3: duplicate system 1 (first on line 2)" in out, out
    assert f"  line {len(lines) + 1}: duplicate reading for system {sid} at " in out and "(first on line 201)" in out, out
    name = "assembled_1_6px.csv"
    assert (tmp_path / "dup" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_bom_prefixed_csvs_load_as_plain_ones(tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    paths = make_bundle(tmp_path)
    projection = geotime.TransverseMercator()
    plain = (pipeline.load_metadata(paths["metadata"], projection), pipeline.load_power(paths["power"]))
    for name in ("metadata", "power"):
        bom = tmp_path / "data" / f"bom_{name}.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "data" / f"{name}.csv").read_bytes())
        paths[name] = str(bom)
    meta = pipeline.load_metadata(paths["metadata"], projection)
    power = pipeline.load_power(paths["power"])
    assert [(s.system_id, s.location, s.capacity_w) for s in meta.systems] == [
        (s.system_id, s.location, s.capacity_w) for s in plain[0].systems
    ]
    assert meta.skipped == plain[0].skipped == []
    assert power.epoch_utc == plain[1].epoch_utc and power.skipped == plain[1].skipped
    assert power.series.keys() == plain[1].series.keys()
    for sid, (index, watts) in power.series.items():
        assert np.array_equal(index, plain[1].series[sid][0]) and np.array_equal(watts, plain[1].series[sid][1])
    cfg = write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 0
    assert "kept 1 system(s)" in capsys.readouterr().out


def test_a_csv_raster_exits_two_naming_the_file_before_any_output(tmp_path, capsys):
    # rasters are read as HRV1 only, whatever the file's suffix
    paths = make_bundle(tmp_path)
    hrv = tmp_path / "data" / "hrv.csv"
    hrv.write_text("t,px,py,value\n" + "".join(f"1622505600,{px},0,1.0\n" for px in range(16)))
    cfg = write_config(tmp_path / "i.json", paths={**paths, "hrv": str(hrv), "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{hrv}: bad magic" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["metadata.csv", "power.csv"])
def test_an_over_long_csv_field_exits_two_before_any_output(tmp_path, capsys, name):
    # csv.field_size_limit() is 131072 characters: the reader raises csv.Error past it
    paths = make_bundle(tmp_path)
    with (tmp_path / "data" / name).open("a") as fh:
        fh.write("9" * 200_000 + ",1,1,1\n")
    cfg = write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "field limit" in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def test_ingest_skips_a_power_stamp_before_the_calendar(tmp_path, capsys):
    # in UTC the stamp falls in year 0, which datetime cannot hold
    paths = make_bundle(tmp_path)
    power = tmp_path / "data" / "power.csv"
    lines = power.read_text().splitlines()
    power.write_text("\n".join(lines + ["0001-01-01T00:00:00+01:00,1,2.0"]) + "\n")
    cfg = write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert f"skipped 1 power row(s)\n  line {len(lines) + 1}: date value out of range" in out, out
    assert (tmp_path / "out" / "assembled_1_6px.csv").exists()


def test_missing_file_exits_two(tmp_path, capsys):
    paths = {"metadata": str(tmp_path / "nope.csv"), "power": "x", "hrv": "y", "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "c.json", paths=paths)
    assert main(["ingest", "--config", cfg]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_failed_ingest_leaves_no_output(tmp_path, capsys):
    paths = {"metadata": str(tmp_path / "nope.csv"), "power": "x", "hrv": "y", "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "c.json", paths=paths)
    assert main(["ingest", "--config", cfg]) == 2
    assert not (tmp_path / "out" / "effective_config.json").exists()
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", wibble=1)
    assert main(["ingest", "--config", cfg]) == 2
    assert "wibble" in capsys.readouterr().err


def test_config_value_of_the_wrong_type_exits_two_naming_its_key(tmp_path, capsys):
    out = str(tmp_path / "out")
    cases = [
        ({"jobs": "2"}, "'jobs'"),
        ({"experiment": {"test_days": "3"}}, "'experiment.test_days'"),
        ({"projection": 5}, "config section projection must be an object"),
        ({"boundary": 5}, "config section boundary must be an object"),
        ({"projection": {"central_scale": None}}, "'projection.central_scale' must be float, got NoneType"),
        ({"projection": {"central_scale": "0.9996"}}, "'projection.central_scale' must be float, got str"),
        ({"projection": {"foo": 1.0}}, "unknown config key 'projection.foo'"),
    ]
    for overrides, named in cases:
        cfg = write_config(tmp_path / "c.json", paths={"output_dir": out}, **overrides)
        assert main(["experiment", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
    assert not (tmp_path / "out").exists()
    # a section's missing keys keep their defaults, and an integer stands for a float
    cfg = write_config(tmp_path / "c.json", projection={"origin_lon_deg": -3})
    assert cli.load_config(cfg)["projection"] == {**DEFAULT_CONFIG["projection"], "origin_lon_deg": -3}


def test_config_list_entry_of_the_wrong_type_exits_two_naming_its_key(tmp_path, capsys):
    out = str(tmp_path / "out")
    cases = [
        ({"custom": {"kernels": [5]}}, "'experiment.custom.kernels' entry 0"),
        ({"set_one": {"training_days": ["7"]}}, "'experiment.set_one.training_days' entry 0"),
        ({"systems": [1, "a"]}, "'experiment.systems' entry 1"),
    ]
    for experiment, named in cases:
        cfg = write_config(tmp_path / "c.json", paths={"output_dir": out}, experiment=experiment)
        assert main(["experiment", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
    assert not (tmp_path / "out").exists()


def test_config_key_with_a_null_default_exits_two_naming_its_key_on_a_value_of_the_wrong_type(tmp_path, capsys):
    out = str(tmp_path / "out")
    cases = [
        ({"paths": {"metadata": 5}}, "'paths.metadata'"),
        ({"paths": {"power": ["p.csv"]}}, "'paths.power'"),
        ({"paths": {"hrv": {"file": "h.csv"}}}, "'paths.hrv'"),
        ({"experiment": {"forecast_start_index": "x"}}, "'experiment.forecast_start_index'"),
        ({"experiment": {"forecast_start_index": 2.7}}, "'experiment.forecast_start_index'"),
    ]
    for overrides, named in cases:
        overrides.setdefault("paths", {})["output_dir"] = out
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main(["experiment", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
    assert not (tmp_path / "out").exists()
    # null stays allowed
    cfg = write_config(tmp_path / "c.json", paths={"metadata": None})
    assert cli.load_config(cfg)["paths"]["metadata"] is None


def test_empty_training_days_exits_two_naming_its_key(tmp_path, capsys):
    # with no forecast_start_index the first launch follows the longest training period
    paths = make_bundle(tmp_path)
    experiment = {"protocol": "set_one", "set_one": {"training_days": []}}
    cfg = write_config(tmp_path / "c.json", paths={**paths, "output_dir": str(tmp_path / "out")}, experiment=experiment)
    assert main(["experiment", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'experiment.set_one.training_days'" in err, err
    assert not (tmp_path / "out").exists()


def test_jobs_below_one_exits_two_naming_its_key(tmp_path, capsys):
    out = str(tmp_path / "out")
    runs = [
        ["--config", write_config(tmp_path / "c.json", paths={"output_dir": out}, jobs=-4)],
        ["--config", write_config(tmp_path / "d.json", paths={"output_dir": out}), "--jobs", "0"],
    ]
    for args in runs:
        assert main(["experiment", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'jobs'" in err, err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_two_naming_its_key(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    doc = {"paths": {**paths, "output_dir": str(out)}, "fit": {"restarts": 1, "max_iter": 40}}
    runs = [
        ["experiment", "--config", write_config(tmp_path / "c.json", **doc), "--seed", "-1"],
        ["experiment", "--config", write_config(tmp_path / "d.json", **doc, seed=-3)],
        ["fit", "--system", "1", "--config", write_config(tmp_path / "c.json", **doc), "--seed", "-1"],
        ["synth", "--config", write_config(tmp_path / "c.json", **doc), "--seed", "-1"],
    ]
    for args in runs:
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed'" in err and "got -" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("experiment", "fit", "restarts", 0),
        ("fit", "fit", "max_iter", -3),
        ("fit", "forecast", "training_stride", 0),
        ("fit", "forecast", "training_days", 0),
        ("forecast", "forecast", "training_stride", 0),
        ("forecast", "forecast", "training_days", -2),
        ("experiment", "experiment", "test_days", 0),
    ],
)
def test_out_of_range_fit_or_window_value_exits_two_naming_its_key(tmp_path, capsys, command, section, key, value):
    paths = make_bundle(tmp_path)
    doc = {
        "paths": {**paths, "output_dir": str(tmp_path / "out")},
        "fit": {"restarts": 1, "max_iter": 40},
        "forecast": {"training_days": 1, "training_stride": 4},
        "experiment": {},
    }
    doc[section][key] = value
    args = {"fit": ["--system", "1"], "forecast": ["--system", "1", "--start", "2021-06-02T10:00:00Z"]}.get(command, [])
    assert main([command, "--config", write_config(tmp_path / "c.json", **doc), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and f"got {value}" in err, err
    assert not (tmp_path / "out").exists()


def test_negative_forecast_start_exits_two_naming_its_key(tmp_path, capsys):
    # a start before the data's first step has no training window: every cell would fail
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    doc = {"paths": {**paths, "output_dir": str(out)}, "fit": {"restarts": 1, "max_iter": 40}}
    runs = [
        (["experiment"], {"experiment": {"forecast_start_index": -500}}, ["experiment.forecast_start_index", "got -500"]),
        (["forecast", "--system", "1", "--start", "2021-05-31T10:00:00Z"], {}, ["--start 2021-05-31T10:00:00Z", "-168"]),
    ]
    for args, extra, named in runs:
        assert main([*args, "--config", write_config(tmp_path / "c.json", **doc, **extra)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(word in err for word in named), err
    assert not out.exists()


def test_forecast_start_outside_the_calendar_exits_two_naming_it(tmp_path, capsys):
    # in UTC each start leaves years 1-9999
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", paths={**paths, "output_dir": str(out)})
    for start in ("0001-01-01T00:00:00+01:00", "9999-12-31T23:55:00-01:00"):
        assert main(["forecast", "--config", cfg, "--system", "1", "--start", start]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --start {start}:") and "out of range" in err, err
    assert not out.exists()


def test_synth_past_the_calendar_exits_two_naming_days_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", synth={"start_date": "9999-12-25", "days": 12})
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: days must end the bundle on or before 9999-12-31, got 12 days from 9999-12-25"), err
    assert not out.exists()
    # the last step, not the day after it, must be in the calendar
    system = pipeline.PvSystem(system_id=1, location=geotime.GeoPoint.from_latlon(51.5, -0.12), capacity_w=3000.0)
    start = dt.datetime(9999, 12, 25, tzinfo=dt.timezone.utc)
    bundle = ex.generate_synthetic("clear-sky", 7, system, seed=0, start_utc=start)
    assert geotime.index_to_iso(7 * 288 - 1, bundle.power.epoch_utc) == "9999-12-31T23:55:00Z"
    with pytest.raises(ValueError, match="days must end the bundle"):
        ex.generate_synthetic("clear-sky", 8, system, seed=0, start_utc=start)


@pytest.mark.parametrize("start_date", ["2021-06-01T23:00:00-05:00", "2021-06-01T00:00:00", "2021-06-01 12:00"])
def test_synth_start_date_with_a_time_or_offset_exits_two_naming_it(tmp_path, capsys, start_date):
    # a datetime's time and offset would be dropped, moving the bundle silently
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", synth={"start_date": start_date})
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'synth.start_date'" in err and repr(start_date) in err, err
    assert not out.exists()


def test_optimize_period_config_key_exits_two_naming_it(tmp_path, capsys):
    # the period is a constant of the kernel: no fit frees it, so the key is gone
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", paths={**paths, "output_dir": str(out)}, fit={"optimize_period": True})
    for args in (["fit", "--system", "1"], ["forecast", "--system", "1", "--start", "2021-06-02T10:00:00Z"], ["experiment"]):
        assert main([*args, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'fit.optimize_period'" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "geometry", [None, {"origin_easting": 0.0, "origin_northing": 0.0, "pixel_size": 1000.0, "width": 16, "height": 16}]
)
def test_csv_geometry_config_key_exits_two_naming_it(tmp_path, capsys, geometry):
    # rasters are HRV1 only, so the CSV raster's geometry is gone, null included
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", paths={**paths, "output_dir": str(out)}, hrv={"csv_geometry": geometry})
    for args in (["ingest"], ["fit", "--system", "1"], ["experiment"]):
        assert main([*args, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'hrv.csv_geometry'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("sensor_max", [0, -1023.0])
def test_sensor_max_that_is_not_positive_exits_two_naming_it_before_any_output(tmp_path, capsys, sensor_max):
    # a patch mean is divided by it: 0 gives a cloud-blind forecast with every hrv_mean 1.0
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    doc = {"paths": {**paths, "output_dir": str(out)}, "hrv": {"sensor_max": sensor_max}, "experiment": {"test_days": 1}}
    cfg = write_config(tmp_path / "c.json", **doc)
    commands = [
        ["ingest"],
        ["synth"],
        ["fit", "--system", "1"],
        ["forecast", "--system", "1", "--start", "2021-06-02T10:00:00Z"],
        ["experiment"],
    ]
    for args in commands:
        assert main([*args, "--config", cfg]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sensor_max" in err, (args, err)
    assert not out.exists()


def test_kernel_with_an_infinite_period_exits_two_naming_it(tmp_path, capsys):
    # T = inf makes the time factor 1 everywhere; no fit would correct it
    paths = make_bundle(tmp_path)
    out = tmp_path / "out"
    kernel = "periodic(matern12; h=500.0, ls=[1.0, 0.3], w=1.0, T=inf) + whitenoise(sigma2=100.0)"
    forecast = {"training_days": 1, "training_stride": 6, "refit": False}
    cfg = write_config(tmp_path / "c.json", paths={**paths, "output_dir": str(out)}, kernel=kernel, forecast=forecast)
    for args in (["fit", "--system", "1"], ["forecast", "--system", "1", "--start", "2021-06-02T10:00:00Z"]):
        assert main([*args, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "period T" in err and "inf" in err, err
    assert not out.exists()


def test_repeated_experiment_system_exits_two_naming_it(tmp_path, capsys):
    # a repeated id would run each launch twice and double the box-plot samples
    paths = make_bundle(tmp_path)
    cfg = experiment_config(tmp_path, paths, systems=[1, 1])
    assert main(["experiment", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "system 1 more than once" in err, err
    assert not (tmp_path / "out").exists()


def test_experiment_prepares_only_the_systems_it_runs(tmp_path, capsys):
    # system 2 has a metadata row and no power rows: a grid of system 1 alone never assembles it
    paths = make_bundle(tmp_path)
    with open(paths["metadata"], "a") as fh:
        fh.write("2,51.6,-0.1,3000.0\n")
    cfg = experiment_config(tmp_path, paths, systems=[1])
    assert main(["experiment", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(list(row["per_system"]), row["failures"]) for row in report["rows"]] == [(["1"], {})] * 2


def test_ingest_removes_a_system_with_no_power_rows(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    with open(paths["metadata"], "a") as fh:
        fh.write("2,51.6,-0.1,3000.0\n")
    cfg = write_config(tmp_path / "i.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    assert main(["ingest", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "kept 1 system(s)" in out and "  system 2: no-power (no power rows)" in out, out
    assert sorted(p.name for p in (tmp_path / "out").glob("assembled_*")) == ["assembled_1_6px.csv"]


def test_experiment_of_every_kept_system_leaves_out_one_with_no_power_rows(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    with open(paths["metadata"], "a") as fh:
        fh.write("2,51.6,-0.1,3000.0\n")
    cfg = experiment_config(tmp_path, paths, systems=[])
    assert main(["experiment", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(list(row["per_system"]), row["failures"]) for row in report["rows"]] == [(["1"], {})] * 2


def test_unknown_experiment_system_exits_two_naming_it(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = experiment_config(tmp_path, paths, systems=[1, 9])
    assert main(["experiment", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'experiment.systems'" in err and "system 9" in err, err
    assert not (tmp_path / "out").exists()


def test_forecast_writes_48_rows_and_round_trips(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = write_config(
        tmp_path / "fc.json",
        paths={**paths, "output_dir": str(tmp_path / "out")},
        forecast={"training_days": 1, "training_stride": 3, "refit": True},
        fit={"restarts": 1, "max_iter": 40},
    )
    rc = main(["forecast", "--config", cfg, "--system", "1", "--start", "2021-06-02T10:00:00Z", "--horizon", "4h"])
    assert rc == 0
    path = tmp_path / "out" / "forecast_1_408.csv"
    times, means, sds = read_forecast_csv(path)
    assert times.size == 48
    assert np.array_equal(times, np.arange(408, 456))
    assert np.all(means >= 0.0) and np.all(sds >= 0.0)


def test_forecast_unknown_system_exits_two(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = write_config(tmp_path / "fc.json", paths={**paths, "output_dir": str(tmp_path / "out")})
    rc = main(["forecast", "--config", cfg, "--system", "99", "--start", "2021-06-02T10:00:00Z"])
    assert rc == 2
    assert "99" in capsys.readouterr().err


def test_fit_outputs_parseable_kernel(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = write_config(
        tmp_path / "fit.json",
        paths={**paths, "output_dir": str(tmp_path / "out")},
        forecast={"training_days": 1, "training_stride": 4, "refit": True},
        fit={"restarts": 1, "max_iter": 40},
    )
    capsys.readouterr()  # drop the synth output
    assert main(["fit", "--config", cfg, "--system", "1"]) == 0
    out = capsys.readouterr().out
    from pvgp import kernels

    fitted = kernels.parse(out.splitlines()[0])
    assert fitted.family == "periodic"


def test_fit_bad_kernel_argument_exits_two(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    for kernel, key in [
        ("periodic(rq; h=1.0, ls=[1.0, 1.0], alpha=[2.0], w=1.0, T=288.0)", "'alpha'"),
        ("periodic(matern12; h=1.0, lenscales=[1.0, 1.0], w=1.0, T=288.0)", "'lenscales'"),
    ]:
        cfg = write_config(tmp_path / "fit.json", paths={**paths, "output_dir": str(tmp_path / "out")}, kernel=kernel)
        capsys.readouterr()
        assert main(["fit", "--config", cfg, "--system", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()


def test_fit_kernel_with_overflowing_amplitude_exits_two(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    kernel = "periodic(matern12; h=1e200, ls=[1.0, 1.0], w=1.0, T=288.0) + whitenoise(sigma2=0.01)"
    cfg = write_config(tmp_path / "fit.json", paths={**paths, "output_dir": str(tmp_path / "out")}, kernel=kernel)
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--system", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "amplitude h" in err


def test_fit_conditions_on_the_daylight_rows_of_its_window(tmp_path, capsys, monkeypatch):
    paths = make_bundle(tmp_path, days=3)
    cfg = write_config(
        tmp_path / "fit.json",
        paths={**paths, "output_dir": str(tmp_path / "out")},
        forecast={"training_days": 1, "training_stride": 4, "refit": True},
        fit={"restarts": 1, "max_iter": 40},
    )
    seen = []
    real_fit = gp.fit_hyperparameters

    def record(train, spec, **kw):
        seen.append((train, spec))
        return real_fit(train, spec, **kw)

    monkeypatch.setattr(gp, "fit_hyperparameters", record)
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--system", "1"]) == 0
    # the last day of the bundle (2021-06-03 UTC), thinned from its start
    thinned = np.arange(2 * 288, 3 * 288, 4)
    seconds = dt.datetime(2021, 6, 1, tzinfo=dt.timezone.utc).timestamp() + thinned * 300.0
    day = np.asarray(geotime.solar_elevation_deg(51.5, -0.12, seconds)) > 0.0
    assert 0 < day.sum() < thinned.size
    [(train, template)] = seen
    assert np.array_equal(train.inputs[:, 0], thinned[day].astype(float))
    assert f"({day.sum()} training rows)" in capsys.readouterr().out
    # and starts where a launch on those rows starts: the kernel re-anchored to their scale
    assert template == ex._anchor_template(kernels.parse(KERNEL), train)


def test_experiment_deterministic_and_reports_ordering(tmp_path, capsys):
    paths = make_bundle(tmp_path, days=3)
    cfg = experiment_config(tmp_path, paths)
    assert main(["experiment", "--config", cfg, "--seed", "3"]) == 0
    out1 = {name: (tmp_path / "out" / name).read_bytes() for name in
            ["report.csv", "report.txt", "report.json", "boxplot_by_day.csv", "boxplot_by_system.csv"]}
    report = json.loads(out1["report.json"])
    by_mode = {row["config"]["cloud_mode"]: row["average"] for row in report["rows"]}
    assert by_mode["given"] < by_mode["persistence"]

    assert main(["experiment", "--config", cfg, "--seed", "3"]) == 0
    out2 = {name: (tmp_path / "out" / name).read_bytes() for name in out1}
    assert out1 == out2


def test_experiment_empty_grid_exits_two(tmp_path, capsys):
    paths = make_bundle(tmp_path)
    cfg = experiment_config(tmp_path, paths, custom={"training_days": [1], "patch_px": [6], "kernels": [],
                                                     "horizon_steps": 48, "cloud_modes": ["given"]})
    assert main(["experiment", "--config", cfg]) == 2
    assert "kernels" in capsys.readouterr().err


def test_report_rerenders_from_json(tmp_path, capsys):
    paths = make_bundle(tmp_path, days=3)
    cfg = experiment_config(tmp_path, paths)
    assert main(["experiment", "--config", cfg]) == 0
    report_json = tmp_path / "out" / "report.json"
    original_csv = (tmp_path / "out" / "report.csv").read_bytes()
    rc = main(["report", "--config", cfg, "--report", str(report_json), "--out", str(tmp_path / "out2")])
    assert rc == 0
    assert (tmp_path / "out2" / "report.csv").read_bytes() == original_csv


def test_default_config_is_pinned():
    loaded = cli.load_config(None)
    assert json.dumps(loaded, sort_keys=True) == json.dumps(DEFAULT_CONFIG, sort_keys=True)
    assert loaded == DEFAULT_CONFIG


def test_build_grid_gives_protocol_layouts():
    texts = {
        "periodic(matern12)": KERNEL,
        "periodic(se)": "periodic(se; h=1.0, ls=[1.0, 1.0], w=1.0, T=288.0) + whitenoise(sigma2=0.01)",
        "periodic(rq)": "periodic(rq; h=1.0, ls=[1.0, 1.0], alpha=2.0, w=1.0, T=288.0) + whitenoise(sigma2=0.01)",
    }

    def grid(**experiment):
        cfg = cli.load_config(None)
        cfg["experiment"].update(experiment)
        return [c.to_jsonable() for c in cli._build_grid(cfg, [1, 3])]

    def rows(layout, horizon, start, systems=(1, 3), test_days=1, stride=1, refit=True):
        return [
            {"training_days": days, "patch_px": patch, "kernel": texts.get(kernel, kernel), "horizon_steps": horizon,
             "cloud_mode": mode, "forecast_start": start, "system_ids": list(systems), "test_days": test_days,
             "training_stride": stride, "refit": refit}
            for days, patch, kernel, mode in layout
        ]

    m12 = "periodic(matern12)"
    assert grid(protocol="set_one") == rows(
        [(7, 2, m12, "given"), (14, 2, m12, "given"), (21, 2, m12, "given"), (30, 2, m12, "given"),
         (21, 2, m12, "given"), (21, 6, m12, "given"), (21, 12, m12, "given"),
         (21, 2, "periodic(se)", "given"), (21, 2, "periodic(rq)", "given"), (21, 2, m12, "given")],
        576, 30 * 288,
    )
    assert grid(protocol="set_two") == rows(
        [(21, 6, m12, "given"), (21, 6, m12, "persistence"), (21, 12, m12, "given"), (21, 12, m12, "persistence")],
        48, 21 * 288,
    )
    se = "se(h=1.0, ls=[3.0, 0.2])"
    custom = {"training_days": [1, 2], "patch_px": [6, 12], "kernels": [KERNEL, se], "horizon_steps": 48,
              "cloud_modes": ["given", "persistence"]}
    assert grid(protocol="custom", systems=[3, 1], test_days=2, training_stride=4, refit=False, custom=custom) == rows(
        [(days, patch, kernel, mode) for days in (1, 2) for patch in (6, 12) for kernel in (KERNEL, se)
         for mode in ("given", "persistence")],
        48, 2 * 288, systems=(3, 1), test_days=2, stride=4, refit=False,
    )


def test_report_names_bad_row_config_keys(tmp_path, capsys):
    config = ex.ExperimentConfig(
        training_days=1, patch_px=6, kernel=ex.default_kernel(), horizon_steps=48, cloud_mode="given",
        forecast_start=408, system_ids=(1,),
    )
    payload = json.loads(ex.ExperimentReport([ex.ReportRow(config, {1: 10.0}, {})], [(0, 1, 0, 10.0)], seed=0).to_json())
    bad_rows = {"'wibble'": dict(payload["rows"][0]["config"], wibble=1)}
    bad_rows["'kernel'"] = {k: v for k, v in payload["rows"][0]["config"].items() if k != "kernel"}
    for key, row_config in bad_rows.items():
        broken = copy.deepcopy(payload)
        broken["rows"][0]["config"] = row_config
        path = tmp_path / "report.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and ("unknown" if key == "'wibble'" else "missing") in err


def test_report_names_a_non_integer_row_config_field(tmp_path, capsys):
    config = ex.ExperimentConfig(
        training_days=1, patch_px=6, kernel=ex.default_kernel(), horizon_steps=48, cloud_mode="given",
        forecast_start=408, system_ids=(1,),
    )
    payload = json.loads(ex.ExperimentReport([ex.ReportRow(config, {1: 10.0}, {})], [(0, 1, 0, 10.0)], seed=0).to_json())
    for key, value in (("training_days", True), ("patch_px", 6.0), ("refit", 1)):
        broken = copy.deepcopy(payload)
        broken["rows"][0]["config"][key] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report document: row 0:") and f"{key} must be" in err
    assert not (tmp_path / "out").exists()


def test_report_names_a_negative_row_forecast_start(tmp_path, capsys):
    config = ex.ExperimentConfig(
        training_days=1, patch_px=6, kernel=ex.default_kernel(), horizon_steps=48, cloud_mode="given",
        forecast_start=408, system_ids=(1,),
    )
    payload = json.loads(ex.ExperimentReport([ex.ReportRow(config, {1: 10.0}, {})], [(0, 1, 0, 10.0)], seed=0).to_json())
    payload["rows"][0]["config"]["forecast_start"] = -5
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report document: row 0:") and "forecast_start must be >= 0, got -5" in err
    assert not (tmp_path / "out").exists()


def test_report_names_missing_top_level_keys(tmp_path, capsys):
    cases = [({"seed": 0, "samples": []}, "['rows']"), ({}, "['rows', 'samples', 'seed']"), ([], "a JSON object")]
    # a malformed row or sample is named by its index and the missing key or wrong shape
    cases += [
        ({"seed": 0, "samples": [], "rows": 5}, "'rows' and 'samples' must be lists and 'seed' an integer"),
        ({"seed": "0", "samples": [], "rows": []}, "'rows' and 'samples' must be lists and 'seed' an integer"),
        ({"seed": 0, "samples": [], "rows": [5]}, "row 0: expected a JSON object, got int"),
        ({"seed": 0, "samples": [], "rows": [{"config": {}, "failures": {}}]}, "row 0: missing key(s) ['per_system']"),
        ({"seed": 0, "samples": [], "rows": [{"config": {}, "per_system": [], "failures": {}}]}, "row 0 per_system: expected"),
        ({"seed": 0, "samples": [[0, 1]], "rows": []}, "sample 0: expected [config index, system, day, mae], got [0, 1]"),
        ({"seed": 0, "samples": [[0, 1, 2, 3.0], [0, 1, 2, "x"]], "rows": []}, "sample 1: could not convert"),
    ]
    for payload, named in cases:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report document") and named in err
    assert not (tmp_path / "out").exists()
