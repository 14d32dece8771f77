"""Generate a synthetic dataset bundle and push it through the ingestion pipeline."""

import tempfile
from pathlib import Path

import numpy as np

from pvgp.experiments import generate_synthetic
from pvgp.geotime import GeoPoint
from pvgp.pipeline import PvSystem, assemble, filter_systems, load_metadata, load_power, read_hrv

system = PvSystem(system_id=709, location=GeoPoint.from_latlon(51.5, -0.12), capacity_w=2460.0)
bundle = generate_synthetic("scattered", days=4, system=system, seed=3)

with tempfile.TemporaryDirectory(prefix="pvgp-demo-") as tmp:
    workdir = Path(tmp)
    paths = bundle.write(workdir)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")

    # read everything back through the real loaders
    load = load_metadata(paths["metadata"])
    power = load_power(paths["power"])
    stack = read_hrv(paths["hrv"], power.epoch_utc)
    print(f"\nloaded {len(load.systems)} system(s); power epoch {power.epoch_utc:%Y-%m-%d}")
    print(f"HRV stack: {stack.frame_indices.size} frames of {stack.width}x{stack.height} px")

    result = filter_systems(load.systems, power)
    print(f"filters kept {len(result.kept)}, removed {len(result.removed)}")

    series = assemble(result.kept[0], power, stack, patch_px=6, window=(0, 4 * 288))
    print(f"\nassembled {series.n} rows ({series.gaps} gaps) for system {series.system_id}")
    print("first daytime rows (index, cloud cover, power):")
    daytime = series.power_w > 0
    for t, h, p in list(zip(series.time_index[daytime], series.hrv_mean[daytime], series.power_w[daytime]))[:6]:
        print(f"  {t:5d}  {h:5.3f}  {p:8.1f} W")

    residual = series.power_w - bundle.clear_power[series.time_index]
    print(f"\ncloud cover vs clear-sky power deficit correlation: {np.corrcoef(series.hrv_mean, residual)[0, 1]:.3f}")
