"""Every demo script runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvgp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(pvgp.__file__).resolve().parents[1])


def test_demo_list_is_not_empty():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write into their working directory; keep that out of the repository
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
