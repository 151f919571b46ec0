"""Smoke test: the library-level demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_data_pipeline.py",
        "02_model_anatomy.py",
        "03_adversarial_vs_normal.py",
        "04_robustness_under_attack.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # demo 01 writes its price files under a temp dir
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
