"""Guard: the benchmark harness still measures every metric it declares.

The tracer keys its per-layer numbers on advalstm's function names, so a
rename inside the package can silently blank a traced metric.  The
harness's own tiny-size self-test catches that; run it as a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
