"""The quick demos run to completion against this checkout's package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 04 and 05 train full models (several seconds each) and stay out of this suite
QUICK_DEMOS = ("01_reweighting_basics.py", "02_benchmark_tour.py", "03_gradient_machinery.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # -W error: pytest's own warning filter does not reach the subprocess
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
