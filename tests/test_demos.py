import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout
    if demo == "qutrit_orbits.py":
        # orbit_dimension is the unitary-orbit dimension n^2 - sum m_k^2
        assert "pure state         rank 1, unitary-orbit dimension 4" \
            in proc.stdout
