"""Smoke test: the demo scripts run to completion and print something.

Each demo runs in its own interpreter, as a user would start it; together
01-07 take about 3 s.  08_reduced_boson_budget.py is left out: it takes
about 21 s, nearly all of it in 40 dense `eigh` calls at D=1287 (N=6,
n_bos=8), because a projection step above 128 states projects densely up
to its dense limit, 4000 by default.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))


def test_demo_set_is_complete():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
