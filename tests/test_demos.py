"""Each demo runs cleanly and prints exactly its golden output.

The golden files under tests/data/demos/ hold each demo's stdout, so a change
that moves any printed value shows up here.  After an intended change of a
demo's output, rewrite its file from the demo's new stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_every_golden_file_has_its_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]
