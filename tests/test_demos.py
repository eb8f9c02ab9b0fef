"""The demos run unedited against the package in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    if demo.name.startswith("03"):
        assert "basis vector |011>" in lines
        assert "basis vector |100>" in lines
        assert "full spanning: True" in lines
        assert "ranks under all eight conjugations: [8, 8, 8, 8, 8, 8, 8, 8]" in lines
    if demo.name.startswith("05"):
        assert "certificate weights: [0.03125, 0.03125, 0.03125, 0.03125]" in lines
        verified = [line for line in lines if "decomposition (10 vectors) verified: True" in line]
        assert [line.split(":")[0] for line in verified] == [f"lambda = {lam}" for lam in (0.1, 0.5, 0.9)]
