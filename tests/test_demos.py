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
    if demo.name.startswith("03"):
        lines = [line.strip() for line in proc.stdout.splitlines()]
        assert "basis vector |011>" in lines
        assert "basis vector |100>" in lines
        assert "full spanning: True" in lines
        assert "ranks under all eight conjugations: [8, 8, 8, 8, 8, 8, 8, 8]" in lines
