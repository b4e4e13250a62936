"""Smoke test: every demo script runs cleanly against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.usefixtures("declared_scripts_on_path")
def test_cli_walkthrough_runs_cleanly(tmp_path):
    # the script runs the installed ``demandlab`` command on every bundled
    # scenario and writes into ``mktemp -d``, which TMPDIR keeps in tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(["sh", str(ROOT / "demos" / "cli_walkthrough.sh")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
