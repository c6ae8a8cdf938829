"""Smoke runs of the scripts in scripts/, as child processes."""

import os
import subprocess
import sys

import pytest

import stratint

SRC = os.path.dirname(os.path.dirname(stratint.__file__))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, args, header", [
    ("truncation_study.py", ["--n", "200", "--p-ref", "16", "--ladder", "1,2,4"],
     ["p", "mc", "mse", "law", "ratio"]),
    ("sde_orders.py", ["--n", "4", "--ladder", "8,16,32,64"],
     ["problem", "scheme", "slope", "rms", "by", "level"]),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == header
    assert len(lines) > 1
