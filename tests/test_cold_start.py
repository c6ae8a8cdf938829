"""Cold start: scipy.special loads on the first Gaussian draw, never before.

Each test runs a fresh interpreter, since the test process itself has long
loaded scipy.
"""

import json
import os
import subprocess
import sys

import numpy as np

import stratint
from test_rng import _reference

SRC = os.path.dirname(os.path.dirname(stratint.__file__))

_HEAD = """
import json, os, sys
loaded = lambda: "scipy.special" in sys.modules
"""


def _child(body: str):
    """Run `body` after _HEAD in a fresh interpreter; it prints one JSON value last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HEAD + body], capture_output=True,
                          env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_calls_that_never_draw_never_load_scipy_special():
    commands = [
        ["coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "16,16"],
        ["coeffs", "--basis", "trigonometric", "--exps", "1,0", "--orders", "8,8"],
        *(["verify", "--suite", s] for s in ("golden", "orthonormality", "partitions", "trace")),
    ]
    got = _child(f"""
import stratint.cli
steps = [("import stratint.cli", loaded(), 0)]
for argv in {commands!r}:
    rc = stratint.cli.main(argv + ["--out", os.devnull])
    steps.append((" ".join(argv), loaded(), rc))
print(json.dumps(steps))
""")
    assert [step[0] for step in got[1:]] == [" ".join(argv) for argv in commands]
    for name, was_loaded, rc in got:
        assert rc == 0, name
        assert not was_loaded, f"scipy.special loaded by {name}"


def test_first_draw_loads_scipy_special_and_keeps_values():
    got = _child("""
import stratint
before = loaded()
z = stratint.normal_stream(7, 3, 2, 64)
print(json.dumps({"before": before, "after": loaded(), "z": z.tobytes().hex()}))
""")
    assert not got["before"]
    assert got["after"]
    z = np.frombuffer(bytes.fromhex(got["z"]))
    assert z.tobytes() == _reference(7, 3, 2, 64).tobytes()


def test_first_draws_on_two_threads_keep_bytes():
    # the first draws of the process start together on two threads behind a
    # barrier, so both may reach the import of scipy.special in rng._normals
    got = _child("""
import threading
import stratint
barrier = threading.Barrier(2, timeout=60)
out = {}

def draw(stream):
    barrier.wait()
    out[stream] = stratint.normal_stream(11, stream, 2, 4096).tobytes()

before = loaded()
sys.setswitchinterval(1e-6)  # switch threads often while the first one imports
threads = [threading.Thread(target=draw, args=(s,)) for s in (0, 1)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
after = loaded()
sequential = [stratint.normal_stream(11, s, 2, 4096).tobytes() for s in (0, 1)]
print(json.dumps({"before": before, "after": after, "drawn": sorted(out),
                  "same": [out[s] == sequential[s] for s in (0, 1)]}))
""")
    assert not got["before"]
    assert got["after"]
    assert got["drawn"] == [0, 1]
    assert got["same"] == [True, True]
