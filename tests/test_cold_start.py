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


def test_first_draw_inside_thread_pool_keeps_bytes():
    # the first draw of the process happens inside sample_batch(threads=2)
    got = _child("""
from stratint import BasisKind, Interval, IntegralSpec, TruncationOrders, WeightSpec
from stratint import compute_tensor, sample_batch
from stratint.sampler import _BATCH_CHUNK
iv = Interval(0.5, 1.25)
spec = WeightSpec.from_exponents((0, 1))
ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=iv)
tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (6, 6))
args = ([ispec], [tensor], 2, [TruncationOrders.uniform(2, 6)], 11, 2 * _BATCH_CHUNK + 1)
before = loaded()
sys.setswitchinterval(1e-6)  # switch threads often while the first one imports
two = sample_batch(*args, threads=2)
sys.setswitchinterval(0.005)
one = sample_batch(*args, threads=1)
print(json.dumps({"before": before, "chunks": -(-args[-1] // _BATCH_CHUNK),
                  "same": two.tobytes() == one.tobytes()}))
""")
    assert not got["before"]
    assert got["chunks"] >= 2
    assert got["same"]
