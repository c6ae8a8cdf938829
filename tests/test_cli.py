"""Command-line interface: outputs, exit codes, reproducibility."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import truncation_law

import stratint
from stratint import cli, coefficients

BIN = [sys.executable, "-m", "stratint.cli"]
# The child process imports the same package as the tests, installed or not.
SRC = os.path.dirname(os.path.dirname(stratint.__file__))


def run(*args, env=None, check=True):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    proc = subprocess.run(
        BIN + list(args), capture_output=True, env=full_env, text=False
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}"
        )
    return proc


def test_coeffs_csv_golden_row():
    out = run("coeffs", "--basis", "legendre", "--exps", "0,0",
              "--interval", "0", "1", "--orders", "2,2").stdout.decode()
    lines = out.strip().splitlines()
    assert lines[0] == "j_1,j_2,value"
    table = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
    assert table[("0", "0")] == pytest.approx(0.5, abs=1e-14)
    assert table[("0", "1")] == pytest.approx(0.5 / np.sqrt(3.0), abs=1e-12)
    assert table[("1", "0")] == pytest.approx(-0.5 / np.sqrt(3.0), abs=1e-12)
    assert table[("1", "1")] == 0.0


def test_coeffs_json_metadata():
    out = run("coeffs", "--basis", "legendre", "--exps", "1",
              "--orders", "3", "--format", "json", "--seed", "9").stdout
    doc = json.loads(out)
    assert doc["columns"] == ["j_1", "value"]
    assert doc["metadata"]["seed"] == 9
    assert "version" in doc["metadata"]
    assert doc["metadata"]["flags"]["basis"] == "legendre"
    assert len(doc["rows"]) == 4


def test_coeffs_cache_reuse(tmp_path):
    cache = os.fspath(tmp_path / "t.stcf")
    first = run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
                "--orders", "8,8", "--cache", cache).stdout
    stamp, blob = os.stat(cache), open(cache, "rb").read()
    second = run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
                 "--orders", "8,8", "--cache", cache).stdout
    out = os.fspath(tmp_path / "o.csv")
    run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
        "--orders", "8,8", "--cache", cache, "--out", out)
    assert first == second == open(out, "rb").read()
    # untouched on a hit, to stdout or to --out
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (stamp.st_ino, stamp.st_mtime_ns)
    assert open(cache, "rb").read() == blob
    # changed parameters replace the stale file instead of failing
    third = run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
                "--orders", "9,9", "--cache", cache)
    assert third.returncode == 0
    assert os.stat(cache).st_mtime_ns != stamp.st_mtime_ns


def test_coeffs_rebuilds_a_cache_with_a_non_finite_payload(tmp_path):
    # the NaN was printed as "2,2,nan" with exit 0
    cache = os.fspath(tmp_path / "t.stcf")
    argv = ("coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "2")
    fresh = run(*argv).stdout
    assert run(*argv, "--cache", cache).stdout == fresh
    blob = open(cache, "rb").read()
    last = len(blob) - len(fresh) - 16  # the payload's last float64, before the text length
    with open(cache, "wb") as fh:
        fh.write(blob[:last] + struct.pack("<d", float("nan")) + blob[last + 8:])
    proc = run(*argv, "--cache", cache)
    assert proc.stdout == fresh and proc.stderr == b""
    assert open(cache, "rb").read() == blob  # the rebuilt tensor replaced the file


def test_coeffs_rebuilds_a_version_1_cache(tmp_path):
    # versions 1 and 2 stored collocated trigonometric tensors, with rounding
    # noise where the closed form now writes 0 (version 1 everywhere, version 2
    # where its zero rule missed); a hit on such a file would print other bytes
    kind, spec = stratint.BasisKind.TRIGONOMETRIC, stratint.WeightSpec.from_exponents((0, 0))
    iv, orders = stratint.Interval(0.0, 1.0), (8, 8)
    cache = os.fspath(tmp_path / "t.stcf")
    argv = ("coeffs", "--basis", "trigonometric", "--exps", "0,0", "--orders", "8")
    fresh = run(*argv).stdout
    exact = stratint.compute_tensor(kind, spec, iv, orders).data
    noisy = np.where(exact == 0.0, 1e-17, exact)
    for version in (1, 2):
        stratint.cache_store(cache, stratint.CoeffTensor(kind, spec, iv, orders, noisy))
        blob = open(cache, "rb").read()
        with open(cache, "wb") as fh:
            fh.write(blob[:4] + struct.pack("<I", version) + blob[8:])
        proc = run(*argv, "--cache", cache)
        assert proc.stdout == fresh and proc.stderr == b""
        stored = struct.unpack_from("<I", open(cache, "rb").read(), 4)
        assert stored == (coefficients._CACHE_VERSION,)
        assert run(*argv, "--cache", cache).stdout == fresh  # and the rebuilt file is a hit


# The Legendre (1, 0) box of orders 2 on [0, 1] as version 3 stored it, from one
# phi_matrix per level at 7 Gauss nodes; each value differs from today's 4-node
# build in its last bits
_VERSION_3_LEGENDRE = [
    -0.16666666666666669, -0.14433756729740643, -0.03726779962499644,
    2.0479023586137547e-17, -0.04999999999999998, -0.06454972243679026,
    0.07453559924999303, 0.06454972243679032, -0.011904761904761911,
]


def test_coeffs_rebuilds_a_version_3_legendre_cache(tmp_path):
    # a hit on the old engine's file would print its bytes, not the cold ones
    kind, spec = stratint.BasisKind.LEGENDRE, stratint.WeightSpec.from_exponents((1, 0))
    iv, orders = stratint.Interval(0.0, 1.0), (2, 2)
    cache = os.fspath(tmp_path / "t.stcf")
    argv = ("coeffs", "--basis", "legendre", "--exps", "1,0", "--orders", "2")
    fresh = run(*argv).stdout
    old = np.array(_VERSION_3_LEGENDRE).reshape(3, 3)
    assert not np.any(old == stratint.compute_tensor(kind, spec, iv, orders).data)
    stratint.cache_store(cache, stratint.CoeffTensor(kind, spec, iv, orders, old))
    blob = open(cache, "rb").read()
    with open(cache, "wb") as fh:
        fh.write(blob[:4] + struct.pack("<I", 3) + blob[8:])
    proc = run(*argv, "--cache", cache)
    assert proc.stdout == fresh and proc.stderr == b""
    assert struct.unpack_from("<I", open(cache, "rb").read(), 4) == (coefficients._CACHE_VERSION,)
    assert run(*argv, "--cache", cache).stdout == fresh  # and the rebuilt file is a hit


# the o=128 text spans three copy chunks, so a damaged last chunk is found
# only when every chunk is checked before the first is printed
@pytest.mark.parametrize("damage", ["truncated", "over-long", "not ASCII"])
def test_coeffs_rebuilds_a_cache_with_a_damaged_text(tmp_path, damage):
    cache = os.fspath(tmp_path / "t.stcf")
    argv = ("coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "128")
    fresh = run(*argv).stdout
    assert len(fresh) > 2 * coefficients._TEXT_CHUNK
    assert run(*argv, "--cache", cache).stdout == fresh
    blob = open(cache, "rb").read()
    assert blob.endswith(fresh)
    damaged = {"truncated": blob[:-1], "over-long": blob + b"0\r\n",
               "not ASCII": blob[:-4] + b"\xe9" + blob[-3:]}[damage]
    with open(cache, "wb") as fh:
        fh.write(damaged)
    proc = run(*argv, "--cache", cache)
    assert proc.stdout == fresh and proc.stderr == b""
    assert open(cache, "rb").read() == blob  # rebuilt


def test_coeffs_csv_hit_on_a_file_without_text(tmp_path):
    # a JSON miss, and cache_store without a text, store no CSV: a CSV hit on
    # such a file prints the loaded tensor and leaves the file as it is
    argv = ("coeffs", "--basis", "trigonometric", "--exps", "1,0", "--orders", "6",
            "--interval", "0.5", "1.75")
    fresh, fresh_json = run(*argv).stdout, run(*argv, "--format", "json").stdout
    from_json = os.fspath(tmp_path / "json.stcf")
    flag = b'"cache": ' + json.dumps(from_json).encode()  # the JSON lists the flags
    assert run(*argv, "--format", "json", "--cache", from_json).stdout == fresh_json.replace(
        b'"cache": null', flag)
    from_library = os.fspath(tmp_path / "library.stcf")
    spec = stratint.WeightSpec.from_exponents((1, 0))
    stratint.cache_store(from_library, stratint.compute_tensor(
        stratint.BasisKind.TRIGONOMETRIC, spec, stratint.Interval(0.5, 1.75), (6, 6)))
    for cache in (from_json, from_library):
        before, blob = os.stat(cache), open(cache, "rb").read()
        for _ in range(2):
            proc = run(*argv, "--cache", cache)
            assert proc.stdout == fresh and proc.stderr == b""
        after = os.stat(cache)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert open(cache, "rb").read() == blob


def test_coeffs_out_and_cache_same_file(tmp_path, monkeypatch, capsys):
    # it exited 0, rebuilt the tensor on each call and replaced the cache
    # with the CSV
    monkeypatch.chdir(tmp_path)
    argv = ["coeffs", "--basis", "legendre", "--exps", "0", "--orders", "2"]
    for _ in range(2):
        proc = run(*argv, "--cache", "same.x", "--out", "same.x", check=False)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == b"error: --out and --cache name the same file\n"
        assert not os.path.exists("same.x")
    assert cli.main(argv + ["--cache", "c.stcf"]) == 0
    capsys.readouterr()
    blob = open("c.stcf", "rb").read()
    os.symlink("c.stcf", "link")
    os.mkdir("sub")
    for out in ("./c.stcf", "link", "sub/../c.stcf", os.fspath(tmp_path / "c.stcf")):
        for cache, target in (("c.stcf", out), (out, "c.stcf")):
            assert cli.main(argv + ["--cache", cache, "--out", target]) == 2
            assert capsys.readouterr().err == "error: --out and --cache name the same file\n"
    for cache, out in (("new.stcf", "./new.stcf"), ("sub/../new.stcf", "new.stcf")):
        assert cli.main(argv + ["--cache", cache, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --out and --cache name the same file\n"
    assert open("c.stcf", "rb").read() == blob
    assert sorted(os.listdir(".")) == ["c.stcf", "link", "sub"]
    # distinct files, one of them new, are no error
    assert cli.main(argv + ["--cache", "c.stcf", "--out", "o.csv"]) == 0
    assert cli.main(argv + ["--cache", "n.stcf", "--out", "o.csv"]) == 0
    assert open("o.csv", "rb").read() == run(*argv).stdout


def test_sample_reproducible_and_thread_invariant():
    args = ("sample", "--spec", "0,0:1,2", "--orders", "8", "--n", "40",
            "--seed", "11")
    a = run(*args).stdout
    b = run(*args).stdout
    c = run(*args, "--threads", "4").stdout
    assert a == b == c
    lines = a.decode().strip().splitlines()
    assert lines[0] == '"0,0:1,2"'
    assert len(lines) == 41


def test_threads_help_says_it_changes_nothing(capsys):
    text = " ".join(cli.build_parser().format_help().split())
    assert "--threads THREADS accepted for compatibility (an integer >= 1); changes " \
           "neither the output nor the work done" in text
    # refused alike by a subcommand that samples and by one that does not
    for argv in (["coeffs", "--basis", "legendre", "--exps", "0", "--orders", "2"], ["verify", "--suite", "golden"],
                 ["sample", "--spec", "0:1", "--orders", "2", "--n", "1"]):
        assert cli.main(argv + ["--threads", "0"]) == 2
        assert capsys.readouterr().err == "error: need threads >= 1, got 0\n"


def test_sample_seed_changes_output():
    a = run("sample", "--spec", "0:1", "--orders", "4", "--n", "5", "--seed", "1").stdout
    b = run("sample", "--spec", "0:1", "--orders", "4", "--n", "5", "--seed", "2").stdout
    assert a != b


def test_env_seed_default():
    flagged = run("sample", "--spec", "0:1", "--orders", "4", "--n", "3",
                  "--seed", "77").stdout
    env = run("sample", "--spec", "0:1", "--orders", "4", "--n", "3",
              env={"STRAT_SEED": "77"}).stdout
    assert flagged == env


def test_out_file(tmp_path):
    target = os.fspath(tmp_path / "rows.csv")
    proc = run("coeffs", "--basis", "legendre", "--exps", "1", "--orders", "2",
               "--out", target)
    assert proc.stdout == b""
    assert (tmp_path / "rows.csv").read_text().startswith("j_1,value")


@pytest.mark.parametrize(
    "suite", ["golden", "orthonormality", "partitions", "trace", "fastpath"]
)
def test_verify_suites_pass(suite):
    proc = run("verify", "--suite", suite)
    text = proc.stdout.decode()
    assert "FAIL" not in text
    assert "checks passed" in text


def test_verify_unknown_suite_usage_error():
    proc = run("verify", "--suite", "bogus", check=False)
    assert proc.returncode == 2


def test_unknown_command_usage_error():
    proc = run("frobnicate", check=False)
    assert proc.returncode == 2


def test_bad_spec_usage_error():
    proc = run("sample", "--spec", "0,0", "--orders", "4", check=False)
    assert proc.returncode == 2
    assert b"error" in proc.stderr.lower()


def test_bad_int_list_usage_error():
    proc = run("coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "2,", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"'2,'" in proc.stderr


def test_non_finite_interval_usage_error():
    for bad in (["0", "inf"], ["nan", "1"]):
        proc = run("coeffs", "--basis", "legendre", "--exps", "0", "--orders", "2",
                   "--interval", *bad, check=False)
        assert proc.returncode == 2, bad
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:")


@pytest.mark.parametrize("command", [
    ["coeffs", "--basis", "legendre", "--exps", "1", "--orders", "2"],
    ["verify", "--suite", "partitions"],
])
def test_unwritable_out_usage_error(tmp_path, command):
    target = os.fspath(tmp_path / "missing" / "rows.csv")
    proc = run(*command, "--out", target, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("cache", ["missing/t.stcf", "."])
def test_unusable_cache_usage_error(tmp_path, cache):
    # a path in a missing directory cannot be written, a directory cannot be read
    proc = run("coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "2",
               "--cache", os.fspath(tmp_path / cache), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")
    assert b"--cache" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("n", ["0", "-3"])
def test_converge_needs_rows(n):
    proc = run("converge", "--n", n, "--p-ref", "4", "--p-ladder", "1", check=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")


@pytest.mark.parametrize("argv, flag", [
    # these were refused only by the sampler, with messages that named its
    # internals: "need max_j >= 0" and "table holds indices up to 4, need 8"
    (["--p-ref", "-1"], "--p-ref"),
    (["--p-ladder", "8", "--p-ref", "4"], "--p-ladder"),
    (["--p-ladder=1,-1", "--p-ref", "4"], "--p-ladder"),
    (["--name", "I1t", "--p-ladder", "2,5", "--p-ref", "4"], "--p-ladder"),
])
def test_converge_orders_checked_before_any_draw(argv, flag, capsys, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("drew a table")
    monkeypatch.setattr(cli, "draw_table", draw)
    assert cli.main(["converge", "--n", "3", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag in err
    assert "Traceback" not in err


def test_sde_negative_p_usage_error():
    proc = run("sde", "--p", "-1", "--n", "2", "--ladder", "2,4,8,16", check=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # z in the study's increments alone would take 1.28 TiB
    ["sde", "--n", "1", "--ladder", "1,2,4,1000000000"],
    ["sde", "--n", "1", "--p", "100000000000", "--ladder", "1,2,4,8"],
    ["converge", "--p-ref", "100000000000", "--n", "2"],
    # the result alone would take 8 TB
    ["sample", "--spec", "0,0:1,2", "--n", "1000000000000"],
], ids=["sde-steps", "sde-p", "converge", "sample"])
def test_oversized_request_usage_error(argv, capsys):
    # these printed numpy's _ArrayMemoryError with a traceback and exited 1;
    # now they are refused before any large array is made
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "GiB" in err


@pytest.mark.parametrize("command", [
    # the coefficients overflow: inf and nan were printed with exit 0
    ["coeffs", "--basis", "legendre", "--exps", "2", "--orders", "3", "--interval", "0", "1e200"],
    # the coefficients overflow: math.fsum raised on -inf + inf
    ["sample", "--spec", "3,3:1,2", "--interval", "0", "1e100", "--orders", "2", "--n", "2"],
    # finite coefficients, but sums past the double range: inf and -inf rows
    # were printed with exit 0 (rows summed one at a time)
    ["sample", "--spec", "3,3:1,2", "--interval", "0", "1.6e44", "--orders", "2", "--n", "5"],
    # the same in a block of rows summed together: an inf row was printed
    ["sample", "--spec", "3,3:1,2", "--interval", "0", "1.5e44", "--orders", "2", "--n", "8"],
    # a block of rows: math.fsum raised an intermediate overflow
    ["sample", "--spec", "3,3:1,2", "--interval", "0", "1.4e44", "--orders", "2", "--n", "300"],
    # the squared differences overflow: inf MSEs were printed with exit 0
    ["converge", "--interval", "0", "1e300", "--n", "5"],
    # length**3.5 raised OverflowError in the I3 closed form
    ["converge", "--name", "I3", "--interval", "0", "1e100", "--n", "5"],
])
def test_overflow_usage_error(command):
    proc = run(*command, check=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert b"overflow" in proc.stderr
    assert b"Traceback" not in proc.stderr and b"Warning" not in proc.stderr


@pytest.mark.parametrize("n, end, digest", [
    # SHA-256 of stdout, recorded before overflowing samples were refused;
    # re-recorded when Legendre tensors came to be built at half the nodes from
    # an interval-free P_j table: the samples moved by at most 2.1e-15 of the
    # largest, and stay finite
    (1, "1.6e44", "4b5736d4766ba52527a9d48e29d5ac8e19be65480e7d0f15c99c8db534b91a7f"),
    (8, "1.4e44", "26caacc15b14a51ed2c8ecf53017171cfebb31bd44bdbca24cc194738b7c0c44"),
])
def test_finite_samples_near_overflow_keep_their_bytes(n, end, digest):
    proc = run("sample", "--spec", "3,3:1,2", "--interval", "0", end, "--orders", "2",
               "--n", str(n))
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("command", [
    ["coeffs", "--basis", "legendre", "--exps", "10", "--orders", "2"],
    ["sample", "--spec", "00:12", "--n", "2"],
])
def test_bare_digit_string_usage_error(command):
    proc = run(*command, check=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert b"comma" in proc.stderr


def test_converge_rows():
    out = run("converge", "--p-ladder", "1,2,4", "--p-ref", "16", "--n", "200",
              "--seed", "3").stdout.decode()
    lines = out.strip().splitlines()
    assert lines[0] == "p,mse"
    mses = [float(l.split(",")[1]) for l in lines[1:]]
    assert mses == sorted(mses, reverse=True)


def test_converge_at_the_reference_order():
    # p = p_ref reads every index of the table, and no index past it
    proc = run("converge", "--name", "I2", "--p-ladder", "1", "--p-ref", "1", "--n", "2")
    assert proc.stdout.startswith(b"p,mse\r\n1,")


def test_converge_frozen_bytes():
    # recorded when every row drew its own table and evaluated its own closed
    # forms; re-recorded when I00's band sums became three-operand einsums
    # (sampler._band): p = 1 and 4 moved in the last two digits
    out = run("converge", "--p-ladder", "1,2,4", "--p-ref", "16", "--n", "50",
              "--seed", "0").stdout
    assert out == (b"p,mse\r\n1,0.09273687637239264\r\n2,0.056881432977873646\r\n"
                   b"4,0.026990601611579047\r\n")


_SAMPLE3 = ("sample", "--spec", "0:1", "--spec", "0,0:1,2", "--spec", "0,0,0:1,2,1", "--seed", "3")
# SHA-256 of the whole stdout, recorded when every row went through csv.writer
# one at a time; the JSON digests also pin the metadata block, version included.
# Every digest that prints a Legendre tensor or sample was re-recorded when
# Legendre tensors came to be built at ceil((sum o + sum d + k) / 2) nodes from
# an interval-free P_j table: coefficients moved in their last bits, by at most
# 1.8e-15 of the largest entry, samples by at most 1.5e-15 of the largest, and
# verify-fastpath's printed |diff| values within 1.3e-15.
FROZEN_STDOUT = {
    "coeffs-legendre-csv": (
        ("coeffs", "--basis", "legendre", "--exps", "1,0,2", "--orders", "16",
         "--interval", "1.25", "2.0", "--seed", "0"),
        "b95c68b2aaa3d2c1221327fc0beaeaf19f2c7b5ea3f1679238bb71a427c24fa1"),
    "coeffs-legendre-json": (
        ("coeffs", "--basis", "legendre", "--exps", "1,0,2", "--orders", "16",
         "--interval", "1.25", "2.0", "--seed", "0", "--format", "json"),
        "0052191bc57dd6c0bb0a9b20d29c84e285983c04124221903ff47d8f750485fd"),
    # re-recorded when compute_tensor came to zero the trigonometric entries
    # that vanish by frequency and degree: 1600 of the 1681 values, rounding
    # noise up to 1.1e-15 of the largest, print as 0. Re-recorded again when
    # trigonometric tensors came to be built in closed form: 79 values moved,
    # by up to 1.1e-15 of the largest, toward exact (the largest error against
    # the printed I00 expansion went 5.7e-16 -> 2.8e-17); the zeros are the same
    "coeffs-trigonometric-csv": (
        ("coeffs", "--basis", "trigonometric", "--exps", "0,0", "--orders", "40", "--seed", "0"),
        "73e4d6b3d7b9893728a24df4978adf4411db5cfca344a403d23ba7adcd2cb787"),
    # these two were recorded when coeffs wrote index columns and values
    # through _emit, one "%" per row; the k=4 table spans two row templates
    "coeffs-legendre-o128-csv": (
        ("coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "128"),
        "c744392396907fd5452a17e5e8df181719c02a4c377ea8b375f55259a0e3348a"),
    "coeffs-legendre-k4-csv": (
        ("coeffs", "--basis", "legendre", "--exps", "1,0,0,2", "--orders", "8",
         "--interval", "0.5", "1.75"),
        "81ad1724ce98e36cf311fb4c64743c4c62ee3d454f4f7880add481958c6e4de0"),
    # the header cells hold commas, so csv quotes them
    "sample-csv": (_SAMPLE3 + ("--n", "200"),
                   "1aa5a2c6aee3df98c83f5493a9b358e444c1a6000081515e0c4cf7e8c87f179b"),
    "sample-no-rows-csv": (_SAMPLE3 + ("--n", "0"),
                           "7549f1a15336de09f18bb3bbb247c4a04ec220b9c8f61b77fb11cc76898cd9c4"),
    # 600 rows span three table blocks; this digest and verify-fastpath's were
    # recorded when each row was contracted from its own single table
    "sample-three-blocks-csv": (_SAMPLE3 + ("--n", "600", "--threads", "2"),
                                "91dc216c295b2f107d5bec817b15132b1415871d50976393f1ed6afdd6b507df"),
    # the two sde digests were re-recorded when Milstein moved to the Ito form
    # (tests/test_sde.py::test_ito_form_matches_midpoint_form) and the coarse
    # levels came to be summed over step-major increments: the gbm rms and slope
    # printed here moved by at most 6e-14 relative. They were re-recorded again
    # when the study's areas came to be sampler._i00, which takes the band
    # difference first, so J_(1,1) is exactly h z0^2 / 2: the slope moved
    # 0.93583707458317911 -> ...922 and the rms at 8 steps in its last digits.
    # Re-recorded again when each step became one product of the packed
    # coefficients with [h, dW, I]: every rms moved, by at most 2.6e-14
    # relative, and the slope went ...922 -> 0.93583707458318743 (8.8e-15).
    # Re-recorded again when coarse levels came to sum the Ito integrals I in
    # place of the areas J: the rms at 16 and 64 steps moved by at most 5.1e-15
    # relative, and the slope went ...8743 -> 0.9358370745831851 (2.5e-15)
    "sde-csv": (("sde", "--ladder", "8,16,32,64", "--n", "20", "--seed", "0"),
                "ff5818f31a7f0086acd1e990d814b8646d5a4501917fb12575c3a19ddf41c43a"),
    "sde-json": (("sde", "--ladder", "8,16,32,64", "--n", "20", "--seed", "0",
                  "--format", "json"),
                 "a4acec68dc0c7824a9ee7747751569ba383744e1e8b667dd488636a7c95449ed"),
    # re-recorded when the closed forms' band sums became three-operand
    # einsums (sampler._band): the printed |diff| of I01-I11 and I00t moved.
    # Re-recorded again when the trigonometric zero rule dropped the noise
    # terms from the series: I1t's |diff| went 5.05e-15 -> 1.47e-15 and
    # I00t's 3.22e-15 -> 2.78e-15. And again when trigonometric tensors came
    # to be built in closed form, which moved them toward exact: I1t's |diff|
    # went 1.47e-15 -> 2.22e-16, I2t's 2.72e-15 -> 1.11e-16 and I00t's
    # 2.78e-15 -> 3.33e-16. And again when I10 and I20 came to be derived by
    # the Stratonovich product rule: I10's |diff| went 5.55e-16 -> 5e-16,
    # I20's 8.33e-16 -> 8.88e-16 and I11's 9.44e-16 -> 8.33e-16
    "verify-fastpath": (("verify", "--suite", "fastpath", "--seed", "5"),
                        "b11f5ac75a7b109f7bf916dec7a0f5fdfa8e77ab58e0dfe865cbf458c9ee3b43"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_STDOUT))
def test_frozen_stdout_bytes(name):
    argv, digest = FROZEN_STDOUT[name]
    assert hashlib.sha256(run(*argv).stdout).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(n for n in FROZEN_STDOUT if n.startswith("coeffs-")))
def test_frozen_coeffs_bytes_through_the_cache(tmp_path, name):
    # a cold call stores, a warm one copies; either prints the recorded bytes,
    # to stdout and to --out, whichever of them stored the file. The JSON
    # metadata lists the flags, so there the --cache path stands where the
    # recorded bytes hold null
    argv, digest = FROZEN_STDOUT[name]
    cache, out = os.fspath(tmp_path / "t.stcf"), os.fspath(tmp_path / "o")
    flag = b'"cache": ' + json.dumps(cache).encode()

    def printed(to_out):
        stdout = run(*argv, "--cache", cache, *(("--out", out) if to_out else ())).stdout
        text = open(out, "rb").read() if to_out else stdout
        assert (flag in text) == ("json" in argv)
        return hashlib.sha256(text.replace(flag, b'"cache": null')).hexdigest()

    for to_out in (False, True):  # the cold call to stdout, then to --out
        assert printed(to_out) == digest
        assert printed(not to_out) == digest
        os.unlink(cache)


def _rowwise(args, names, rows):
    """What the CLI wrote when it passed one row at a time to csv.writer."""
    fh = io.StringIO(newline="")
    if args.format == "csv":
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    else:
        doc = {"metadata": {"seed": args.seed, "version": stratint.__version__,
                            "flags": {"seed": args.seed}},
               "columns": names, "rows": rows}
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return fh.getvalue().encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, 9, cli._EMIT_BLOCK, 2 * cli._EMIT_BLOCK + 1])
def test_emit_matches_rowwise_writer(tmp_path, fmt, n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e22, 0.1]
    for at in (0, cli._EMIT_BLOCK - 4):  # at the start, and across the first block edge
        values[at:at + len(special)] = special[:max(0, n - at)]
    index = np.arange(n)
    small = (index % 256).astype(np.uint8)
    names = ["j", "0,0:1,2", 'a"b', "value"]
    rows = [[int(a), int(b), float(v), float(v)] for a, b, v in zip(index, small, values)]
    out = tmp_path / "table"
    args = argparse.Namespace(format=fmt, out=str(out), seed=0)
    cli._emit(args, names, [index, small, values, values])
    assert out.read_bytes() == _rowwise(args, names, rows)


def _rowwise_coeffs(data):
    """The coeffs CSV of a tensor's data as _rowwise writes it."""
    names = [f"j_{l + 1}" for l in range(data.ndim)] + ["value"]
    rows = [[*index, float(v)] for index, v in np.ndenumerate(data)]
    return _rowwise(argparse.Namespace(format="csv"), names, rows)


@pytest.mark.parametrize("basis, exps, orders", [
    ("legendre", "1", "0"), ("legendre", "0,1", "0"), ("trigonometric", "0,0,1", "0"),
    ("legendre", "1,0,0,2", "0"),
    ("legendre", "0,0", "63"),  # 4096 rows: one template holds the whole table
    ("legendre", "0,0", "64"),  # one past: a template of one row of the last axis
    ("trigonometric", "1", str(cli._EMIT_BLOCK + 7)),  # one axis longer than a block
    ("trigonometric", "0,0,0", "3,17,2"),
    # mostly +0.0: 16384 of 16641, 5829 of 9261 and 1600 of 1681 entries
    ("legendre", "0,0", "128"), ("legendre", "0,0,0", "20"), ("trigonometric", "0,0", "40"),
])
def test_coeffs_csv_matches_rowwise_writer(tmp_path, basis, exps, orders):
    out = tmp_path / "coeffs.csv"
    argv = ["coeffs", "--basis", basis, "--exps", exps, "--orders", orders,
            "--interval", "0.25", "1.5"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    spec = stratint.WeightSpec.from_exponents(tuple(map(int, exps.split(","))))
    orders = tuple(map(int, orders.split(",")))
    tensor = stratint.compute_tensor(stratint.BasisKind(basis), spec,
                                     stratint.Interval(0.25, 1.5), orders * (spec.k // len(orders)))
    assert out.read_bytes() == _rowwise_coeffs(tensor.data)


@pytest.mark.parametrize("block", [1, 5, 6, 30, 119, 120, 10**6])
@pytest.mark.parametrize("shape", [(1,), (7,), (4, 1, 6), (2, 3, 4, 5)])
def test_write_box_matches_rowwise_writer(monkeypatch, shape, block):
    # blocks smaller than the last axis, between the axes' boxes and past the table
    monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
    rng = np.random.default_rng(len(shape) * block)
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf, 0.1]
    data.flat[:len(special)] = special[:data.size]
    data.flat[-1] = special[-4 % len(special)]
    # +0.0 prints as "0" without "%.17g": boxes of +0.0 alone, of -0.0 alone,
    # with a single nonzero, with one -0.0 among +0.0, and with nan and inf
    mid = data.size // 2
    zeros = np.zeros(shape)
    one, negative, nonfinite = zeros.copy(), zeros.copy(), zeros.copy()
    one.flat[mid] = 0.1
    negative.flat[mid] = -0.0
    nonfinite.flat[[0, mid, -1]] = [np.nan, -np.inf, np.inf]
    for box in (data, zeros, -zeros, one, negative, nonfinite):
        assert _write_box_text(box) == _rowwise_coeffs(box)


def _write_box_text(data):
    """The coeffs CSV of a tensor's data as the CLI writes it."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerow([f"j_{l + 1}" for l in range(data.ndim)] + ["value"])
    cli._write_box(fh, data)
    return fh.getvalue().encode()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       block=st.integers(1, 400), positive=st.floats(0.0, 1.0), negative=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_write_box_matches_rowwise_writer_on_zeros(shape, block, positive, negative, seed):
    # any mix of +0.0, -0.0 and other values, in blocks of any size
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    u = rng.uniform(size=shape)
    data[u < positive] = 0.0
    data[(u >= positive) & (u < positive + negative)] = -0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_EMIT_BLOCK", block)
        assert _write_box_text(data) == _rowwise_coeffs(data)


@pytest.mark.parametrize("basis, exps, orders", [
    ("legendre", (0, 0), 128), ("legendre", (0, 0, 0), 20), ("trigonometric", (0, 0), 40),
])
def test_write_box_formats_no_plus_zero(basis, exps, orders):
    # +0.0 entries never reach "%": the lines of each block hold one "%.17g"
    # for each value passed, and those are its entries other than +0.0
    data = stratint.compute_tensor(stratint.BasisKind(basis), stratint.WeightSpec.from_exponents(
        exps), stratint.Interval(0.25, 1.5), (orders,) * len(exps)).data
    plus_zero = (data == 0) & ~np.signbit(data)
    assert plus_zero.mean() > 0.6
    blocks = data.reshape(-1, data.shape[-1])
    formats, zeros = cli._box_lines(data.shape[-1:])
    rows = list(cli._block_lines(blocks, formats, zeros))
    assert len(rows) == len(blocks)
    for (lines, values), block, skip in zip(rows, blocks, plus_zero.reshape(blocks.shape)):
        assert values == tuple(block[~skip].tolist())
        assert [line.endswith(",0\r\n") for line in lines] == skip.tolist()
        assert "".join(lines).count("%") == len(values)


def _lines_held(shape):
    """The bytes that the two arrays of _box_lines(shape) and their str hold."""
    return sum(sys.getsizeof(a) + sum(map(sys.getsizeof, a)) for a in cli._box_lines(shape))


def test_box_lines_cache_bound_by_bytes(monkeypatch):
    # the lines of at most _LINES_CACHE_SIZE inner boxes are kept, each of at
    # most _LINES_KEPT_BYTES; a box of 4096 lines is kept whatever its axes,
    # and the 8193 lines of a trigonometric k = 1 table at 2 * _EMIT_BLOCK are not
    cli._box_lines.cache_clear()
    shapes = [(n,) for n in range(1, cli._LINES_CACHE_SIZE + 9)]
    shapes += [(4096,), (1, 4096), (1, 1, 1, 4096), (64, 64), (8, 8, 8, 8)]
    for shape in shapes:
        cli._write_box(io.StringIO(newline=""), np.zeros(shape))
        assert cli._box_lines.cache_info().currsize <= cli._LINES_CACHE_SIZE
    for shape in shapes:
        held = _lines_held(shape)
        assert held <= cli._lines_bytes(shape) <= cli._LINES_KEPT_BYTES
        assert cli._lines_bytes(shape) <= 1.4 * held
    cli._box_lines.cache_clear()
    fh = io.StringIO(newline="")
    monkeypatch.setattr(cli, "_output", lambda args: contextlib.nullcontext(fh))
    orders = str(2 * cli._EMIT_BLOCK)
    assert cli.main(["coeffs", "--basis", "trigonometric", "--exps", "1", "--orders", orders]) == 0
    assert cli._lines_bytes((2 * cli._EMIT_BLOCK + 1,)) > cli._LINES_KEPT_BYTES
    assert cli._box_lines.cache_info().currsize == 0


class _Writes(io.StringIO):
    """A text stream that records the number of lines and characters of every write."""

    def __init__(self):
        super().__init__(newline="")
        self.lines = []
        self.sizes = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("basis, exps, orders, last", [
    ("legendre", "0,0", "128", 129),
    ("legendre", "0,0", "63", 64),
    ("trigonometric", "1,0,0,2", "8", 9),
    ("trigonometric", "1", str(2 * cli._EMIT_BLOCK), 2 * cli._EMIT_BLOCK + 1),
])
def test_coeffs_csv_writes_at_most_a_block(monkeypatch, tmp_path, basis, exps, orders, last):
    # a large table is never held as text whole: no write holds more rows
    # than a block, or than the last axis when that is longer
    fh = _Writes()
    monkeypatch.setattr(cli, "_output", lambda args: contextlib.nullcontext(fh))
    argv = ["coeffs", "--basis", basis, "--exps", exps, "--orders", orders]
    assert cli.main(argv) == 0
    k = len(exps.split(","))
    assert sum(fh.lines) == 1 + (int(orders) + 1) ** k
    assert fh.lines[0] == 1  # the header
    assert max(fh.lines[1:]) <= max(cli._EMIT_BLOCK, last)
    assert min(fh.lines[1:]) == max(fh.lines[1:])
    # with --cache, the cold call renders those blocks into the file and both
    # calls copy its text out, no chunk larger than the copy's
    text, lines = fh.getvalue(), fh.lines
    rendered = []  # the lines of each write into the cache file
    write_csv = cli._write_csv

    class _Counted:
        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            rendered.append(text.count("\n"))
            return self.stream.write(text)

    monkeypatch.setattr(cli, "_write_csv",
                        lambda stream, names, data: write_csv(_Counted(stream), names, data))
    for _ in ("cold", "warm"):
        fh = _Writes()
        assert cli.main(argv + ["--cache", os.fspath(tmp_path / "t.stcf")]) == 0
        assert fh.getvalue() == text
        assert max(fh.sizes) == min(len(text), coefficients._TEXT_CHUNK)
        assert len(fh.sizes) == -(-len(text) // coefficients._TEXT_CHUNK)
    assert rendered == lines  # rendered once, as without a cache


def _json_dump_emit(args, names, columns):
    """The JSON branch of _emit as it was when json.dump wrote the whole document."""
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "out", "format") and not k.startswith("_")}
    doc = {
        "metadata": {"seed": args.seed, "version": stratint.__version__, "flags": flags},
        "columns": names,
        "rows": list(zip(*(c.tolist() for c in columns))),
    }
    fh = io.StringIO(newline="")
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode()


@pytest.mark.parametrize("n", [0, 1, cli._EMIT_BLOCK, 2 * cli._EMIT_BLOCK + 1])
def test_json_emit_matches_json_dump(tmp_path, n):
    rng = np.random.default_rng(n + 1)
    values = rng.standard_normal(n)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22]
    # across the first block edge, and ending the last block
    for at in (cli._EMIT_BLOCK - 3, n - len(special)):
        lo = max(0, at)
        values[lo:lo + len(special)] = special[:max(0, n - lo)]
    index = np.arange(n)
    names = ["j_1", "0,0:1,2", "é\t\"x\""]
    out = tmp_path / "table.json"
    # flags of every kind a real command line gives: ints, floats, tuples, None, strings
    args = argparse.Namespace(format="json", out=str(out), seed=2**64 - 1, func=None,
                              _hidden=1, basis="legendre", interval=(0.25, 1e-310),
                              cache=None, orders="4,4", spec=["0:1", "1,0:1,2"], threads=2)
    cli._emit(args, names, [index, values, values[::-1].copy()])
    text = out.read_bytes()
    assert text == _json_dump_emit(args, names, [index, values, values[::-1].copy()])
    if n > len(special):
        assert b"NaN" in text and b"-Infinity" in text and b"5e-324" in text


def test_env_seed_read_on_every_call(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    argv = ["sample", "--spec", "0:1", "--orders", "4", "--n", "3", "--out", str(out)]
    got = []
    for seed in ("1", "2", "1"):
        monkeypatch.setenv("STRAT_SEED", seed)
        assert cli.main(argv) == 0
        got.append(out.read_bytes())
        # the parser is built once per process, yet the next call sees the new value
        monkeypatch.setattr(cli, "build_parser", None)
    assert got[0] != got[1]
    assert got[0] == got[2]


def test_bad_env_seed_usage_error():
    proc = run("verify", "--suite", "partitions", env={"STRAT_SEED": "abc"}, check=False)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert b"STRAT_SEED" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_converge_blocks_keep_bytes(tmp_path, monkeypatch):
    # rows are drawn in blocks of streams; the squared errors still add up in row order
    argv = ["converge", "--name", "I01", "--p-ladder", "0,3,9", "--p-ref", "12", "--n", "30",
            "--seed", "5"]
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    assert cli.main(argv + ["--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "_CONVERGE_BLOCK", 7)
    assert cli.main(argv + ["--out", str(blocks)]) == 0
    assert blocks.read_bytes() == whole.read_bytes()


def test_converge_matches_the_truncation_law(tmp_path):
    # I00's mean-square truncation error is (L^2 / 4)(1 / (2p + 1) - 1 / (2P + 1));
    # the seeds are independent, so their spread gives the Monte Carlo band
    ladder, p_ref, seeds = (1, 2, 4), 16, range(8)
    mse = []
    for seed in seeds:
        out = tmp_path / f"converge{seed}.csv"
        argv = ["converge", "--name", "I00", "--indices", "1,2", "--interval", "0", "1",
                "--p-ref", str(p_ref), "--p-ladder", ",".join(map(str, ladder)),
                "--n", "300", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().split()
        assert lines[0] == "p,mse" and [int(l.split(",")[0]) for l in lines[1:]] == list(ladder)
        mse.append([float(l.split(",")[1]) for l in lines[1:]])
    mse = np.asarray(mse)
    se = mse.std(axis=0, ddof=1) / np.sqrt(len(seeds))
    law = truncation_law(1.0, np.asarray(ladder, dtype=float), p_ref)
    assert np.all(np.abs(mse.mean(axis=0) - law) < 5.0 * se), (mse.mean(axis=0), law, se)


def test_sde_rows():
    out = run("sde", "--ladder", "16,32,64,128", "--n", "20", "--seed", "3").stdout
    lines = out.decode().strip().splitlines()
    assert lines[0] == "steps,h,rms,slope"
    assert len(lines) == 5


def test_global_flags_both_sides():
    before = run("--seed", "5", "sample", "--spec", "0:1", "--orders", "4",
                 "--n", "3").stdout
    after = run("sample", "--spec", "0:1", "--orders", "4", "--n", "3",
                "--seed", "5").stdout
    assert before == after
