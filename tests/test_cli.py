"""Command-line interface: outputs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stratint
from stratint import cli

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
    stamp = os.stat(cache).st_mtime_ns
    second = run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
                 "--orders", "8,8", "--cache", cache).stdout
    assert first == second
    assert os.stat(cache).st_mtime_ns == stamp  # untouched on a hit
    # changed parameters replace the stale file instead of failing
    third = run("coeffs", "--basis", "trigonometric", "--exps", "0,0",
                "--orders", "9,9", "--cache", cache)
    assert third.returncode == 0
    assert os.stat(cache).st_mtime_ns != stamp


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
    assert open(target).read().startswith("j_1,value")


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


def test_converge_frozen_bytes():
    # recorded when every row drew its own table and evaluated its own closed forms
    out = run("converge", "--p-ladder", "1,2,4", "--p-ref", "16", "--n", "50",
              "--seed", "0").stdout
    assert out == (b"p,mse\r\n1,0.092736876372392626\r\n2,0.056881432977873646\r\n"
                   b"4,0.026990601611579033\r\n")


def test_converge_blocks_keep_bytes(tmp_path, monkeypatch):
    # rows are drawn in blocks of streams; the squared errors still add up in row order
    argv = ["converge", "--name", "I01", "--p-ladder", "0,3,9", "--p-ref", "12", "--n", "30",
            "--seed", "5"]
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    assert cli.main(argv + ["--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "_CONVERGE_BLOCK", 7)
    assert cli.main(argv + ["--out", str(blocks)]) == 0
    assert blocks.read_bytes() == whole.read_bytes()


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
