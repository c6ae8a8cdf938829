"""Acceptance suite: every shipped claim, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Budgets are wall-clock and generous on purpose; the point is that the
whole suite stays interactive.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import stratint
from stratint import (
    BasisKind,
    Interval,
    IntegralSpec,
    TruncationOrders,
    WeightSpec,
    coarsen_path,
    compute_tensor,
    convergence_study,
    draw_path,
    draw_table,
    enumerate_pair_partitions,
    gbm,
    phi_matrix,
    sample_closed_form,
    sample_truncated,
    strat_reference,
    table_from_path,
    truncated_moment,
)
from stratint.rng import DOMAIN_TABLE, normal_stream

from oracles import (
    i00_prefix,
    legendre_k1_golden,
    legendre_k2_banded,
    trig_k1_golden,
    trig_k2_pattern,
    truncation_law,
)

SEED = 12345
INTERVALS = (Interval(0.0, 1.0), Interval(2.5, 3.75))


@contextlib.contextmanager
def criterion(num, label, budget=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
            )
    except BaseException:
        elapsed = time.monotonic() - t0
        print(f"criterion {num} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    print(f"criterion {num} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_legendre_golden():
    with criterion(1, "Legendre golden coefficients", budget=1.0):
        for iv in INTERVALS:
            L = iv.length()
            for exp in (0, 1, 2, 3):
                tensor = compute_tensor(
                    BasisKind.LEGENDRE, WeightSpec.from_exponents((exp,)), iv, (12,)
                )
                want = legendre_k1_golden(exp, L, 13)
                assert np.max(np.abs(tensor.data - want)) < 1e-10
            tensor = compute_tensor(
                BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (10, 10)
            )
            want = legendre_k2_banded(L, 11)
            assert np.max(np.abs(tensor.data - want)) < 1e-10
            # the printed pattern facts, spelled out
            assert abs(tensor.data[0, 0] - L / 2.0) < 1e-10
            for i in range(1, 11):
                band = L / (2.0 * math.sqrt(4.0 * i * i - 1.0))
                assert abs(tensor.data[i - 1, i] - band) < 1e-10
                assert abs(tensor.data[i, i - 1] + band) < 1e-10
                assert abs(tensor.data[i, i]) < 1e-10


def test_criterion_2_trig_golden():
    with criterion(2, "trigonometric golden coefficients", budget=10.0):
        for iv in INTERVALS:
            L = iv.length()
            for exp in (1, 2):
                tensor = compute_tensor(
                    BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((exp,)), iv, (20,)
                )
                assert np.max(np.abs(tensor.data - trig_k1_golden(exp, L, 21))) < 1e-9
            tensor = compute_tensor(
                BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents((0, 0)), iv, (20, 20)
            )
            assert np.max(np.abs(tensor.data - trig_k2_pattern(L, 21))) < 1e-9


def test_criterion_3_trace_identity():
    with criterion(3, "trace identity E = (T-t)/2", budget=10.0):
        for iv in INTERVALS:
            spec = WeightSpec.from_exponents((0, 0))
            tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (50, 50))
            ispec = IntegralSpec(
                spec=spec, indices=(1, 1), basis=BasisKind.LEGENDRE, iv=iv
            )
            for p in (0, 1, 5, 50):
                m = truncated_moment(
                    [ispec], [tensor], [TruncationOrders.uniform(2, p)]
                )
                assert abs(m - iv.length() / 2.0) < 1e-12


def test_criterion_4_truncation_law():
    with criterion(4, "mean-square truncation law", budget=30.0):
        iv = Interval(0.0, 1.0)
        p_list = (1, 2, 4, 8, 16, 32)
        p_ref = 128
        n = 100_000

        # the vectorized evaluator must agree with the shipped sampler
        probe = draw_table(2, p_ref, BasisKind.LEGENDRE, iv, seed=SEED, stream=0)
        pre0 = i00_prefix(probe.values[1], probe.values[2], 1.0)
        for p in (0, 4, 128):
            want = sample_closed_form("I00", probe, iv, p, (1, 2))
            assert pre0[p] == pytest.approx(want, abs=1e-14)

        sums = np.zeros(len(p_list))
        sums_sq = np.zeros(len(p_list))
        cols = list(p_list)
        chunk = 4096
        a = np.empty((chunk, p_ref + 1))
        b = np.empty((chunk, p_ref + 1))
        for start in range(0, n, chunk):
            rows = range(start, min(start + chunk, n))
            size = len(rows)
            for local, r in enumerate(rows):
                a[local] = normal_stream(SEED, r, 1, p_ref + 1, DOMAIN_TABLE)
                b[local] = normal_stream(SEED, r, 2, p_ref + 1, DOMAIN_TABLE)
            pre = i00_prefix(a[:size], b[:size], 1.0)
            diff = pre[:, [p_ref]] - pre[:, cols]
            sq = diff * diff
            sums += sq.sum(axis=0)
            sums_sq += (sq * sq).sum(axis=0)
        mean = sums / n
        se = np.sqrt((sums_sq / n - mean * mean) / n)
        law = truncation_law(1.0, np.asarray(p_list, dtype=float), p_ref)
        assert np.all(np.abs(mean - law) < 5.0 * se)

        # the same law holds exactly under the moment oracle
        spec = WeightSpec.from_exponents((0, 0))
        tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (p_ref, p_ref))
        ispec = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=iv)

        def second(p):
            return truncated_moment(
                [ispec, ispec], [tensor, tensor], [TruncationOrders.uniform(2, p)] * 2
            )

        top = second(p_ref)
        for p, want in zip(p_list, law):
            assert top - second(p) == pytest.approx(want, abs=1e-12)


def test_criterion_5_pathwise_convergence():
    with criterion(5, "pathwise oracle convergence", budget=60.0):
        iv = Interval(0.0, 1.0)
        p = 256
        n_fine = 2**11
        factors = (8, 4, 2, 1)  # meshes 2^8, 2^9, 2^10, 2^11
        n_paths = 2000
        spec = WeightSpec.from_exponents((0, 0))
        tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (p, p))
        off = IntegralSpec(spec=spec, indices=(1, 2), basis=BasisKind.LEGENDRE, iv=iv)
        same = IntegralSpec(spec=spec, indices=(1, 1), basis=BasisKind.LEGENDRE, iv=iv)
        orders = TruncationOrders.uniform(2, p)
        probe = draw_path(2, n_fine, iv, seed=SEED, stream=0)
        phi = phi_matrix(BasisKind.LEGENDRE, p, probe.mesh[:-1], iv)
        sq = {("off", f): 0.0 for f in factors}
        sq.update({("same", f): 0.0 for f in factors})
        for r in range(n_paths):
            path = draw_path(2, n_fine, iv, seed=SEED, stream=r)
            table = table_from_path(path, p, BasisKind.LEGENDRE, phi=phi)
            s_off = sample_truncated(off, tensor, table, orders)
            s_same = sample_truncated(same, tensor, table, orders)
            for f in factors:
                coarse = coarsen_path(path, f) if f > 1 else path
                d_off = strat_reference(off, coarse) - s_off
                d_same = strat_reference(same, coarse) - s_same
                sq[("off", f)] += d_off * d_off
                sq[("same", f)] += d_same * d_same
        for case in ("off", "same"):
            rms = [math.sqrt(sq[(case, f)] / n_paths) for f in factors]
            # factors shrink, meshes refine: every level beats its predecessor
            assert all(b < a for a, b in zip(rms, rms[1:])), (case, rms)


def test_criterion_6_fast_path_equivalence():
    with criterion(6, "closed forms match generic tensors", budget=30.0):
        iv = Interval(0.0, 1.0)
        p = 50
        finite = ("I0", "I1", "I2", "I3", "I00")
        chained = ("I01", "I10", "I02", "I20", "I11")
        from stratint import CLOSED_FORM_EXPONENTS

        tensors = {}
        for name in finite + chained:
            exps = CLOSED_FORM_EXPONENTS[name]
            spec = WeightSpec.from_exponents(exps)
            tensors[name] = compute_tensor(
                BasisKind.LEGENDRE, spec, iv, (p,) * len(exps)
            )
        for name in finite + chained:
            tensor = tensors[name]
            k = tensor.spec.k
            worst = 0.0
            for stream in range(100):
                table = draw_table(2, p, BasisKind.LEGENDRE, iv, seed=SEED, stream=stream)
                for indices in [(1,)] if k == 1 else [(1, 2), (1, 1)]:
                    ispec = IntegralSpec(
                        spec=tensor.spec, indices=indices, basis=BasisKind.LEGENDRE, iv=iv
                    )
                    fast = sample_closed_form(name, table, iv, p, indices)
                    slow = sample_truncated(
                        ispec, tensor, table, TruncationOrders.uniform(k, p)
                    )
                    worst = max(worst, abs(fast - slow))
            assert worst < 1e-13, (name, worst)


def test_criterion_7_partition_counts():
    with criterion(7, "Gaussian pair partitions", budget=1.0):
        for k in range(9):
            for r in range(k // 2 + 1):
                want = math.factorial(k) // (
                    2**r * math.factorial(r) * math.factorial(k - 2 * r)
                )
                assert len(enumerate_pair_partitions(k, r)) == want
        full = sorted(
            tuple(sorted(p.pairs)) for p in enumerate_pair_partitions(4, 2)
        )
        assert full == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]
        ones = sorted((p.pairs[0], p.singles) for p in enumerate_pair_partitions(4, 1))
        assert ones == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
            ((2, 3), (1, 4)),
            ((2, 4), (1, 3)),
            ((3, 4), (1, 2)),
        ]
        print(f"  k=4 full pairings: {full}")
        print(f"  k=4 single-pair terms: {ones}")


def test_criterion_8_sde_strong_orders():
    with criterion(8, "SDE strong convergence orders", budget=60.0):
        ladder = [16, 32, 64, 128, 256, 512]
        milstein = convergence_study(gbm(), "milstein", ladder, n_paths=500, seed=SEED)
        euler = convergence_study(gbm(), "euler", ladder, n_paths=500, seed=SEED)
        assert 0.85 <= milstein.slope <= 1.15, milstein.slope
        assert 0.35 <= euler.slope <= 0.65, euler.slope


def test_criterion_9_cli_reproducibility():
    with criterion(9, "CLI byte-identical reruns", budget=60.0):
        base = [sys.executable, "-m", "stratint.cli"]
        invocations = [
            ["coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "8,8",
             "--seed", "7"],
            ["coeffs", "--basis", "trigonometric", "--exps", "1", "--orders", "12",
             "--seed", "7", "--format", "json"],
            ["sample", "--spec", "0,0:1,2", "--spec", "1:1", "--orders", "10",
             "--n", "50", "--seed", "7"],
            ["verify", "--suite", "golden", "--seed", "7"],
            ["verify", "--suite", "partitions", "--seed", "7"],
            ["converge", "--p-ladder", "1,2,4", "--p-ref", "16", "--n", "100",
             "--seed", "7"],
            ["sde", "--ladder", "16,32,64,128", "--n", "20", "--seed", "7"],
        ]
        # The child process imports the same package as the tests, installed or not.
        src = os.path.dirname(os.path.dirname(stratint.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for args in invocations:
            runs = [
                subprocess.run(base + args, capture_output=True, env=env)
                for _ in range(2)
            ]
            assert runs[0].returncode == 0, runs[0].stderr
            assert runs[0].stdout == runs[1].stdout, args
        # thread count must not change sampled bytes
        sample = ["sample", "--spec", "0,0:1,2", "--orders", "10", "--n", "300",
                  "--seed", "7"]
        one = subprocess.run(base + sample + ["--threads", "1"], capture_output=True, env=env)
        four = subprocess.run(base + sample + ["--threads", "4"], capture_output=True, env=env)
        assert one.returncode == 0 and four.returncode == 0
        assert one.stdout == four.stdout
