"""The benchmark's three workloads: inputs drawn from the seed, timed ops, gates.

Each workload runs as closed-loop rounds by one client. A round runs one
short fixed-size block of each of its three phases, so slow drift of the host
hits all phases alike. Each timed op is bracketed by the reference loop, and
run.phase_metrics turns op and reference times into throughputs. Every op's
output is checked; checks that need the whole run (moments, slopes, laws) run
after timing ends.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import math
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles  # tests/oracles.py: quadrature and truncation-law references
from stratint import cli, coefficients, oracle, sampler, sde_demo
from stratint.basis import BasisKind, Interval
from stratint.kernel import WeightSpec
from stratint.sampler import IntegralSpec, TruncationOrders

LEG, TRIG = BasisKind.LEGENDRE, BasisKind.TRIGONOMETRIC
SIGMAS = 5.0  # width of every Monte Carlo gate, in standard errors
REFERENCE_ITERATIONS = 20_000


def block_seed(seed: int, *keys: int) -> int:
    """Seed of one block, below 2**62 so every seed keeps its own Philox stream."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(2))


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (~1 ms on a quiet 2-CPU host)."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i
    return perf_counter() - t0


class Recorder:
    """Op times per (phase, case), and ops and checks attempted and failed.

    Each timed op is bracketed by two runs of `reference_loop`; their mean is
    the host's speed at the moment of the op, kept beside the op's time.
    """

    def __init__(self) -> None:
        self.times: dict[tuple[str, str], list[float]] = {}
        self.refs: dict[tuple[str, str], list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.timing = True  # off during traced rounds, whose op times the wrappers inflate
        self.reference_s = 0.0  # time spent in reference loops

    def op(self, phase: str, case: str, fn, *args):
        self.attempted += 1
        before = reference_loop() if self.timing else 0.0
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising op is a failed op, the run goes on
            self.failures.append(f"{phase}/{case} raised {exc!r}")
            return None
        elapsed = perf_counter() - t0
        if self.timing:
            after = reference_loop()
            self.reference_s += before + after
            ref = 0.5 * (before + after)
            self.times.setdefault((phase, case), []).append(elapsed)
            self.refs.setdefault((phase, case), []).append(ref)
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())
        return ok


def within(got: float, want: float, se: float, label: str, rec: Recorder) -> None:
    rec.check(label, abs(got - want) <= SIGMAS * se,
              f"got {got:.6g}, want {want:.6g} +- {SIGMAS:g} x {se:.3g}")


class Workload:
    """Base: `phases` maps each end-to-end metric to the name used in README.md.

    `layer_phases` does the same for throughputs of a single layer, which the
    traced run reports from its untraced rounds.
    """

    name = ""
    phases: tuple[tuple[str, str], ...] = ()
    layer_phases: tuple[tuple[str, str], ...] = ()  # throughputs reported with the trace

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.units: dict[tuple[str, str], float] = {}  # work per op, by (phase, case)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rec: Recorder, block: int) -> None:
        raise NotImplementedError

    def gates(self, rec: Recorder) -> None:
        raise NotImplementedError


def _integral(kind: BasisKind, iv: Interval, exps, indices, p: int):
    spec = WeightSpec.from_exponents(exps)
    ispec = IntegralSpec(spec=spec, indices=indices, basis=kind, iv=iv)
    tensor = coefficients.compute_tensor(kind, spec, iv, (p,) * len(exps))
    return ispec, tensor, TruncationOrders.uniform(len(exps), p)


class Sample(Workload):
    """Joint rows of the strong-order-1.5 set, as an SDE solver asks for them."""

    name = "sample"
    phases = (
        ("phase1_per_ref", "rows_per_ref"),
        ("phase2_per_ref", "step_rows_per_ref"),
        ("phase3_per_ref", "trig_rows_per_ref"),
    )
    layer_phases = (("sampler.rows_per_ref_2threads", "rows_per_ref_2threads"),)
    IV = Interval(0.0, 0.01)
    M = 2
    # (label, weight exponents, component indices, order)
    LEGENDRE = (
        ("I0", (0,), (1,), 10), ("I1", (1,), (1,), 10),
        ("I00", (0, 0), (1, 2), 10), ("I01", (0, 1), (1, 2), 10),
        ("I10", (1, 0), (2, 1), 10), ("I000", (0, 0, 0), (1, 2, 1), 6),
    )
    TRIGONOMETRIC = (
        ("I0", (0,), (1,), 20), ("I1", (1,), (1,), 20),
        ("I00", (0, 0), (1, 2), 20), ("I000", (0, 0, 0), (1, 2, 1), 6),
    )
    ROWS = 128  # one Legendre batch
    STEP_CALLS = 32  # one-row batches, as a solver asks for one step at a time
    TRIG_ROWS = 64
    # The square of trigonometric I000 is heavy-tailed (kurtosis of I000 ~13),
    # so below a few thousand rows its sample standard error runs low and the
    # moment gate fails a correct sampler; a short run draws the rest untimed.
    GATE_TRIG_ROWS = 4096
    POOL_ROWS = 512  # two 256-row chunks, so threads=2 really runs two workers
    POOL_EVERY = 5  # odd, so a traced run traces the pool on every other pool round

    def setup(self) -> None:
        self.sets = {}
        for kind, table in ((LEG, self.LEGENDRE), (TRIG, self.TRIGONOMETRIC)):
            triples = [_integral(kind, self.IV, e, i, p) for _, e, i, p in table]
            self.sets[kind] = tuple(list(column) for column in zip(*triples))
            self._batch(kind, block_seed(self.seed, 1 << 30), 2, 1)
        self.rows = {LEG: [], TRIG: []}
        self.units = {
            ("phase1_per_ref", "legendre"): self.ROWS,
            ("phase2_per_ref", "legendre"): self.STEP_CALLS,
            ("phase3_per_ref", "trigonometric"): self.TRIG_ROWS,
            ("sampler.rows_per_ref_2threads", "legendre"): self.POOL_ROWS,
        }

    def _batch(self, kind: BasisKind, seed: int, n: int, threads: int) -> np.ndarray:
        ispecs, tensors, orders = self.sets[kind]
        return sampler.sample_batch(ispecs, tensors, self.M, orders, seed, n, threads)

    def _steps(self, seeds: list[int]) -> np.ndarray:
        ispecs, tensors, orders = self.sets[LEG]
        return np.vstack([sampler.sample_batch(ispecs, tensors, self.M, orders, s, 1)
                          for s in seeds])

    def run_round(self, rec: Recorder, block: int) -> None:
        seed = block_seed(self.seed, block)
        rows = rec.op("phase1_per_ref", "legendre", self._batch, LEG, seed, self.ROWS, 1)
        if rows is not None:
            self.rows[LEG].append(rows)
        seeds = [block_seed(self.seed, block, 2, i) for i in range(self.STEP_CALLS)]
        steps = rec.op("phase2_per_ref", "legendre", self._steps, seeds)
        if steps is not None:
            self.rows[LEG].append(steps)
        trig = rec.op("phase3_per_ref", "trigonometric", self._batch, TRIG,
                      block_seed(self.seed, block, 3), self.TRIG_ROWS, 1)
        if trig is not None:
            self.rows[TRIG].append(trig)
        if block % self.POOL_EVERY == 0:
            seed = block_seed(self.seed, block, 4)
            one = rec.op("gate", "threads=1", self._batch, LEG, seed, self.POOL_ROWS, 1)
            two = rec.op("sampler.rows_per_ref_2threads", "legendre", self._batch, LEG, seed,
                         self.POOL_ROWS, 2)
            if one is not None and two is not None:
                rec.check(f"block {block}: threads=2 rows byte-identical to threads=1",
                          one.tobytes() == two.tobytes())
                self.rows[LEG].append(one)

    def gates(self, rec: Recorder) -> None:
        """Empirical mean and second moment of each spec against the exact moments."""
        short = self.GATE_TRIG_ROWS - sum(len(rows) for rows in self.rows[TRIG])
        if self.rows[TRIG] and short > 0:
            rows = rec.op("gate", "trigonometric", self._batch, TRIG,
                          block_seed(self.seed, 1 << 31), short, 1)
            if rows is not None:
                self.rows[TRIG].append(rows)
        for kind, table in ((LEG, self.LEGENDRE), (TRIG, self.TRIGONOMETRIC)):
            if not rec.check(f"{kind.value}: rows sampled", bool(self.rows[kind])):
                continue
            rows = np.vstack(self.rows[kind])
            n = rows.shape[0]
            for col, (label, ispec, tensor, orders) in enumerate(zip(
                    [t[0] for t in table], *self.sets[kind])):
                x = rows[:, col]
                tag = f"{kind.value} {label}{ispec.indices} n={n}"
                mean = oracle.truncated_moment(ispec, tensor, orders)
                within(float(np.mean(x)), mean, float(np.std(x, ddof=1)) / math.sqrt(n),
                       f"{tag} E[X]", rec)
                second = oracle.truncated_moment([ispec] * 2, [tensor] * 2, [orders] * 2)
                within(float(np.mean(x * x)), second,
                       float(np.std(x * x, ddof=1)) / math.sqrt(n), f"{tag} E[X^2]", rec)


class Coeffs(Workload):
    """Coefficient tensors through the CLI, cold (build) and warm (cache), plus moments."""

    name = "coeffs"
    phases = (
        ("phase1_per_ref", "tensors_per_ref"),
        ("phase2_per_ref", "cache_hits_per_ref"),
        ("phase3_per_ref", "moments_per_ref"),
    )
    # (case, basis, weight exponents, order per axis, multi-indices checked by quadrature)
    CASES = (
        ("leg-k2-o128", LEG, (0, 0), 128, ((0, 0), (1, 2), (3, 1))),
        ("leg-k3-o16", LEG, (1, 0, 2), 16, ((0, 0, 0), (1, 0, 2), (2, 1, 0))),
        ("leg-k3-o20", LEG, (0, 0, 0), 20, ((0, 0, 0), (1, 0, 2), (2, 1, 0))),
        ("leg-k4-o6", LEG, (1, 2, 0, 3), 6, ((1, 0, 2, 1),)),
        ("trig-k2-o20", TRIG, (0, 0), 20, ((0, 0), (1, 2), (3, 1))),
        ("trig-k2-o40", TRIG, (0, 0), 40, ((0, 0), (1, 2), (3, 1))),
        ("trig-k3-o8", TRIG, (1, 0, 2), 8, ((0, 0, 0), (1, 0, 2), (2, 1, 0))),
        ("trig-k4-o4", TRIG, (1, 2, 0, 3), 4, ((1, 0, 2, 1),)),
    )
    QUAD_ABS = 2e-8  # as in tests/test_coefficients.py
    # A warm call is cheap beside a cold build, so it runs this many times per
    # round: more samples for its 5th-percentile cost.
    WARM_CALLS = 3
    # One k=4 quadrature reference costs ~0.2 s, so k=4 tensors are checked
    # against it in the first blocks only; every tensor gets the other checks.
    QUAD_K4_BLOCKS = 6

    def setup(self) -> None:
        self.pending: list[tuple] = []  # quadrature checks, run after timing
        for case in self.CASES:
            self.units[("phase1_per_ref", case[0])] = 1
            self.units[("phase2_per_ref", case[0])] = 1
            self.units[("phase3_per_ref", case[0])] = 2
        warm = self.workdir / "warmup.csv"
        argv = ["coeffs", "--basis", "legendre", "--exps", "0,0", "--orders", "2,2",
                "--cache", str(self.workdir / "warmup.stcf"), "--out", str(warm)]
        if cli.main(argv) != 0 or cli.main(argv) != 0:
            raise RuntimeError("warm-up coeffs call failed")
        oracle.truncated_moment(*self._pair(coefficients.cache_load(
            str(self.workdir / "warmup.stcf"), LEG, WeightSpec.from_exponents((0, 0)),
            Interval(0.0, 1.0), (2, 2)), reverse=False))

    @staticmethod
    def _pair(tensor, reverse: bool):
        """X with components 1..k, and Y as X or with the components reversed."""
        k = tensor.spec.k
        x = IntegralSpec(spec=tensor.spec, indices=tuple(range(1, k + 1)),
                         basis=tensor.kind, iv=tensor.iv)
        y = IntegralSpec(spec=tensor.spec, indices=x.indices[::-1] if reverse else x.indices,
                         basis=tensor.kind, iv=tensor.iv)
        orders = TruncationOrders(tensor.orders)
        return [x, y], [tensor, tensor], [orders, orders]

    def _moments(self, tensor) -> tuple[float, float]:
        square = oracle.truncated_moment(*self._pair(tensor, reverse=False))
        cross = oracle.truncated_moment(*self._pair(tensor, reverse=True))
        return square, cross

    def run_round(self, rec: Recorder, block: int) -> None:
        for c, (case, kind, exps, order, probes) in enumerate(self.CASES):
            rng = np.random.default_rng(block_seed(self.seed, block, c))
            t = float(rng.uniform(0.0, 4.0))
            big_t = t + float(rng.uniform(0.5, 1.5))
            k = len(exps)
            cache = self.workdir / f"{case}.stcf"
            cold, warm = self.workdir / f"{case}-cold.csv", self.workdir / f"{case}-warm.csv"
            cache.unlink(missing_ok=True)
            argv = ["coeffs", "--basis", kind.value, "--exps", ",".join(map(str, exps)),
                    "--interval", repr(t), repr(big_t), "--orders", ",".join([str(order)] * k),
                    "--cache", str(cache)]
            tag = f"block {block} {case} [{t!r}, {big_t!r}]"
            rc = rec.op("phase1_per_ref", case, cli.main, argv + ["--out", str(cold)])
            if not rec.check(f"{tag}: cold call exits 0", rc == 0, f"exit {rc}"):
                continue
            inode = cache.stat().st_ino
            text = cold.read_bytes()
            warm_ok = True
            for _ in range(self.WARM_CALLS):
                rc = rec.op("phase2_per_ref", case, cli.main, argv + ["--out", str(warm)])
                warm_ok = rec.check(f"{tag}: warm call exits 0", rc == 0, f"exit {rc}")
                if not warm_ok:
                    break
                rec.check(f"{tag}: warm call read the cache, not rebuilt it",
                          cache.stat().st_ino == inode)
                rec.check(f"{tag}: warm CSV bytes equal cold CSV bytes",
                          text == warm.read_bytes())
            if not warm_ok:
                continue
            lines = text.split(b"\n")
            shape = (order + 1,) * k
            got = {js: float(lines[1 + int(np.ravel_multi_index(js, shape))].rsplit(b",", 1)[1])
                   for js in probes}
            if k < 4 or block < self.QUAD_K4_BLOCKS:
                self.pending.append((tag, kind, exps, t, big_t, got))
            tensor = coefficients.cache_load(str(cache), kind, WeightSpec.from_exponents(exps),
                                             Interval(t, big_t), (order,) * k)
            moments = rec.op("phase3_per_ref", case, self._moments, tensor)
            if moments is not None:
                data = tensor.data
                square = float(np.sum(data * data))
                cross = float(np.sum(data * data.transpose(tuple(range(k - 1, -1, -1)))))
                scale = 1e-12 * square
                rec.check(f"{tag}: E[X^2] is the sum of squared coefficients",
                          abs(moments[0] - square) <= scale, f"{moments[0]!r} vs {square!r}")
                rec.check(f"{tag}: E[XY], reversed components, is the transposed sum",
                          abs(moments[1] - cross) <= scale, f"{moments[1]!r} vs {cross!r}")

    def gates(self, rec: Recorder) -> None:
        """Printed coefficients at fixed multi-indices against nested Gauss quadrature."""
        rec.check("coefficient tensors emitted", bool(self.pending))
        for tag, kind, exps, t, big_t, got in self.pending:
            for js, value in got.items():
                want = oracles.quad_coeff(kind.value, exps, t, big_t, js)
                rec.check(f"{tag}: C{js} matches quad_coeff", abs(value - want) <= self.QUAD_ABS,
                          f"{value!r} vs {want!r}")


class Studies(Workload):
    """The paper's convergence claims; no coefficient tensor, no generic contraction."""

    name = "studies"
    phases = (
        ("phase1_per_ref", "path_steps_per_ref"),
        ("phase2_per_ref", "integrate_steps_per_ref"),
        ("phase3_per_ref", "converge_rows_per_ref"),
    )
    LEVELS = (8, 16, 32, 64)  # reference mesh: 16 x 64 = 1024 steps
    PATHS = 16
    INTEGRATE_STEPS = 100
    INTEGRATE_PATHS = 1
    CONVERGE_ROWS = 50
    P_LADDER = (1, 2, 4, 8, 16)
    P_REF = 128
    SLOPE_BAND = (0.8, 1.2)  # Milstein strong order 1

    def setup(self) -> None:
        self.problems = {"gbm": sde_demo.gbm(), "two_noise": sde_demo.two_noise()}
        self.rms = {name: [] for name in self.problems}
        self.finals: list[np.ndarray] = []
        self.mse: list[list[float]] = []
        for name in self.problems:
            self.units[("phase1_per_ref", name)] = self.PATHS * 16 * max(self.LEVELS)
        self.units[("phase2_per_ref", "integrate")] = self.INTEGRATE_STEPS * self.INTEGRATE_PATHS
        self.units[("phase3_per_ref", "converge")] = self.CONVERGE_ROWS
        seed = block_seed(self.seed, 1 << 30)
        sde_demo.convergence_study(self.problems["gbm"], "milstein", self.LEVELS, 1, seed, 10)
        sde_demo.integrate(self.problems["two_noise"], "milstein", 2, seed, 10)
        self._converge(seed, self.workdir / "warmup.csv", rows=2)

    def _integrate(self, seed: int) -> np.ndarray:
        problem = self.problems["two_noise"]
        return np.array([
            sde_demo.integrate(problem, "milstein", self.INTEGRATE_STEPS,
                               block_seed(seed, path), 10)
            for path in range(self.INTEGRATE_PATHS)
        ])

    def _converge(self, seed: int, out: Path, rows: int) -> int:
        return cli.main(["converge", "--name", "I00", "--interval", "0", "1",
                         "--p-ladder", ",".join(map(str, self.P_LADDER)),
                         "--p-ref", str(self.P_REF), "--n", str(rows),
                         "--seed", str(seed), "--out", str(out)])

    def run_round(self, rec: Recorder, block: int) -> None:
        seed = block_seed(self.seed, block)
        for name, problem in self.problems.items():
            res = rec.op("phase1_per_ref", name, sde_demo.convergence_study,
                         problem, "milstein", self.LEVELS, self.PATHS, seed, 10)
            if res is not None:
                self.rms[name].append(res.rms)
        finals = rec.op("phase2_per_ref", "integrate", self._integrate, seed)
        if finals is not None:
            self.finals.append(finals)
        out = self.workdir / "converge.csv"
        rc = rec.op("phase3_per_ref", "converge", self._converge, seed, out, self.CONVERGE_ROWS)
        if rec.check(f"block {block}: converge exits 0", rc == 0, f"exit {rc}"):
            lines = out.read_text().split()
            rec.check(f"block {block}: converge prints one row per p",
                      lines[0] == "p,mse" and len(lines) == 1 + len(self.P_LADDER))
            self.mse.append([float(line.split(",")[1]) for line in lines[1:]])

    def gates(self, rec: Recorder) -> None:
        h = 1.0 / np.asarray(self.LEVELS, dtype=float)
        for name, rms in self.rms.items():
            if not rec.check(f"{name}: studies ran", bool(rms)):
                continue
            # Paths of all blocks pooled: every block has PATHS paths.
            pooled = np.sqrt(np.mean(np.square(rms), axis=0))
            slope = float(np.polyfit(np.log(h), np.log(pooled), 1)[0])
            lo, hi = self.SLOPE_BAND
            rec.check(f"{name}: pooled Milstein slope over {len(rms) * self.PATHS} paths "
                      f"in [{lo}, {hi}]", lo <= slope <= hi, f"slope {slope:.4f}")
        if rec.check("integrate: paths ran", bool(self.finals)):
            # Linear Ito SDE: E[X_1] = exp(-0.2) x0 exactly; the Milstein mean after
            # 100 steps is (1 - 0.002)^100 x0, 2e-4 away, far inside the band.
            finals = np.vstack(self.finals)
            want = math.exp(-0.2)
            for comp in range(finals.shape[1]):
                x = finals[:, comp]
                within(float(np.mean(x)), want, float(np.std(x, ddof=1)) / math.sqrt(x.size),
                       f"integrate: E[X_1[{comp}]] over {x.size} paths", rec)
        if rec.check("converge: blocks ran", len(self.mse) > 1):
            # Blocks have independent seeds, so their spread gives the Monte Carlo band.
            mse = np.asarray(self.mse)
            n = len(mse) * self.CONVERGE_ROWS
            for p, got, se in zip(self.P_LADDER, mse.mean(axis=0),
                                  mse.std(axis=0, ddof=1) / math.sqrt(len(mse))):
                law = oracles.truncation_law(1.0, p, self.P_REF)
                within(float(got), law, float(se),
                       f"converge: MSE at p={p} over {n} rows vs truncation_law", rec)


WORKLOADS = {w.name: w for w in (Sample, Coeffs, Studies)}

__all__ = ["WORKLOADS", "Recorder", "Workload", "block_seed"]
