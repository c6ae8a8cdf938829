"""Benchmark of stratint: one workload per run, end-to-end metrics or per-layer trace.

    python3 perfbench/run.py --workload sample|coeffs|studies --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from `src/` and
the test oracles from `tests/`, and exits with code 2, printing no result,
where either is missing. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it say
the same for a reader, under the metric names README.md uses.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` rounds alternate untraced and traced, and the metrics are
the per-layer ones: the median over traced rounds of each per-round value.
Spans and a record of the run are written to `.perfbench_out/` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pin BLAS and OpenMP to one thread before numpy loads, here and in the
# setup probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# The reference loop's time on the 2-CPU host this benchmark was written on,
# when quiet; setup_s is scaled to a host of that speed (see README.md).
QUIET_REFERENCE_S = 1.1e-3
MIN_ROUNDS = 6  # so a traced run has three rounds of each kind
SPIN_REPEATS = 51
SELF_SUM_TOLERANCE = 1e-6  # seconds
# "ref" is one run of workloads.reference_loop, timed beside each op.
E2E_UNITS = {"phase1_per_ref": "1/ref", "phase2_per_ref": "1/ref",
             "phase3_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer throughputs timed in the untraced rounds of a traced run.
LAYER_UNITS = {"sampler.rows_per_ref_2threads": "1/ref"}
# Layers each workload exists to exercise, checked to be nonzero in traced runs.
USED = {
    "sample": ("rng.calls", "basis.integrals_calls", "sampler.batches", "sampler.tables",
               "sampler.contractions", "sampler.rows_per_ref_2threads"),
    "coeffs": ("coefficients.builds", "coefficients.stores", "coefficients.cache_hits",
               "kernel.weight_evals", "oracle.moments", "cli.calls"),
    "studies": ("rng.calls", "basis.integrals_calls", "sampler.closed_forms",
                "sde_demo.studies", "sde_demo.integrate_steps", "cli.calls"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sample", "coeffs", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit (used by setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def import_package():
    """Import stratint from this checkout's src/ and the oracles from its tests/."""
    src, tests = ROOT / "src", ROOT / "tests"
    for need in (src / "stratint" / "__init__.py", tests / "oracles.py"):
        if not need.is_file():
            raise FileNotFoundError(f"{need} is missing: run from a stratint checkout")
    sys.path[:0] = [str(src), str(tests)]
    import stratint

    if Path(stratint.__file__).resolve().parent != src / "stratint":
        raise ImportError(f"stratint imported from {stratint.__file__}, not from {src}")
    return stratint


def spin_ms() -> float:
    """Median time of the reference loop: a probe of host contention."""
    from workloads import reference_loop

    return 1e3 * statistics.median(reference_loop() for _ in range(SPIN_REPEATS))


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "platform": platform.platform(),
    }


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return elapsed


def percentile(times: list[float], q: int) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def tail(times: list[float]) -> tuple[str, float]:
    """Highest whole percentile with at least ten samples above it, else the maximum."""
    q = int(100 * (len(times) - 10) / len(times))
    return (f"p{q}", percentile(times, q)) if q > 50 else ("max", max(times))


def phase_metrics(phases, wl, rec) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Throughput of each phase in work per reference loop, and in work per second.

    An op's cost is its time over the time of the reference loop run beside
    it. A busy host slows both, the op somewhat more, so a case's cost is
    the 5th percentile of its op costs: the cost when the host was quiet.
    A phase's throughput is its work per round over the sum of its cases'
    costs. The figure in work per second uses each case's 10th-percentile op
    time instead; it is printed and recorded but moves with the host.
    """
    values, raw, lines = {}, {}, []
    for metric, label in phases:
        cases = [key for key in wl.units if key[0] == metric]
        if not all(rec.times.get(key) for key in cases):
            values[metric] = raw[metric] = 0.0
            continue
        work = sum(wl.units[key] for key in cases)
        costs = {key: percentile([t / r for t, r in zip(rec.times[key], rec.refs[key])], 5)
                 for key in cases}
        values[metric] = work / sum(costs.values())
        raw[metric] = work / sum(percentile(rec.times[key], 10) for key in cases)
        for key in cases:
            times = rec.times[key]
            q, value = tail(times)
            lines.append(f"  {label:<22} {key[1]:<14} n={len(times):<4} "
                         f"cost p5={costs[key]:8.3f} ref  "
                         f"p10={1e3 * percentile(times, 10):9.3f}  "
                         f"p50={1e3 * statistics.median(times):9.3f}  "
                         f"{q}={1e3 * value:9.3f} ms")
    return values, raw, lines


def run(args: argparse.Namespace) -> int:
    package = import_package()
    import tracer
    from workloads import WORKLOADS, Recorder

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        spin_start = spin_ms()
        setup_times: list[float] = []
        wl.setup()
        rec = Recorder()
        layer_rounds, self_sum_errors, spans = [], [], None
        walls: dict[bool, list[float]] = {False: [], True: []}
        t_start = perf_counter()
        t_end = t_start + args.seconds
        block = 0
        while block < MIN_ROUNDS or perf_counter() < t_end:
            # Setup probes are spread over the run, so their median samples the
            # host as the timed rounds saw it; their time is not measured time.
            due = t_start + len(setup_times) * args.seconds / SETUP_PROBES
            if not args.trace and len(setup_times) < SETUP_PROBES and perf_counter() >= due:
                t0 = perf_counter()
                setup_times.append(probe_setup(args))
                t_end += perf_counter() - t0
            traced = bool(args.trace) and block % 2 == 1
            trc = tracer.Tracer(package) if traced else None
            rec.timing = not traced
            if trc:
                trc.install()
            t0, ref0 = perf_counter(), rec.reference_s
            try:
                wl.run_round(rec, block)
            finally:
                # The reference loops beside the ops are the benchmark's, not the round's.
                wall = perf_counter() - t0 - (rec.reference_s - ref0)
                if trc:
                    trc.uninstall()
            walls[traced].append(wall)
            if trc:
                trc.wall = wall
                values, error, spans = tracer.analyse(trc)
                layer_rounds.append(values)
                self_sum_errors.append(error)
            block += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args))
        wl.gates(rec)
        if args.trace:
            metrics = {name: statistics.median(r[name] for r in layer_rounds)
                       for name in layer_rounds[0]}
            layer, raw, tail_lines = phase_metrics(wl.layer_phases, wl, rec)
            metrics.update({name: layer.get(name, 0.0) for name in LAYER_UNITS})
            metrics["trace.overhead_ratio"] = (statistics.median(walls[True])
                                               / statistics.median(walls[False]))
            worst = max(self_sum_errors)
            rec.check("trace: layer self times plus unwrapped time equal traced wall",
                      worst <= SELF_SUM_TOLERANCE, f"worst error {worst:.3g} s")
            bypass(args.workload, metrics, rec)
        else:
            metrics, raw, tail_lines = phase_metrics(wl.phases, wl, rec)
            host = statistics.median(r for refs in rec.refs.values() for r in refs)
            metrics["setup_s"] = statistics.median(setup_times) * QUIET_REFERENCE_S / host
            raw["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb
        spin_end = spin_ms()
        units = {**E2E_UNITS, **tracer.metric_units(), **LAYER_UNITS}
        result = {
            "correct": not rec.failures,
            "attempted": rec.attempted,
            "failed": len(rec.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_record(),
            "spin_ms": {"start": spin_start, "end": spin_end},
            "setup_probes_s": setup_times, "rounds": {"untraced": len(walls[False]),
                                                      "traced": len(walls[True])},
            "failures": rec.failures, **result,
            "as_timed": raw,
            "op_times_s": {f"{phase}/{case}": times for (phase, case), times in rec.times.items()},
            "reference_s": {f"{phase}/{case}": refs for (phase, case), refs in rec.refs.items()},
        }
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{args.workload}-run.json").write_text(json.dumps(record, indent=1) + "\n")
        if spans is not None:
            import numpy as np

            np.savez(OUT_DIR / f"{args.workload}-spans.npz", **spans,
                     sites=np.array([f"{s.layer}:{s.func}" for s in tracer.SITES]))
        report(args, wl, record, tail_lines, metrics, raw, units)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bypass(workload: str, metrics: dict[str, float], rec) -> None:
    """Structural self-test: the layers a workload exists for ran, the others did not."""
    sde = tuple(k for k in metrics if k.startswith("sde_demo."))
    zero = {"studies": ("coefficients.builds", "sampler.contractions", "oracle.moments"),
            "sample": sde, "coeffs": sde}[workload]
    for key in zero:
        rec.check(f"bypass: {key} is zero on {workload}", metrics[key] == 0.0,
                  f"got {metrics[key]}")
    for key in USED[workload]:
        rec.check(f"coverage: {key} is positive on {workload}", metrics[key] > 0.0)


def report(args, wl, record, tail_lines, metrics, raw, units) -> None:
    """Human-readable summary, ahead of the JSON line."""
    m = record["machine"]
    print(f"stratint benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas={m['blas']}")
    print(f"host spin (diagnostic, not a gate): start {record['spin_ms']['start']:.2f} ms, "
          f"end {record['spin_ms']['end']:.2f} ms")
    names = dict(wl.phases + wl.layer_phases)
    for key, value in metrics.items():
        label = f"{key} ({names[key]})" if key in names else key
        extra = ""
        if key in raw:
            extra = (f"   ({raw[key]:.6g} s as timed)" if key == "setup_s" else
                     f"   ({raw[key]:.6g}/s at the 10th-percentile op time)")
        print(f"  {label:<44} {value:14.6g} {units[key]}{extra}")
    if tail_lines:
        print("op times (closed loop, one client):")
        for line in tail_lines:
            print(line)
    print(f"ops and checks: {record['attempted']} attempted, {record['failed']} failed")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
