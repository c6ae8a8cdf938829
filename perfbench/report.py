"""Run every workload in a fresh process and print its metrics under their names.

    python3 perfbench/report.py --seed N [--seconds S] [--trace]

One table row per end-to-end metric and workload, with its unit, and the ops
and checks attempted and failed; `--trace` adds a traced run per workload and
prints its per-layer metrics. Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    from workloads import WORKLOADS

    ok = True
    for name, workload in WORKLOADS.items():
        labels = dict(workload.phases + workload.layer_phases)
        for trace in (0, 1) if args.trace else (0,):
            result = run_workload(name, args.seed, args.seconds, trace)
            ok &= result["correct"]
            print(f"{name} (trace={trace}): {result['attempted']} attempted, "
                  f"{result['failed']} failed, correct={result['correct']}")
            for metric, entry in result["metrics"].items():
                shown = f"{labels[metric]} [{metric}]" if metric in labels else metric
                print(f"  {shown:<46} {entry['value']:14.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
