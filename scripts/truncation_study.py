"""Sweep the truncation order and compare MC mean-square error to the law.

Usage: python scripts/truncation_study.py [--n 20000] [--seed 0]
"""

import argparse

import numpy as np

from stratint import BasisKind, Interval, draw_table, sample_closed_form

BLOCK = 2048  # rows drawn as one batched table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20000, help="MC sample size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p-ref", type=int, default=128)
    ap.add_argument("--ladder", default="1,2,4,8,16,32,64")
    args = ap.parse_args()
    if args.n < 1:
        ap.error(f"--n must be >= 1, got {args.n}")

    iv = Interval(0.0, 1.0)
    ladder = [int(x) for x in args.ladder.split(",")]
    sq = np.zeros(len(ladder))
    for lo in range(0, args.n, BLOCK):
        rows = range(lo, min(lo + BLOCK, args.n))
        table = draw_table(2, args.p_ref, BasisKind.LEGENDRE, iv, args.seed, stream=rows)
        ref = sample_closed_form("I00", table, iv, args.p_ref, (1, 2))
        for li, p in enumerate(ladder):
            d = sample_closed_form("I00", table, iv, p, (1, 2)) - ref
            # a running sum in row order, as if each d * d were added in turn
            sq[li] = np.cumsum(np.concatenate(([sq[li]], d * d)))[-1]

    print(f"{'p':>4} {'mc mse':>14} {'law':>14} {'ratio':>8}")
    for li, p in enumerate(ladder):
        mse = sq[li] / args.n
        law = 0.25 * (1.0 / (2 * p + 1) - 1.0 / (2 * args.p_ref + 1))
        print(f"{p:>4} {mse:>14.6e} {law:>14.6e} {mse / law:>8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
