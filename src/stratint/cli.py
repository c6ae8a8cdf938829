"""Command-line front end: coeffs, sample, verify, converge, sde."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from typing import Iterator, TextIO

import numpy as np

from . import __version__
from .basis import BasisKind, Interval, gauss_rule, phi_matrix
from .coefficients import CoeffTensor, cache_load, cache_store, compute_tensor
from .errors import ArgumentError, CacheFormatError, CapabilityError, DomainError, StaleCacheError
from .kernel import WeightSpec
from .oracle import enumerate_pair_partitions, truncated_moment
from .sampler import (
    CLOSED_FORM_EXPONENTS,
    CLOSED_FORM_NAMES,
    IntegralSpec,
    TruncationOrders,
    draw_table,
    sample_batch,
    sample_closed_form,
    sample_truncated,
)
from .sde_demo import SCHEMES, convergence_study, gbm, two_noise

__all__ = ["main", "build_parser"]

_PROBLEMS = {"gbm": gbm, "two-noise": two_noise}
_SUITES = ("golden", "orthonormality", "partitions", "trace", "fastpath")
# converge draws its rows as batched tables of at most this many streams
_CONVERGE_BLOCK = 2048


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ints, e.g. '16,32,64' or a single '128'."""
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ArgumentError(f"expected comma-separated integers, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    """Like _parse_int_list, but a bare digit string like '10' is refused:
    it could mean one exponent or index, or one per digit."""
    text = text.strip()
    if "," not in text and len(text) > 1 and text.isdigit():
        raise ArgumentError(f"ambiguous {text!r}: separate the entries with commas, e.g. "
                            f"{','.join(text)!r}")
    return _parse_int_list(text)


def _parse_spec(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ArgumentError(f"spec {text!r} must look like EXPONENTS:INDICES, e.g. 0,0:1,2")
    exps, indices = _parse_ints(head), _parse_ints(tail)
    if len(indices) != len(exps):
        raise ArgumentError(f"spec {text!r} needs one component index per weight")
    return exps, indices


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --out file opened for writing and closed afterwards, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        raise ArgumentError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _emit(args: argparse.Namespace, columns: list[str], rows: list[list]) -> None:
    """Write the result table as CSV or JSON, to --out or stdout."""
    with _output(args) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        else:
            flags = {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "out", "format") and not k.startswith("_")
            }
            doc = {
                "metadata": {"seed": args.seed, "version": __version__, "flags": flags},
                "columns": columns,
                "rows": [[v for v in row] for row in rows],
            }
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_coeffs(args: argparse.Namespace) -> int:
    kind = BasisKind(args.basis)
    exps = _parse_ints(args.exps)
    spec = WeightSpec.from_exponents(exps)
    iv = Interval(args.interval[0], args.interval[1])
    orders = _parse_int_list(args.orders)
    if len(orders) == 1 and spec.k > 1:
        orders = orders * spec.k
    tensor: CoeffTensor | None = None
    if args.cache and os.path.exists(args.cache):
        try:
            tensor = cache_load(args.cache, kind, spec, iv, orders)
        except (StaleCacheError, CacheFormatError):
            tensor = None
        except OSError as exc:
            raise ArgumentError(f"cannot read --cache {args.cache!r}: {exc.strerror}") from None
    if tensor is None:
        tensor = compute_tensor(kind, spec, iv, orders)
        if args.cache:
            try:
                cache_store(args.cache, tensor)
            except OSError as exc:
                raise ArgumentError(
                    f"cannot write --cache {args.cache!r}: {exc.strerror}"
                ) from None
    columns = [f"j_{l + 1}" for l in range(spec.k)] + ["value"]
    rows = [list(idx) + [float(tensor.data[idx])] for idx in np.ndindex(tensor.data.shape)]
    _emit(args, columns, rows)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    kind = BasisKind(args.basis)
    iv = Interval(args.interval[0], args.interval[1])
    ispecs, tensors, orders = [], [], []
    for text in args.spec:
        exps, indices = _parse_spec(text)
        wspec = WeightSpec.from_exponents(exps)
        ispecs.append(IntegralSpec(spec=wspec, indices=indices, basis=kind, iv=iv))
        tensors.append(compute_tensor(kind, wspec, iv, (args.orders,) * wspec.k))
        orders.append(TruncationOrders.uniform(wspec.k, args.orders))
    m = max(1, max(max(s.indices) for s in ispecs))
    out = sample_batch(ispecs, tensors, m, orders, args.seed, args.n, threads=args.threads)
    rows = [[float(v) for v in row] for row in out]
    _emit(args, list(args.spec), rows)
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ArgumentError(f"--n must be >= 1, got {args.n}")
    basis, k = CLOSED_FORM_NAMES[args.name]
    iv = Interval(args.interval[0], args.interval[1])
    indices = _parse_ints(args.indices) if args.indices else ((1,) if k == 1 else (1, 2))
    ladder = _parse_int_list(args.p_ladder)
    m = max(indices)
    max_j = 2 * args.p_ref if basis is BasisKind.TRIGONOMETRIC else args.p_ref
    sq = np.zeros(len(ladder))
    for lo in range(0, args.n, _CONVERGE_BLOCK):
        rows = range(lo, min(lo + _CONVERGE_BLOCK, args.n))
        table = draw_table(m, max_j, basis, iv, args.seed, stream=rows)
        ref = sample_closed_form(args.name, table, iv, args.p_ref, indices)
        for li, p in enumerate(ladder):
            d = sample_closed_form(args.name, table, iv, p, indices) - ref
            # a running sum in row order, as if each d * d were added in turn
            sq[li] = np.cumsum(np.concatenate(([sq[li]], d * d)))[-1]
    rows = [[int(p), float(sq[li] / args.n)] for li, p in enumerate(ladder)]
    _emit(args, ["p", "mse"], rows)
    return 0


def cmd_sde(args: argparse.Namespace) -> int:
    problem = _PROBLEMS[args.problem]()
    ladder = _parse_int_list(args.ladder)
    res = convergence_study(problem, args.scheme, ladder, args.n, args.seed, p=args.p)
    rows = [
        [int(n), float(h), float(r), float(res.slope)]
        for n, h, r in zip(res.step_counts, res.h, res.rms)
    ]
    _emit(args, ["steps", "h", "rms", "slope"], rows)
    return 0


def _legendre_k1_golden(iv: Interval) -> list[tuple[str, np.ndarray]]:
    length = iv.length()
    i1 = np.zeros(13)
    i1[0] = -0.5 * length**1.5
    i1[1] = -0.5 * length**1.5 / math.sqrt(3.0)
    i2 = np.zeros(13)
    i2[0] = length**2.5 / 3.0
    i2[1] = length**2.5 * math.sqrt(3.0) / 6.0
    i2[2] = length**2.5 / (6.0 * math.sqrt(5.0))
    i3 = np.zeros(13)
    i3[0] = -0.25 * length**3.5
    i3[1] = -0.15 * math.sqrt(3.0) * length**3.5
    i3[2] = -0.25 * length**3.5 / math.sqrt(5.0)
    i3[3] = -0.05 * length**3.5 / math.sqrt(7.0)
    return [("1", i1), ("2", i2), ("3", i3)]


def _legendre_k2_golden(iv: Interval, top: int) -> np.ndarray:
    length = iv.length()
    want = np.zeros((top + 1, top + 1))
    want[0, 0] = 0.5 * length
    for i in range(1, top + 1):
        mag = 0.5 * length / math.sqrt(4.0 * i * i - 1.0)
        want[i - 1, i] = mag
        want[i, i - 1] = -mag
    return want


def _trig_golden(iv: Interval, r_top: int) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    length = iv.length()
    top = 2 * r_top
    t1 = np.zeros(top + 1)
    t1[0] = -0.5 * length**1.5
    t2 = np.zeros(top + 1)
    t2[0] = length**2.5 / 3.0
    pair = np.zeros((top + 1, top + 1))
    pair[0, 0] = 0.5 * length
    for r in range(1, r_top + 1):
        t1[2 * r - 1] = length**1.5 * math.sqrt(2.0) / (2.0 * math.pi * r)
        t2[2 * r - 1] = -(length**2.5) / (math.sqrt(2.0) * math.pi * r)
        t2[2 * r] = length**2.5 / (math.sqrt(2.0) * math.pi**2 * r * r)
        pair[2 * r, 2 * r - 1] = 0.5 * length / (math.pi * r)
        pair[2 * r - 1, 2 * r] = -0.5 * length / (math.pi * r)
        pair[2 * r - 1, 0] = math.sqrt(2.0) * 0.5 * length / (math.pi * r)
        pair[0, 2 * r - 1] = -math.sqrt(2.0) * 0.5 * length / (math.pi * r)
    return [("1", (1,), t1), ("2", (2,), t2), ("00", (0, 0), pair)]


def _suite_golden() -> list[tuple[str, bool, str]]:
    checks = []
    for iv in (Interval(0.0, 1.0), Interval(2.5, 3.75)):
        tag = f"[{iv.t},{iv.T}]"
        for exp_str, want in _legendre_k1_golden(iv):
            spec = WeightSpec.from_exponents(tuple(int(c) for c in exp_str))
            got = compute_tensor(BasisKind.LEGENDRE, spec, iv, (12,)).data
            err = float(np.max(np.abs(got - want)))
            checks.append((f"legendre k=1 exps={exp_str} {tag}", err < 1e-10, f"max err {err:.3g}"))
        want = _legendre_k2_golden(iv, 10)
        got = compute_tensor(
            BasisKind.LEGENDRE, WeightSpec.from_exponents((0, 0)), iv, (10, 10)
        ).data
        err = float(np.max(np.abs(got - want)))
        checks.append((f"legendre k=2 pattern {tag}", err < 1e-10, f"max err {err:.3g}"))
        for exp_str, exps, want in _trig_golden(iv, 10):
            spec = WeightSpec.from_exponents(exps)
            got = compute_tensor(BasisKind.TRIGONOMETRIC, spec, iv, (20,) * len(exps)).data
            err = float(np.max(np.abs(got - want)))
            checks.append(
                (f"trigonometric exps={exp_str} {tag}", err < 1e-9, f"max err {err:.3g}")
            )
    return checks


def _suite_orthonormality() -> list[tuple[str, bool, str]]:
    checks = []
    iv = Interval(0.25, 1.75)
    top = 20
    rule = gauss_rule(2 * top + 2, iv)
    phi = phi_matrix(BasisKind.LEGENDRE, top, rule.nodes, iv)
    gram = (phi * rule.weights) @ phi.T
    err = float(np.max(np.abs(gram - np.eye(top + 1))))
    checks.append(("legendre gram i,j<=20", err < 1e-10, f"max err {err:.3g}"))
    panels = 2 * (2 * ((top + 1) // 2))
    edges = np.linspace(iv.t, iv.T, panels + 1)
    gram = np.zeros((top + 1, top + 1))
    for a, b in zip(edges[:-1], edges[1:]):
        sub = gauss_rule(16, Interval(a, b))
        phi = phi_matrix(BasisKind.TRIGONOMETRIC, top, sub.nodes, iv)
        gram += (phi * sub.weights) @ phi.T
    err = float(np.max(np.abs(gram - np.eye(top + 1))))
    checks.append(("trigonometric gram i,j<=20", err < 1e-10, f"max err {err:.3g}"))
    return checks


def _suite_partitions() -> list[tuple[str, bool, str]]:
    checks = []
    for k in range(9):
        for r in range(k // 2 + 1):
            want = math.factorial(k) // (2**r * math.factorial(r) * math.factorial(k - 2 * r))
            got = len(enumerate_pair_partitions(k, r))
            checks.append((f"count k={k} r={r}", got == want, f"{got} vs {want}"))
    full = {frozenset(map(frozenset, p.pairs)) for p in enumerate_pair_partitions(4, 2)}
    want_full = {
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    shown = sorted(tuple(sorted(map(tuple, map(sorted, f)))) for f in full)
    checks.append(("k=4 r=2 pairings", full == want_full, f"{shown}"))
    ones = {(p.pairs[0], p.singles) for p in enumerate_pair_partitions(4, 1)}
    want_ones = {
        ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
        ((2, 3), (1, 4)), ((2, 4), (1, 3)), ((3, 4), (1, 2)),
    }
    checks.append(("k=4 r=1 pairings", ones == want_ones, f"{sorted(ones)}"))
    return checks


def _suite_trace() -> list[tuple[str, bool, str]]:
    checks = []
    for iv in (Interval(0.0, 1.0), Interval(2.5, 3.75)):
        spec = WeightSpec.from_exponents((0, 0))
        tensor = compute_tensor(BasisKind.LEGENDRE, spec, iv, (50, 50))
        ispec = IntegralSpec(spec=spec, indices=(1, 1), basis=BasisKind.LEGENDRE, iv=iv)
        for p in (0, 1, 5, 50):
            got = truncated_moment(ispec, tensor, TruncationOrders.uniform(2, p))
            err = abs(got - 0.5 * iv.length())
            checks.append(
                (f"trace p={p} [{iv.t},{iv.T}]", err < 1e-12, f"|E - L/2| = {err:.3g}")
            )
    return checks


def _suite_fastpath(seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    iv = Interval(0.0, 1.0)
    p = 20
    leg_tensors = {
        name: compute_tensor(
            BasisKind.LEGENDRE, WeightSpec.from_exponents(exps), iv, (p,) * len(exps)
        )
        for name, exps in CLOSED_FORM_EXPONENTS.items()
        if CLOSED_FORM_NAMES[name][0] is BasisKind.LEGENDRE
    }
    trig_tensors = {
        name: compute_tensor(
            BasisKind.TRIGONOMETRIC, WeightSpec.from_exponents(exps), iv, (2 * p,) * len(exps)
        )
        for name, exps in CLOSED_FORM_EXPONENTS.items()
        if CLOSED_FORM_NAMES[name][0] is BasisKind.TRIGONOMETRIC
    }
    for name in CLOSED_FORM_NAMES:
        basis, k = CLOSED_FORM_NAMES[name]
        trig = basis is BasisKind.TRIGONOMETRIC
        tensor = (trig_tensors if trig else leg_tensors)[name]
        box = 2 * p if trig else p
        tol = 1e-12 if k == 1 and not trig else (5e-9 if name in
              ("I01", "I10", "I02", "I20", "I11") else 1e-9 if trig else 1e-10)
        worst = 0.0
        for stream in range(10):
            table = draw_table(2, box, basis, iv, seed, stream=stream)
            indices = (1,) if k == 1 else (1, 2)
            ispec = IntegralSpec(
                spec=tensor.spec, indices=indices, basis=basis, iv=iv
            )
            closed = sample_closed_form(name, table, iv, p, indices)
            generic = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(k, box))
            worst = max(worst, abs(closed - generic))
        checks.append((f"fastpath {name} p={p}", worst < tol, f"max |diff| = {worst:.3g}"))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    suite = {
        "golden": _suite_golden,
        "orthonormality": _suite_orthonormality,
        "partitions": _suite_partitions,
        "trace": _suite_trace,
        "fastpath": lambda: _suite_fastpath(args.seed),
    }[args.suite]
    checks = suite()
    failed = sum(1 for _, ok, _ in checks if not ok)
    with _output(args) as fh:
        for name, ok, detail in checks:
            fh.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
        fh.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 0 if failed == 0 else 1


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Common flags live on the root parser and on every subparser so they can
    # appear on either side of the subcommand. Subparser copies default to
    # SUPPRESS so an omitted flag does not clobber a value parsed earlier.
    def dfl(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=dfl(int(os.environ.get("STRAT_SEED", "0"))),
                        help="RNG seed (default: STRAT_SEED env var or 0)")
    parser.add_argument("--format", choices=("csv", "json"), default=dfl("csv"))
    parser.add_argument("--out", default=dfl(None), help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=dfl(1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratint",
        description="Iterated Stratonovich integrals via Fourier coefficient expansions.",
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="emit a coefficient tensor", parents=[common])
    pc.add_argument("--basis", choices=("legendre", "trigonometric"), required=True)
    pc.add_argument("--exps", required=True, help="weight exponents, e.g. 0,0")
    pc.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0))
    pc.add_argument("--orders", required=True, help="per-axis orders, e.g. 10,10")
    pc.add_argument("--cache", default=None, help="tensor cache file")
    pc.set_defaults(func=cmd_coeffs)

    ps = sub.add_parser("sample", help="draw joint samples of truncated integrals", parents=[common])
    ps.add_argument("--spec", action="append", required=True,
                    help="EXPONENTS:INDICES, e.g. 0,0:1,2 (repeatable)")
    ps.add_argument("--basis", choices=("legendre", "trigonometric"), default="legendre")
    ps.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0))
    ps.add_argument("--orders", type=int, default=10, help="uniform truncation order")
    ps.add_argument("--n", type=int, default=10)
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run a verification suite", parents=[common])
    pv.add_argument("--suite", choices=_SUITES, required=True)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("converge", help="mean-square truncation error ladder", parents=[common])
    pg.add_argument("--name", choices=sorted(CLOSED_FORM_NAMES), default="I00")
    pg.add_argument("--indices", default=None, help="component indices, e.g. 1,2")
    pg.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0))
    pg.add_argument("--p-ladder", default="1,2,4,8,16")
    pg.add_argument("--p-ref", type=int, default=128)
    pg.add_argument("--n", type=int, default=2000)
    pg.set_defaults(func=cmd_converge)

    pd = sub.add_parser("sde", help="strong convergence study on a shipped problem", parents=[common])
    pd.add_argument("--problem", choices=sorted(_PROBLEMS), default="gbm")
    pd.add_argument("--scheme", choices=SCHEMES, default="milstein")
    pd.add_argument("--ladder", default="16,32,64,128,256,512")
    pd.add_argument("--n", type=int, default=500)
    pd.add_argument("--p", type=int, default=10)
    pd.set_defaults(func=cmd_sde)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentError, DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
