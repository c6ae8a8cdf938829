"""Command-line front end: coeffs, sample, verify, converge, sde."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
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
    GaussianTable,
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
# rows are formatted and written this many at a time (a coeffs CSV block: at
# most this many, or one run of the last axis), so the text of a large table
# is never held whole
_EMIT_BLOCK = 4096


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


def _json_values(column: np.ndarray) -> list:
    """A column's values as json.dump spells them when put through "%s": ints and
    finite floats as their repr, and NaN, Infinity and -Infinity as strings."""
    values = column.tolist()
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            v = values[i]
            values[i] = "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    return values


def _emit(args: argparse.Namespace, names: list[str], columns: list[np.ndarray]) -> None:
    """Write the result table, given as one 1-D integer or float array per column,
    as CSV or JSON, to --out or stdout.

    The CSV is what csv.writer writes for rows of ints and format(v, ".17g")
    strings: header cells quoted as in RFC 4180, lines ended by "\r\n". No
    value holds a comma, quote or newline, so the body needs no quoting.
    The JSON is what json.dump(doc, indent=2, sort_keys=True) writes, plus "\n",
    with the rows in blocks as for CSV.
    """
    with _output(args) as fh:
        if args.format == "csv":
            csv.writer(fh).writerow(names)
            # "%d" and "%.17g" print a Python int and float as str and format(v, ".17g") do
            line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\r\n"
            for lo in range(0, len(columns[0]), _EMIT_BLOCK):
                block = zip(*(c[lo:lo + _EMIT_BLOCK].tolist() for c in columns))
                fh.write("".join(map(line.__mod__, block)))
        else:
            flags = {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "out", "format") and not k.startswith("_")
            }
            doc = {
                "metadata": {"seed": args.seed, "version": __version__, "flags": flags},
                "columns": names,
            }
            # "rows" sorts last, so it follows the rest of the document (which
            # ends "\n}"); it is written in blocks, laid out as json.dump lays it
            fh.write(json.dumps(doc, indent=2, sort_keys=True)[:-2] + ',\n  "rows": [')
            row = "\n    [\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ],"
            n = len(columns[0])
            for lo in range(0, n, _EMIT_BLOCK):
                text = "".join(map(row.__mod__, zip(*(_json_values(c[lo:lo + _EMIT_BLOCK])
                                                        for c in columns))))
                # the last row takes no comma
                fh.write(text if lo + _EMIT_BLOCK < n else text[:-1])
            fh.write("\n  ]\n}\n" if n else "]\n}\n")


def _prefixed(text: str, prefix: str) -> str:
    """text, whose lines all end in "\\n", with prefix put before each line."""
    return prefix + text[:-1].replace("\n", "\n" + prefix) + "\n"


def _write_box(fh: TextIO, data: np.ndarray) -> None:
    """Write one CSV line "j_1,...,j_k,value\\r\\n" per entry of data, in C order.

    The lines are those _emit writes for the index columns and the values. The
    innermost axes whose box holds at most _EMIT_BLOCK entries (the last axis
    at least) give a row template, their index text with one "%.17g" per
    entry, built once; each block of entries is that template, behind the
    indices of the outer axes, % the block's values.
    """
    shape = data.shape
    inner = 1
    while inner < len(shape) and math.prod(shape[-inner - 1:]) <= _EMIT_BLOCK:
        inner += 1
    template = "%.17g\r\n"
    for n in reversed(shape[-inner:]):
        template = "".join([_prefixed(template, f"{j},") for j in range(n)])
    blocks = data.reshape(-1, math.prod(shape[-inner:]))
    for outer, block in zip(np.ndindex(shape[:-inner]), blocks):
        prefix = "".join([f"{i}," for i in outer])
        fh.write(_prefixed(template, prefix) % tuple(block.tolist()))


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
    names = [f"j_{l + 1}" for l in range(spec.k)] + ["value"]
    if args.format == "json":
        shape = tensor.data.shape
        # the smallest unsigned type keeps the index columns no larger than the data
        index = np.indices(shape, dtype=np.min_scalar_type(max(shape))).reshape(spec.k, -1)
        _emit(args, names, [*index, tensor.data.ravel()])
        return 0
    with _output(args) as fh:
        csv.writer(fh).writerow(names)
        _write_box(fh, tensor.data)
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
    # sample_batch reports an overflow, without a warning from numpy first
    with np.errstate(over="ignore", invalid="ignore"):
        out = sample_batch(ispecs, tensors, m, orders, args.seed, args.n, threads=args.threads)
    _emit(args, list(args.spec), list(out.T))
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
    overflow = DomainError(f"{args.name} on [{iv.t!r}, {iv.T!r}] overflows double precision, "
                           f"so its mean-square error is not finite")
    for lo in range(0, args.n, _CONVERGE_BLOCK):
        rows = range(lo, min(lo + _CONVERGE_BLOCK, args.n))
        table = draw_table(m, max_j, basis, iv, args.seed, stream=rows)
        try:
            # only the closed forms and their squares can overflow; the MSE check
            # below reports it, without a warning from numpy first
            with np.errstate(over="ignore", invalid="ignore"):
                ref = sample_closed_form(args.name, table, iv, args.p_ref, indices)
                for li, p in enumerate(ladder):
                    d = sample_closed_form(args.name, table, iv, p, indices) - ref
                    # a running sum in row order, as if each d * d were added in turn
                    sq[li] = np.cumsum(np.concatenate(([sq[li]], d * d)))[-1]
        except OverflowError:  # from the Python float arithmetic of a closed form
            raise overflow from None
    mse = sq / args.n
    if not np.isfinite(mse).all():
        raise overflow
    _emit(args, ["p", "mse"], [np.array(ladder), mse])
    return 0


def cmd_sde(args: argparse.Namespace) -> int:
    problem = _PROBLEMS[args.problem]()
    ladder = _parse_int_list(args.ladder)
    res = convergence_study(problem, args.scheme, ladder, args.n, args.seed, p=args.p)
    slope = np.full(len(res.h), float(res.slope))
    _emit(args, ["steps", "h", "rms", "slope"], [np.array(res.step_counts), res.h, res.rms, slope])
    return 0


def _suite_golden() -> list[tuple[str, bool, str]]:
    """Every printed series' coefficients against the engine's.

    A series is linear in each component's row, so on a batch of unit tables,
    whose row r holds e_{j_1}, ..., e_{j_k} in components 1..k for the r-th
    index of the box in C order, the closed form gives that coefficient.
    """
    checks = []
    p = 10
    for iv in (Interval(0.0, 1.0), Interval(2.5, 3.75)):
        for name, (basis, k) in CLOSED_FORM_NAMES.items():
            trig = basis is BasisKind.TRIGONOMETRIC
            top = 2 * p if trig else p
            shape = (top + 1,) * k
            index = np.indices(shape).reshape(k, -1)
            units = np.zeros((index.shape[1], k + 1, top + 1))
            for l, j in enumerate(index):
                units[np.arange(len(j)), l + 1, j] = 1.0
            table = GaussianTable(m=k, max_j=top, values=units, basis=basis, iv=iv, seed=0,
                                  stream=range(len(units)))
            got = sample_closed_form(name, table, iv, p).reshape(shape)
            spec = WeightSpec.from_exponents(CLOSED_FORM_EXPONENTS[name])
            want = compute_tensor(basis, spec, iv, (top,) * k).data
            err = float(np.max(np.abs(got - want)))
            tol = 1e-9 if trig else 1e-10
            checks.append((f"{name} p={p} [{iv.t},{iv.T}]", err < tol, f"max err {err:.3g}"))
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
    for name, (basis, k) in CLOSED_FORM_NAMES.items():
        trig = basis is BasisKind.TRIGONOMETRIC
        box = 2 * p if trig else p
        spec = WeightSpec.from_exponents(CLOSED_FORM_EXPONENTS[name])
        tensor = compute_tensor(basis, spec, iv, (box,) * k)
        tol = 1e-12 if k == 1 and not trig else (5e-9 if name in
              ("I01", "I10", "I02", "I20", "I11") else 1e-9 if trig else 1e-10)
        table = draw_table(2, box, basis, iv, seed, stream=range(10))
        indices = (1,) if k == 1 else (1, 2)
        ispec = IntegralSpec(spec=tensor.spec, indices=indices, basis=basis, iv=iv)
        closed = sample_closed_form(name, table, iv, p, indices)
        generic = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(k, box))
        worst = float(np.max(np.abs(closed - generic)))
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

    # main reads STRAT_SEED on every call, so a parser built once sees the current value
    parser.add_argument("--seed", type=int, default=dfl(None),
                        help="RNG seed (default: STRAT_SEED env var or 0)")
    parser.add_argument("--format", choices=("csv", "json"), default=dfl("csv"))
    parser.add_argument("--out", default=dfl(None), help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=dfl(1),
                        help="accepted for compatibility (an integer >= 1); changes "
                             "neither the output nor the work done")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of `stratint`. An omitted --seed parses as None, which
    main replaces with STRAT_SEED or 0."""
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _env_seed() -> int:
    text = os.environ.get("STRAT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ArgumentError(f"STRAT_SEED must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        if args.threads < 1:  # a no-op, but the same flag is refused alike by every subcommand
            raise ArgumentError(f"need threads >= 1, got {args.threads}")
        return args.func(args)
    except (ArgumentError, DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
