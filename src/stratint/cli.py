"""Command-line front end: coeffs, sample, verify, converge, sde."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from . import __version__
from .basis import BasisKind, Interval, gauss_rule, phi_matrix
from .coefficients import (
    _TEXT_CHUNK,
    CoeffTensor,
    _open_text,
    _read_only,
    cache_load,
    cache_store,
    check_bytes,
    compute_tensor,
)
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


# The lines of at most this many inner boxes of a coeffs CSV are kept, each
# only when _lines_bytes puts it at most _LINES_KEPT_BYTES, so 16 MiB in all.
# Measured: 4096 lines take 0.55-0.60 MB, kept; the 8193 lines of a last axis
# twice a block long take 1.10 MB, and are made anew on each call
_LINES_CACHE_SIZE = 16
_LINES_KEPT_BYTES = 2**20


def _lines_bytes(shape: tuple[int, ...]) -> int:
    """The bytes that _box_lines(shape) holds, at most: two arrays, and two str
    objects a line, with their pointers, each of the index text and at most
    seven characters."""
    width = sum(len(str(n - 1)) + 1 for n in shape) + len("%.17g\r\n")
    return 2 * (128 + math.prod(shape) * (8 + 64 + width))


@functools.lru_cache(maxsize=_LINES_CACHE_SIZE)
def _box_lines(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The CSV lines of a box of this shape, in C order, as two object arrays of
    str: each line's index text "j_1,...,j_m," then "%.17g\\r\\n", and then "0\\r\\n"."""
    index = [""]
    for n in shape:
        index = [f"{i}{j}," for i in index for j in range(n)]
    index = np.array(index, dtype=object)
    return _read_only(index + "%.17g\r\n"), _read_only(index + "0\r\n")


def _block_lines(blocks: np.ndarray, formats: np.ndarray,
                 zeros: np.ndarray) -> Iterator[tuple[list[str], tuple[float, ...]]]:
    """Each row of blocks as its lines and the values they format.

    A +0.0 entry's line reads "0", as "%.17g" prints it, and takes no value;
    any other entry's line, -0.0, nan and inf included, holds "%.17g" and
    takes the entry.
    """
    formatted = (blocks != 0) | np.signbit(blocks)
    values = blocks[formatted].tolist()
    ends = np.cumsum(np.count_nonzero(formatted, axis=1)).tolist()
    start = 0
    for lines, end in zip(np.where(formatted, formats, zeros).tolist(), ends):
        yield lines, tuple(values[start:end])
        start = end


def _write_box(fh: TextIO, data: np.ndarray) -> None:
    """Write one CSV line "j_1,...,j_k,value\\r\\n" per entry of data, in C order.

    The lines are those _emit writes for the index columns and the values. The
    innermost axes whose box holds at most _EMIT_BLOCK entries (the last axis
    at least) make the inner box, whose lines _box_lines gives. Each block of
    entries, one inner box, is one write: its lines from _block_lines, each
    behind the indices of the outer axes, % its values other than +0.0.
    """
    shape = data.shape
    inner = 1
    while inner < len(shape) and math.prod(shape[-inner - 1:]) <= _EMIT_BLOCK:
        inner += 1
    box = shape[-inner:]
    lines = _box_lines if _lines_bytes(box) <= _LINES_KEPT_BYTES else _box_lines.__wrapped__
    formats, zeros = lines(box)
    blocks = data.reshape(-1, math.prod(box))
    step = max(1, _EMIT_BLOCK // blocks.shape[1])  # blocks sorted into lines at once
    rows = itertools.chain.from_iterable(_block_lines(blocks[lo:lo + step], formats, zeros)
                                         for lo in range(0, len(blocks), step))
    for outer, (text, values) in zip(np.ndindex(shape[:-inner]), rows):
        prefix = "".join([f"{i}," for i in outer])
        fh.write((prefix + prefix.join(text)) % values)


def _write_csv(fh: TextIO, names: list[str], data: np.ndarray) -> None:
    """The coeffs CSV: its header, then the lines of _write_box."""
    csv.writer(fh).writerow(names)
    _write_box(fh, data)


def _copy_text(src: BinaryIO, fh: TextIO) -> None:
    """Copy the ASCII text left in src to fh, _TEXT_CHUNK bytes a write: as
    bytes to fh's binary buffer when it has one, else as str."""
    sink = getattr(fh, "buffer", None)
    if sink is not None:
        fh.flush()  # text fh holds goes out first
    while chunk := src.read(_TEXT_CHUNK):
        if sink is not None:
            sink.write(chunk)
        else:
            fh.write(chunk.decode("ascii"))


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file: os.path.samefile when both exist,
    never when just one does, else their os.path.realpath."""
    here = os.path.exists(a), os.path.exists(b)
    if all(here):
        return os.path.samefile(a, b)
    return not any(here) and os.path.realpath(a) == os.path.realpath(b)


def cmd_coeffs(args: argparse.Namespace) -> int:
    """Print a tensor as CSV or JSON.

    With --cache, a hit loads the tensor and, for CSV, copies the text the
    file holds beside it. A miss builds the tensor and stores it, for CSV
    with its text, and then prints as a hit does. A file that holds no text,
    stored for JSON or by cache_store without one, prints the loaded tensor
    and is left as it is.
    """
    kind = BasisKind(args.basis)
    exps = _parse_ints(args.exps)
    spec = WeightSpec.from_exponents(exps)
    iv = Interval(args.interval[0], args.interval[1])
    orders = _parse_int_list(args.orders)
    if len(orders) == 1 and spec.k > 1:
        orders = orders * spec.k
    if args.cache and args.out and _same_file(args.cache, args.out):
        raise ArgumentError("--out and --cache name the same file")
    names = [f"j_{l + 1}" for l in range(spec.k)] + ["value"]
    as_csv = args.format == "csv"
    tensor: CoeffTensor | None = None
    text: BinaryIO | None = None  # the cache file, open at the CSV text it holds
    if args.cache and os.path.exists(args.cache):
        try:
            tensor = cache_load(args.cache, kind, spec, iv, orders)
            if as_csv:
                text = _open_text(args.cache, tensor)
        except (StaleCacheError, CacheFormatError):
            tensor = None
        except OSError as exc:
            raise ArgumentError(f"cannot read --cache {args.cache!r}: {exc.strerror}") from None
    if tensor is None:
        tensor = compute_tensor(kind, spec, iv, orders)
        if args.cache:
            render = functools.partial(_write_csv, names=names, data=tensor.data)
            try:
                cache_store(args.cache, tensor, render if as_csv else None)
                if as_csv:
                    text = _open_text(args.cache, tensor)
            except CacheFormatError:  # replaced since it was stored: print the tensor
                pass
            except OSError as exc:
                raise ArgumentError(
                    f"cannot write --cache {args.cache!r}: {exc.strerror}"
                ) from None
    if not as_csv:
        shape = tensor.data.shape
        # the smallest unsigned type keeps the index columns no larger than the data
        index = np.indices(shape, dtype=np.min_scalar_type(max(shape))).reshape(spec.k, -1)
        _emit(args, names, [*index, tensor.data.ravel()])
        return 0
    with text if text is not None else contextlib.nullcontext(), _output(args) as fh:
        if text is not None:
            _copy_text(text, fh)
        else:
            _write_csv(fh, names, tensor.data)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    kind = BasisKind(args.basis)
    iv = Interval(args.interval[0], args.interval[1])
    check_bytes(8 * args.n * len(args.spec), f"--n {args.n} rows of {len(args.spec)} spec(s)")
    ispecs, tensors, orders = [], [], []
    for text in args.spec:
        exps, indices = _parse_spec(text)
        wspec = WeightSpec.from_exponents(exps)
        ispecs.append(IntegralSpec(spec=wspec, indices=indices, basis=kind, iv=iv))
        tensors.append(compute_tensor(kind, wspec, iv, (args.orders,) * wspec.k))
        orders.append(TruncationOrders.uniform(wspec.k, args.orders))
    m = max(1, max(max(s.indices) for s in ispecs))
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
    if args.p_ref < 0:
        raise ArgumentError(f"--p-ref must be >= 0, got {args.p_ref}")
    if not all(0 <= p <= args.p_ref for p in ladder):
        raise ArgumentError(f"--p-ladder entries must lie in 0..{args.p_ref} (--p-ref), "
                            f"got {args.p_ladder}")
    m = max(indices)
    max_j = 2 * args.p_ref if basis is BasisKind.TRIGONOMETRIC else args.p_ref
    # a block's table, and its draw's words, uniforms and normals
    block = min(args.n, _CONVERGE_BLOCK)
    check_bytes(8 * block * (4 * m + 1) * (max_j + 1), f"--p-ref {args.p_ref} on {block} rows")
    sq = np.zeros(len(ladder))
    for lo in range(0, args.n, _CONVERGE_BLOCK):
        rows = range(lo, min(lo + _CONVERGE_BLOCK, args.n))
        table = draw_table(m, max_j, basis, iv, args.seed, stream=rows)
        ref = sample_closed_form(args.name, table, iv, args.p_ref, indices)
        for li, p in enumerate(ladder):
            got = sample_closed_form(args.name, table, iv, p, indices)
            # the MSE check below reports an overflow of finite values' errors,
            # without a warning from numpy first
            with np.errstate(over="ignore", invalid="ignore"):
                d = got - ref
                # a running sum in row order, as if each d * d were added in turn
                sq[li] = np.cumsum(np.concatenate(([sq[li]], d * d)))[-1]
    mse = sq / args.n
    if not np.isfinite(mse).all():
        raise DomainError(f"{args.name} on [{iv.t!r}, {iv.T!r}] overflows double precision, "
                          f"so its mean-square error is not finite")
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
            top = 2 * p if basis is BasisKind.TRIGONOMETRIC else p
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
            checks.append((f"{name} p={p} [{iv.t},{iv.T}]", err < 1e-10, f"max err {err:.3g}"))
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
        box = 2 * p if basis is BasisKind.TRIGONOMETRIC else p
        spec = WeightSpec.from_exponents(CLOSED_FORM_EXPONENTS[name])
        tensor = compute_tensor(basis, spec, iv, (box,) * k)
        table = draw_table(2, box, basis, iv, seed, stream=range(10))
        indices = (1,) if k == 1 else (1, 2)
        ispec = IntegralSpec(spec=tensor.spec, indices=indices, basis=basis, iv=iv)
        closed = sample_closed_form(name, table, iv, p, indices)
        generic = sample_truncated(ispec, tensor, table, TruncationOrders.uniform(k, box))
        worst = float(np.max(np.abs(closed - generic)))
        checks.append((f"fastpath {name} p={p}", worst < 1e-12, f"max |diff| = {worst:.3g}"))
    return checks


# verify's suites by name, each called with the run's seed (only fastpath draws)
_SUITES = {
    "golden": lambda seed: _suite_golden(),
    "orthonormality": lambda seed: _suite_orthonormality(),
    "partitions": lambda seed: _suite_partitions(),
    "trace": lambda seed: _suite_trace(),
    "fastpath": _suite_fastpath,
}


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _SUITES[args.suite](args.seed)
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
