"""Span tracer that wraps stratint's public functions where their callers look them up.

Nothing inside the package changes: `Tracer.install` replaces module attributes
such as `stratint.sampler.normal_stream` (the name `draw_table` resolves at
call time) with a wrapper that records one span per call, and `uninstall`
puts the originals back. Spans live in per-thread arrays until the run ends.

Self time is the share of wall time during which a span was a running leaf:
it was open and no span it caused was open. Spans from worker threads count
as children of the span the main thread had open when they started (the
`sample_batch` that is waiting on its pool), and leaves running on different
threads at the same instant split that instant equally. So the self times of
all spans plus the time no span covers add up to the traced wall time, which
`analyse` checks against an independent union of the span intervals.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_MAX_THREADS = 64  # span ids are index * _MAX_THREADS + thread number


def _terms(args, kwargs, out):
    orders = args[3] if len(args) > 3 else kwargs["orders"]
    return math.prod(p + 1 for p in orders.p)


def _path_steps(args, kwargs, out):
    # reference-mesh path-steps: n_paths paths on 16x the finest level
    return args[3] * 16 * max(args[2])


def _bytes_out(args, kwargs, out):
    argv = list(args[0])
    return os.path.getsize(argv[argv.index("--out") + 1]) if "--out" in argv else 0


@dataclass(frozen=True)
class Site:
    """One traced function: where it is looked up and which metrics it feeds."""

    layer: str
    func: str  # attribute name; "Class.method" for a method
    modules: tuple[str, ...]  # stratint submodules the callers look it up in
    count: str | None  # per-layer metric counting calls
    self_s: str  # per-layer metric summing self time
    work: str | None = None  # per-layer metric summing work(args, kwargs, out)
    work_fn: Callable | None = None
    work_unit: str = "count"


SITES = (
    Site("rng", "normal_stream", ("sampler", "sde_demo", "oracle"),
         "calls", "self_s", "variates", lambda a, k, out: out.size),
    Site("basis", "basis_integrals", ("sampler", "oracle"),
         "integrals_calls", "integrals_self_s"),
    Site("basis", "phi_matrix", ("basis", "coefficients", "oracle", "cli"),
         "phi_calls", "phi_self_s", "phi_points", lambda a, k, out: out.shape[1]),
    Site("basis", "gauss_rule", ("basis", "coefficients", "oracle", "cli"),
         "gauss_calls", "gauss_self_s"),
    Site("kernel", "WeightPoly.value", ("kernel",),
         None, "weight_self_s", "weight_evals", lambda a, k, out: np.size(out)),
    Site("coefficients", "compute_tensor", ("coefficients", "cli"),
         "builds", "build_self_s", "entries", lambda a, k, out: out.data.size),
    Site("coefficients", "cache_store", ("cli",),
         "stores", "store_self_s", "bytes_written", lambda a, k, out: os.path.getsize(a[0]), "B"),
    Site("coefficients", "cache_load", ("cli",),
         "loads", "load_self_s", "bytes_read", lambda a, k, out: os.path.getsize(a[0]), "B"),
    Site("sampler", "sample_batch", ("sampler", "cli"), "batches", "batch_self_s"),
    Site("sampler", "draw_table", ("sampler", "sde_demo", "cli"), "tables", "table_self_s"),
    Site("sampler", "sample_truncated", ("sampler", "cli"),
         "contractions", "contract_self_s", "terms", _terms),
    Site("sampler", "sample_closed_form", ("sde_demo", "cli"),
         "closed_forms", "closed_form_self_s"),
    Site("oracle", "truncated_moment", ("oracle", "cli"), "moments", "moment_self_s"),
    Site("oracle", "enumerate_pair_partitions", ("oracle", "cli"),
         None, "moment_self_s", "matchings", lambda a, k, out: len(out)),
    Site("sde_demo", "convergence_study", ("sde_demo", "cli"),
         "studies", "study_self_s", "path_steps", _path_steps),
    Site("sde_demo", "integrate", ("sde_demo",),
         None, "integrate_self_s", "integrate_steps", lambda a, k, out: a[2]),
    Site("cli", "main", ("cli",), "calls", "self_s", "bytes_out", _bytes_out, "B"),
)

# Metrics computed from the per-site sums, as (name, unit, numerator, denominator, scale).
RATIOS = (
    ("rng.ns_per_variate", "ns", "rng.self_s", "rng.variates", 1e9),
    ("coefficients.us_per_entry", "us", "coefficients.build_self_s", "coefficients.entries", 1e6),
    ("sampler.ns_per_term", "ns", "sampler.contract_self_s", "sampler.terms", 1e9),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in a stable order."""
    units = {}
    for site in SITES:
        for key, unit in ((site.count, "count"), (site.work, site.work_unit), (site.self_s, "s")):
            if key:
                units[f"{site.layer}.{key}"] = unit
    units.update({name: unit for name, unit, *_ in RATIOS})
    units.update({"coefficients.cache_hits": "count", "coefficients.cache_misses": "count",
                  "coefficients.cache_hit_ratio": "ratio", "trace.unwrapped_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


class _ThreadLog:
    __slots__ = ("no", "stack", "site", "parent", "start", "end", "work")

    def __init__(self, no: int) -> None:
        self.no = no
        self.stack: list[int] = []
        self.site = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")


class Tracer:
    """Records spans for one traced round; install, run, uninstall, analyse."""

    def __init__(self, package) -> None:
        self._package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._main = self._log()
        self._saved: list[tuple[object, str, object]] = []
        self.wall = 0.0

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                if len(self._logs) >= _MAX_THREADS:
                    raise RuntimeError("too many traced threads")
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, sid: int, fn: Callable, work_fn: Callable | None) -> Callable:
        tracer, main = self, self._main

        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            idx = len(log.start)
            if stack:
                parent = stack[-1]
            elif log is not main and main.stack:
                parent = main.stack[-1]
            else:
                parent = -1
            log.site.append(sid)
            log.parent.append(parent)
            log.end.append(0.0)
            log.work.append(0.0)
            stack.append(idx * _MAX_THREADS + log.no)
            log.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                log.end[idx] = perf_counter()
                stack.pop()
            if work_fn is not None:
                log.work[idx] = work_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for sid, site in enumerate(SITES):
            for modname in site.modules:
                owner = getattr(self._package, modname)
                attr = site.func
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(sid, original, site.work_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; `parent` indexes into the same arrays."""
        sizes = [len(log.start) for log in self._logs]
        offset = np.cumsum([0] + sizes)
        gid = np.concatenate([np.frombuffer(log.parent, dtype=np.int64) for log in self._logs])
        known = np.maximum(gid, 0)
        flat_parent = np.where(
            gid >= 0, offset[known % _MAX_THREADS] + known // _MAX_THREADS, -1
        ).astype(np.int64)
        return {
            "site": np.concatenate([np.frombuffer(log.site, dtype=np.int32) for log in self._logs]),
            "parent": flat_parent,
            "thread": np.repeat(np.arange(len(self._logs)), sizes),
            "start": np.concatenate([np.frombuffer(log.start) for log in self._logs]),
            "end": np.concatenate([np.frombuffer(log.end) for log in self._logs]),
            "work": np.concatenate([np.frombuffer(log.work) for log in self._logs]),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Wall-time share of each span while it was a running leaf (see module doc)."""
    n = start.size
    times = np.concatenate([start, end])
    kind = np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])  # starts first on ties
    order = np.lexsort((kind, times))
    out = np.zeros(n)
    open_children = [0] * n
    is_open = [False] * n
    active: set[int] = set()
    parents = parent.tolist()
    times_l = times[order].tolist()
    events = order.tolist()
    prev = times_l[0] if n else 0.0
    for t, ev in zip(times_l, events):
        if active and t > prev:
            share = (t - prev) / len(active)
            for a in active:
                out[a] += share
        prev = t
        if ev < n:
            i = ev
            is_open[i] = True
            active.add(i)
            p = parents[i]
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                active.discard(p)
            else:
                parents[i] = -1
        else:
            i = ev - n
            is_open[i] = False
            active.discard(i)
            p = parents[i]
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    active.add(p)
    return out


def covered_time(start: np.ndarray, end: np.ndarray) -> float:
    """Length of the union of the span intervals."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    first = np.append(True, s[1:] > reach[:-1])  # span starts a new disjoint run
    last = np.append(first[1:], True)
    return float(np.sum(reach[last] - s[first]))


def analyse(tracer: Tracer) -> tuple[dict[str, float], float, dict[str, np.ndarray]]:
    """Per-layer metrics of one traced round, the self-time sum error, and the spans."""
    spans = tracer.spans()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    values = dict.fromkeys(metric_units(), 0.0)
    del values["trace.overhead_ratio"]  # needs the untraced rounds too
    for sid, site in enumerate(SITES):
        mine = spans["site"] == sid
        if site.count:
            values[f"{site.layer}.{site.count}"] += float(np.count_nonzero(mine))
        if site.work:
            values[f"{site.layer}.{site.work}"] += float(np.sum(spans["work"][mine]))
        values[f"{site.layer}.{site.self_s}"] += float(np.sum(own[mine]))
    for name, _, num, den, scale in RATIOS:
        values[name] = scale * values[num] / values[den] if values[den] else 0.0
    load = next(sid for sid, site in enumerate(SITES) if site.func == "cache_load")
    hits = float(np.count_nonzero((spans["site"] == load) & (spans["work"] > 0)))
    misses = values["coefficients.stores"]  # the CLI stores exactly when it missed
    values["coefficients.cache_hits"] = hits
    values["coefficients.cache_misses"] = misses
    values["coefficients.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    unwrapped = tracer.wall - covered_time(spans["start"], spans["end"])
    values["trace.unwrapped_s"] = unwrapped
    error = abs(float(np.sum(own)) + unwrapped - tracer.wall)
    return values, error, spans


__all__ = ["SITES", "Site", "Tracer", "analyse", "metric_units", "self_times", "covered_time"]
