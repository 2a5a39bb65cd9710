"""Span tracing of holderlab's modules, done entirely from the benchmark.

`instrument` swaps the public entry points of each package module for
wrappers that record a span (layer name, parent span, start, end) around
every call, and restores the originals afterwards.  Nothing under `src/` is
edited.  Spans stay in memory as flat arrays and are written out once, when
the run ends.  A layer's self time is its spans' durations minus the parts
their child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from array import array

import numpy as np

# seqvec functions other modules import by name, and the layer each feeds.
SEQVEC_FUNCTIONS = {"distance": "seqvec.distance", "norm": "seqvec.norm",
                    "scale": "seqvec.scale_axpy", "axpy": "seqvec.scale_axpy",
                    "shift_right": "seqvec.scale_axpy"}
CONSTRUCTORS = ("from_dict", "from_sorted", "from_pairs")
# Retraction functions, as the catalog's maps call them.
RETRACTION_FUNCTIONS = ("radial_retract", "abs_retract", "positive_part",
                        "clamp_retract", "l1_sphere_retract")
# Check kinds whose records carry details["pairs_used"] out of req.pairs.
PAIR_KINDS = ("holder_ratio", "uniform_profile", "asymptotic_profile")


class Tracer:
    """In-memory spans with parent links, one flat array per field."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """fn, recording one span named `name` per call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


@dataclasses.dataclass
class Counters:
    """Counts taken at the wrapped boundaries, outside the spans."""

    width_sum: int = 0
    width_n: int = 0
    width_max: int = 0
    pairs_used: int = 0
    pairs_drawn: int = 0
    report_bytes: int = 0


class Patches:
    """Attribute swaps that `restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _require(owner: object, attr: str, expected: object = None) -> None:
    """Fail loudly when an entry point this tracer wraps has moved."""
    value = getattr(owner, attr, None)
    if value is None or (expected is not None and value is not expected):
        name = getattr(owner, "__name__", owner)
        raise RuntimeError(f"cannot instrument {name}.{attr}: not the entry "
                           f"point this tracer expects")


def instrument(tracer: Tracer) -> tuple[Patches, Counters]:
    """Wrap every layer boundary of holderlab; returns the patches (call
    `restore()` when done) and the counters the wrappers fill."""
    from holderlab import catalog, cli, domains, retractions, seqvec, verify

    patches = Patches()
    counters = Counters()

    SeqVec = seqvec.SeqVec
    for attr in CONSTRUCTORS:
        _require(SeqVec, attr)
        patches.set(SeqVec, attr, staticmethod(
            tracer.wrap("seqvec.construct", getattr(SeqVec, attr))))

    wrapped = {}
    for fname, layer in SEQVEC_FUNCTIONS.items():
        _require(seqvec, fname)
        wrapped[fname] = tracer.wrap(layer, getattr(seqvec, fname))
    traced_distance = wrapped["distance"]

    def distance(x, y, kind):
        a, b = len(x.support), len(y.support)
        counters.width_sum += a + b
        counters.width_n += 2
        if a > counters.width_max or b > counters.width_max:
            counters.width_max = max(a, b)
        return traced_distance(x, y, kind)

    wrapped["distance"] = distance
    for module in (verify, catalog, domains, retractions):
        for fname in SEQVEC_FUNCTIONS:
            if getattr(module, fname, None) is getattr(seqvec, fname):
                patches.set(module, fname, wrapped[fname])

    for attr in ("sample", "contains"):
        _require(domains.DomainSpec, attr)
        patches.set(domains.DomainSpec, attr, tracer.wrap(
            f"domains.{attr}", getattr(domains.DomainSpec, attr)))

    for fname in RETRACTION_FUNCTIONS:
        _require(catalog, fname, getattr(retractions, fname, None))
        patches.set(catalog, fname,
                    tracer.wrap("retractions", getattr(catalog, fname)))

    _require(cli, "build_map")
    traced_build = tracer.wrap("catalog.build_map", cli.build_map)

    def build_map(*args, **kwargs):
        T = traced_build(*args, **kwargs)
        return dataclasses.replace(T, apply=tracer.wrap("catalog.apply",
                                                        T.apply))

    _require(cli, "run_check")
    traced_check = tracer.wrap("verify.run_check", cli.run_check)

    def run_check(T, req, *args, **kwargs):
        rec = traced_check(T, req, *args, **kwargs)
        if rec.kind in PAIR_KINDS:
            counters.pairs_used += rec.details["pairs_used"]
            counters.pairs_drawn += req.pairs
        return rec

    _require(cli, "write_report")
    traced_write = tracer.wrap("report.write", cli.write_report)

    def write_report(report, out_dir):
        paths = traced_write(report, out_dir)
        counters.report_bytes += sum(os.path.getsize(p) for p in paths)
        return paths

    patches.set(cli, "build_map", build_map)
    patches.set(cli, "run_check", run_check)
    patches.set(cli, "write_report", write_report)
    return patches, counters


def layer_metrics(tracer: Tracer, counters: Counters, traced_wall: float,
                  untraced_wall: float) -> tuple[dict, dict]:
    """The per-layer metrics of one traced pass, and each layer's share of
    the traced wall time."""
    t = tracer.layer_totals()
    z = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    get = lambda name: t.get(name, z)  # noqa: E731
    metrics = {
        "domains.sample_calls": (get("domains.sample")["calls"], "count"),
        "domains.sample_self_s": (get("domains.sample")["self_s"], "s"),
        "domains.contains_calls": (get("domains.contains")["calls"], "count"),
        "domains.contains_self_s": (get("domains.contains")["self_s"], "s"),
        "seqvec.distance_calls": (get("seqvec.distance")["calls"], "count"),
        "seqvec.distance_self_s": (get("seqvec.distance")["self_s"], "s"),
        "seqvec.norm_self_s": (get("seqvec.norm")["self_s"], "s"),
        "seqvec.construct_calls": (get("seqvec.construct")["calls"], "count"),
        "seqvec.construct_self_s": (get("seqvec.construct")["self_s"], "s"),
        "seqvec.scale_axpy_self_s": (get("seqvec.scale_axpy")["self_s"], "s"),
        "seqvec.width_mean": (counters.width_sum / max(1, counters.width_n),
                              "coords"),
        "seqvec.width_max": (counters.width_max, "coords"),
        "catalog.apply_calls": (get("catalog.apply")["calls"], "count"),
        "catalog.apply_self_s": (get("catalog.apply")["self_s"], "s"),
        "catalog.build_map_s": (get("catalog.build_map")["total_s"], "s"),
        "retractions.calls": (get("retractions")["calls"], "count"),
        "retractions.self_s": (get("retractions")["self_s"], "s"),
        "verify.checks": (get("verify.run_check")["calls"], "count"),
        "verify.self_s": (get("verify.run_check")["self_s"], "s"),
        "verify.pair_yield": (counters.pairs_used / max(1, counters.pairs_drawn),
                              "ratio"),
        "cli.self_s": (get("cli.main")["self_s"], "s"),
        "report.write_s": (get("report.write")["total_s"], "s"),
        "report.bytes": (counters.report_bytes, "bytes"),
    }
    accounted = sum(v["self_s"] for v in t.values())
    metrics["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0,
                                       "ratio")
    metrics["trace.unexplained_share"] = (
        (traced_wall - accounted) / traced_wall, "ratio")
    shares = {name: v["self_s"] / traced_wall for name, v in sorted(t.items())}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            shares)
