"""Shared machinery of the repository benchmark: timing, spans and reports.

Every workload module exposes ``run(ctx) -> None`` and fills in the
:class:`Context` it is given.  The end-to-end metrics (:data:`END_TO_END`)
and the per-layer metrics (:data:`PER_LAYER`) are the same for every
workload, so that each run prints the full set; a layer a workload
bypasses reports 0 for it.

The gated latency, ``op_p50_ref``, is the median operation time divided
by the typical time of :func:`reference_job`, which the same process runs
a few times before every operation and between its steps, all through
the run.  On a shared host a core's speed drifts by a third from one
minute to the next, so a bare wall time measures the neighbours; the
reference job, which uses nothing from the program, moves with the host
and not with the code under test.  The wall-clock figures are printed
beside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ref": "ref",
}
"""Metric name -> unit of the untraced run's JSON line (``--trace 0``)."""

LAYERS: tuple[str, ...] = (
    "scenarios",
    "chase",
    "graph",
    "engine.query",
    "engine.incremental",
    "service",
    "io",
    "solver",
)
"""The repository modules a span can be charged to (longest prefix wins)."""

PER_LAYER: dict[str, str] = {
    "scenarios.generate_s": "s",
    "chase.relational_s": "s",
    "chase.st_applications": "count",
    "chase.null_merges": "count",
    "chase.rounds": "count",
    "graph.freeze_s": "s",
    "graph.snapshot_save_s": "s",
    "graph.snapshot_load_s": "s",
    "graph.snapshot_bytes_per_edge": "B/edge",
    **{f"engine.query_s.q{index}": "s" for index in range(5)},
    "engine.answers": "count",
    "engine.nested_hit_ratio": "ratio",
    "incremental.bootstrap_s": "s",
    "incremental.apply_s": "s",
    "incremental.rebuild_ratio": "ratio",
    "incremental.fast_delete_ratio": "ratio",
    "incremental.egd_merges_per_batch": "count",
    "incremental.answer_patch_ratio": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.request_bytes": "B",
    "service.queue_wait_ms": "ms",
    "service.execute_ms": "ms",
    "service.generator_late_max_ms": "ms",
    "io.document_decode_s": "s",
    "solver.encode_s": "s",
    "solver.solve_s": "s",
    "solver.clauses": "count",
    "solver.variables": "count",
    "solver.conflicts": "count",
    "solver.decisions": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "self_s.benchmark": "s",
    "trace.layer_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
"""Metric name -> unit of the traced run's JSON line (``--trace 1``)."""

TAIL_LADDER: tuple[float, ...] = (0.999, 0.99, 0.95, 0.9, 0.75)

REFERENCE_JOBS = 3
"""Reference jobs per sample of the host (:meth:`Context.sample_host`)."""


def median(samples) -> float:
    """Median of a non-empty sample list (0.0 for an empty one)."""
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def trimmed_mean(samples) -> float:
    """Mean of the middle half of ``samples``: a sample that a burst on
    the host slowed does not move it, and, unlike the median, it moves
    smoothly with the share of time the host spends in a slow state.

    >>> trimmed_mean([1.0, 2.0, 3.0, 100.0])
    2.5
    >>> trimmed_mean([4.0])
    4.0
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was counted."""
    return part / whole if whole else 0.0


def nested_hit_ratio(stats) -> float:
    """Nested ``[.]`` test lookups an ``EvalStats`` answered from the memo."""
    return ratio(
        stats.nested_test_cache_hits, stats.nested_tests + stats.nested_test_cache_hits
    )


def add_counters(total, part) -> None:
    """Add the counters of stats dataclass ``part`` into ``total``."""
    for name, value in part.as_dict().items():
        setattr(total, name, getattr(total, name) + value)


def tail(samples) -> tuple[float, float] | None:
    """``(fraction, value)`` of the highest :data:`TAIL_LADDER` percentile
    with at least ten samples above it (nearest rank), or ``None`` when
    there is none (fewer than 40 samples).

    >>> tail(range(100))
    (0.9, 89)
    >>> tail(range(5)) is None
    True
    """
    ordered = sorted(samples)
    for fraction in TAIL_LADDER:
        rank = math.ceil(fraction * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return fraction, ordered[rank - 1]
    return None


def describe(samples, scale: float = 1.0, unit: str = "s") -> str:
    """``median`` plus the honest tail, with the sample count, for a line."""
    samples = [value * scale for value in samples]
    text = f"p50 {median(samples):.4g} {unit}"
    found = tail(samples)
    if found is not None:
        text += f", p{found[0] * 100:g} {found[1]:.4g} {unit}"
    return f"{text} (n={len(samples)})"


def reference_job(size: int = 6_000) -> int:
    """A fixed job of the kinds of work the program does -- tuple hashing,
    dict and set building, sorting, string joins and numpy gathers -- that
    calls nothing from the program.  About 8 ms on a 2-core VM."""
    buckets: dict[int, list] = {}
    for index in range(size):
        key = (index * 7919) % size
        buckets.setdefault(key % 499, []).append((key, index))
    seen = set()
    for bucket in buckets.values():
        bucket.sort()
        seen.update(pair[0] for pair in bucket)
    total = len(",".join(map(str, sorted(seen))))
    try:
        import numpy
    except ImportError:
        return total
    values = numpy.arange(size * 4, dtype=numpy.int64)
    picked = numpy.unique(values.take((values * 7919) % values.size) // 3)
    return total + int(picked.size)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or of its largest waited-for child)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(pairs) -> str:
    """A stable digest of an answer set (sorted ``repr`` of each pair)."""
    text = "\n".join(sorted(repr(pair) for pair in pairs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Span:
    """One benchmark-side span around a call into a repository module."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """In-memory spans around the benchmark's own calls into the program.

    Disabled (the untraced run), :meth:`span` costs one attribute test.
    A span's layer is the longest :data:`LAYERS` prefix of its name;
    spans matching no layer are the benchmark's own (``op.*``).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""
        self.extra: dict = {}
        """Further trace material written out with the spans."""

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(index, name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append(Span(len(self.spans), name, start, end, None, self.run))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span and return ``(result, seconds)``."""
        start = time.perf_counter()
        with self.span(name):
            result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    @staticmethod
    def layer_of(name: str) -> str:
        """The layer a span name is charged to.

        >>> Tracer.layer_of("engine.query.q3"), Tracer.layer_of("op.exchange")
        ('engine.query', 'benchmark')
        """
        matches = [
            layer for layer in LAYERS if name == layer or name.startswith(layer + ".")
        ]
        return max(matches, key=len) if matches else "benchmark"

    def root_time(self) -> float:
        """Total duration of the top-level spans (the traced operations)."""
        return sum(r.end - r.start for r in self.spans if r.parent is None)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.end - record.start
        totals = {layer: 0.0 for layer in (*LAYERS, "benchmark")}
        for record in self.spans:
            own = record.end - record.start - child_time[record.id]
            totals[self.layer_of(record.name)] += own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"spans": [vars(record) for record in self.spans], **self.extra}
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")


@dataclass
class Context:
    """What one workload run is given, and the figures it collects."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    tracer: Tracer = field(init=False)
    attempted: int = 0
    failed: int = 0
    ops: list[float] = field(default_factory=list)
    traced_ops: list[float] = field(default_factory=list)
    plain_ops: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    """Host samples: seconds of each :func:`reference_job`."""
    window_s: float = 0.0
    throughput: float = 0.0
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    _excluded_s: float = 0.0

    def __post_init__(self) -> None:
        self.tracer = Tracer(self.trace)

    def say(self, text: str) -> None:
        """A human-readable report line (stdout, before the JSON line)."""
        print(f"[{self.workload}] {text}", flush=True)

    def check(self, ok: bool, what: str) -> bool:
        """Count one failed operation when ``ok`` is false."""
        if not ok:
            self.failed += 1
            print(f"[{self.workload}] MISMATCH: {what}", file=sys.stderr, flush=True)
        return ok

    def sample_host(self, jobs: int = REFERENCE_JOBS) -> None:
        """Time ``jobs`` runs of :func:`reference_job` into :attr:`refs`,
        outside the measuring window, after one untimed run that brings
        its code and data back into the caches.  Workloads call this
        between the timed steps of an operation, so the samples meet the
        host in the same states, over the same stretch of time, as the
        operations.  The garbage collector is off meanwhile, so the
        program's heap does not add collections to the reference."""
        with self.unmeasured():
            reference_job()
            gc.disable()
            try:
                for _ in range(jobs):
                    start = time.perf_counter()
                    reference_job()
                    self.refs.append(time.perf_counter() - start)
            finally:
                gc.enable()

    def reps(self):
        """Yield repetition numbers until the measuring window closes.

        In the traced run, even repetitions are traced and odd ones are
        not, so the two medians give the tracing overhead.  The window
        closes after ``seconds`` of measured time: time spent in
        :meth:`unmeasured` blocks is left out.  So is a full garbage collection
        before each repetition, which keeps one repetition's garbage from
        being collected inside the next, and a sample of the host
        (:meth:`sample_host`) before each repetition and after the last.
        """
        start = self.mark()
        rep = 0
        while rep == 0 or self.measured_since(start) < self.seconds:
            with self.unmeasured():
                gc.collect()
            self.sample_host()
            self.tracer.enabled = self.trace and rep % 2 == 0
            self.tracer.run = f"{self.workload}-{rep}"
            yield rep
            rep += 1
        self.tracer.enabled = self.trace
        self.window_s = self.measured_since(start)
        self.sample_host()

    def mark(self) -> tuple[float, float]:
        """A starting point for :meth:`measured_since`."""
        return time.perf_counter(), self._excluded_s

    def measured_since(self, mark: tuple[float, float]) -> float:
        """Seconds since ``mark`` spent outside :meth:`unmeasured` blocks."""
        start, excluded = mark
        return time.perf_counter() - start - (self._excluded_s - excluded)

    @contextmanager
    def unmeasured(self):
        """A block (output checks) excluded from the measuring window."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded_s += time.perf_counter() - start

    def record_op(self, seconds: float) -> None:
        """One completed primary operation."""
        self.attempted += 1
        self.ops.append(seconds)
        if self.trace:
            (self.traced_ops if self.tracer.enabled else self.plain_ops).append(seconds)

    def finish_e2e(self, good_ops: int | None = None, rss_mb: float | None = None) -> None:
        """Fill the end-to-end figures from the recorded operations.

        ``good_ops`` (default: operations that did not fail) over the
        measuring window gives the printed :attr:`throughput`; ``rss_mb``
        (default: this process's peak) gives ``peak_rss_mb``.
        """
        good = len(self.ops) - self.failed if good_ops is None else good_ops
        self.throughput = good / self.window_s if self.window_s else 0.0
        self.e2e["op_p50_ref"] = median(self.ops) / trimmed_mean(self.refs)
        self.e2e["peak_rss_mb"] = peak_rss_mb() if rss_mb is None else rss_mb
        self.say(f"op latency {describe(self.ops, 1000.0, 'ms')}")
        self.say(
            f"op_p50_ref {self.e2e['op_p50_ref']:.4g} ref: op p50 over the "
            f"middle-half mean of the reference job's {describe(self.refs, 1000.0, 'ms')}"
        )
        self.say(
            f"ops_per_s {self.throughput:.4g} 1/s "
            f"({good} good ops in {self.window_s:.2f} s); "
            f"peak_rss_mb {self.e2e['peak_rss_mb']:.1f} MiB"
        )

    def result(self) -> dict:
        """The final JSON object (``--trace`` picks the metric family)."""
        names = PER_LAYER if self.trace else END_TO_END
        source = self.layers if self.trace else self.e2e
        if not self.trace and set(names) - set(source):
            raise RuntimeError(f"unset metrics: {sorted(set(names) - set(source))}")
        metrics = {
            name: {"value": float(source.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        }
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def repeat_setup(ctx: Context, build, times: int = 5, teardown=None):
    """Run ``build`` ``times`` times; record the median as ``setup_s``.

    Returns the last build's value; ``teardown`` (untimed) releases each
    earlier one.  Repeating makes the set-up figure a median, so work
    moved into set-up by a later change shows as a shift, not as noise.
    """
    durations, value = [], None
    for attempt in range(times):
        if attempt and teardown is not None:
            teardown(value)
        start = time.perf_counter()
        value = build()
        durations.append(time.perf_counter() - start)
    ctx.e2e["setup_s"] = median(durations)
    ctx.say(f"setup_s {describe(durations)}")
    return value


def finish_layers(ctx: Context) -> None:
    """Fill the tracing rows: self times, layer share, overhead, span count."""
    selfs = ctx.tracer.self_times()
    for layer, seconds in selfs.items():
        ctx.layers[f"self_s.{layer}"] = seconds
    layered = sum(seconds for layer, seconds in selfs.items() if layer != "benchmark")
    total = ctx.tracer.root_time()
    ctx.layers["trace.layer_share"] = layered / total if total else 0.0
    if ctx.traced_ops and ctx.plain_ops:
        ctx.layers["trace.overhead_ratio"] = (
            median(ctx.traced_ops) / median(ctx.plain_ops) - 1.0
        )
    ctx.layers["trace.spans"] = len(ctx.tracer.spans)
    ctx.say(
        "self time by layer: "
        + ", ".join(f"{layer} {seconds:.3f} s" for layer, seconds in selfs.items())
    )
    ctx.say(
        f"layer share of traced op time {ctx.layers['trace.layer_share']:.3f}; "
        f"tracing overhead {ctx.layers.get('trace.overhead_ratio', 0.0):+.2%} "
        f"(traced n={len(ctx.traced_ops)} vs untraced n={len(ctx.plain_ops)})"
    )
