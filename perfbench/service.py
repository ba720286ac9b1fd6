"""service-mixed: independent users sending requests as they arrive.

``repro serve --workers 1`` runs as its own subprocess (one worker leaves
the second core to this load generator).  The load is an open loop:
Poisson arrivals at :data:`RATE` requests per second, drawn from the
seed, over two connections.  Tenants come from both families.  The op
mix is ``exists``/``certain``/``evaluate_batch`` (:data:`OP_WEIGHTS`);
:data:`REPEAT` of the requests repeat exactly one of :data:`PREFILL`
requests sent before the window or an earlier one, so the result cache
serves them; the rest are fresh and run a chase on the worker.
``apply_updates`` is left out: on a tenant of this size it rebuilds the
Theorem 4.1 SAT pipeline for the updated instance (``advance_pipeline``
-> ``encode_bounded_existence``), which did not finish within 40 s on a
300-node medlit tenant, so every such request would time out;
updates-medlit measures the incremental layer directly.  Each latency is
timed from the request's due time, so a stall also charges the requests
queued behind it; the generator's own lateness is reported.
``op_p50_ref`` is the median latency over the reference job, which this
process runs for about a second just before and just after the window,
while the server is idle; the printed goodput counts responses that were
correct and arrived within :data:`LIMIT_S` of their due time, per
second.  Protocol validation, fingerprinting, document decode,
worker IPC and the result cache dominate; the incremental layer and the
solver are not reached.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    Context,
    describe,
    finish_layers,
    median,
    peak_rss_mb,
    ratio,
    repeat_setup,
)

from repro.io.json_io import document_from_dict
from repro.scenarios.scale import (
    GeneratorConfig,
    scale_document,
    workload_queries,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import canonical_bytes, encode_line, validate_request
from repro.service.workers import execute_request

FAMILIES = ("medlit", "social")
NODES = 300
SMOKE_NODES = 40
TENANTS_PER_FAMILY = 12
RATE = 16.0
REPEAT = 0.9
REPEAT_GAP_S = 1.0
PREFILL = 96
SMOKE_PREFILL = 10
LIMIT_S = 0.25
CONNECTIONS = 2
SAMPLES_PER_OP = 2
HOST_JOBS = 120
"""Reference jobs on each side of the window.  Sampling between requests
would not help: a cache hit's latency of a few ms holds the wake-ups of
three processes on two cores, which move with the host apart from the
speed of a core."""
OP_WEIGHTS = (("exists", 0.1), ("certain", 0.5), ("evaluate_batch", 0.4))
ANNOUNCE = re.compile(r"listening on ([0-9.]+):(\d+)")


class Server:
    """A ``repro serve`` subprocess, started and stopped by this workload."""

    def __init__(self, log: Path):
        # Its own session, so stop() can reach the pool's worker
        # processes too: a worker still computing when the server exits
        # would otherwise outlive it.  Its stderr goes to ``log``, which
        # the run prints when an operation failed.
        self.log = log
        with open(log, "ab") as sink:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "1"],
                stdout=subprocess.PIPE,
                stderr=sink,
                text=True,
                start_new_session=True,
            )
        line = self.process.stdout.readline()
        found = ANNOUNCE.search(line)
        if found is None:
            self.stop()
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port, timeout=60.0)

    def stop(self) -> None:
        """Shut the server down, then end and await its whole session."""
        if self.process.poll() is None:
            try:
                client = self.client()
                try:
                    client.request("shutdown")
                finally:
                    client.close()
                self.process.wait(timeout=30)
            except (OSError, ServiceError, subprocess.TimeoutExpired):
                pass
        group = self.process.pid
        for _ in range(100):
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            if self.process.poll() is None:
                self.process.wait()
            time.sleep(0.05)
        self.process.stdout.close()


def tenants(seed: int, nodes: int) -> list[tuple[str, dict]]:
    return [
        (family, scale_document(
            GeneratorConfig(family, nodes=nodes, seed=seed * 100 + index)))
        for family in FAMILIES
        for index in range(TENANTS_PER_FAMILY)
    ]


def schedule(seed: int, seconds: float, docs, cached: int):
    """``(prefill, plan)`` from ``seed``: the ``cached`` requests ``(op,
    params)`` sent before the window, and the timed requests ``(due offset
    s, op, params)`` over ``seconds``.

    Arrivals are a Poisson process conditioned on its count: the due
    times of ``RATE * seconds`` requests are sorted uniform draws.  The
    shares of repeats and of each op are fixed and only their order is
    drawn, so every seed offers the same mix.  A repeat copies a prefill
    request or a timed one due at least :data:`REPEAT_GAP_S` earlier, so
    it finds the answer cached; the prefill spreads the repeats over many
    distinct answers, whose sizes set the cost of a cache hit.
    """
    rng = random.Random(seed)

    def fresh(op: str) -> dict:
        family, document = docs[rng.randrange(len(docs))]
        mix = list(workload_queries(family))
        if op == "exists":
            return {"document": document}
        if op == "certain":
            return {"document": document, "query": rng.choice(mix)}
        return {"document": document, "queries": rng.sample(mix, 2)}

    def shares(count: int) -> list[str]:
        return [op for op, weight in OP_WEIGHTS for _ in range(round(weight * count))]

    prefill = [(op, fresh(op)) for op in shares(cached)]
    count = round(RATE * seconds)
    kinds = [(op, False) for op in shares(count - round(REPEAT * count))]
    kinds += [(op, True) for op in shares(round(REPEAT * count))]
    rng.shuffle(kinds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in kinds)
    issued = [(-REPEAT_GAP_S, op, params) for op, params in prefill]
    plan = []
    for due, (op, repeat) in zip(dues, kinds):
        if repeat:
            older = [e for e in issued if e[1] == op and e[0] <= due - REPEAT_GAP_S]
            plan.append((due, *rng.choice(older)[1:]))
            continue
        params = fresh(op)
        issued.append((due, op, params))
        plan.append((due, op, params))
    return prefill, plan


def shaped(op: str, params: dict, result: dict) -> bool:
    """The response has the shape its op promises (and found a solution)."""
    if op == "exists":
        return result.get("status") == "exists"
    if op == "certain":
        return isinstance(result.get("answers"), list)
    return len(result.get("results", ())) == len(params["queries"])


def wire_lines(plan) -> list[bytes]:
    """Each planned request as its encoded protocol line (unique ids)."""
    return [
        encode_line({"id": f"r{index}", "op": op, "params": params})
        for index, (_, op, params) in enumerate(plan)
    ]


def drive(server: Server, plan, lines: list[bytes], start: float) -> list[dict]:
    """Send ``plan`` open-loop over :data:`CONNECTIONS` connections.

    Requests go out pre-encoded and responses are kept as raw lines,
    decoded after the run: the load generator shares the two cores with
    the server and its worker, so the less it computes inside the
    window, the less it perturbs what it measures.
    """
    outcomes: list[dict] = [{} for _ in plan]
    cursor = iter(range(len(plan)))
    lock = threading.Lock()

    def sender():
        sock = None
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                delay = start + plan[index][0] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if sock is None:
                        sock = socket.create_connection((server.host, server.port), 60)
                        reader = sock.makefile("rb")
                    sock.sendall(lines[index])
                    raw = reader.readline()
                except OSError as error:
                    raw = repr(error).encode()
                    if sock is not None:
                        sock.close()
                    sock = None
                outcomes[index] = {"sent": sent, "done": time.perf_counter(), "raw": raw}
        finally:
            if sock is not None:
                sock.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, outcome in enumerate(outcomes):
        due = start + plan[index][0]
        outcome["late"] = outcome["sent"] - due
        outcome["latency"] = outcome["done"] - due
        try:
            envelope = json.loads(outcome.pop("raw"))
        except ValueError as error:
            envelope = {"ok": False, "error": {"message": repr(error)}}
        if envelope.get("id") != f"r{index}":
            envelope = {"ok": False, "error": {"message": f"bad response {envelope!r:.200}"}}
        outcome["envelope"] = envelope
    return outcomes


def registry_delta(before: dict, after: dict) -> dict:
    """Counter and histogram differences between two ``metrics`` snapshots."""
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    histograms = {}
    for name, snap in after["histograms"].items():
        old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
        histograms[name] = (snap["sum"] - old["sum"], snap["count"] - old["count"])
    return {"counters": counters, "histograms": histograms}


def run(ctx: Context) -> None:
    nodes = SMOKE_NODES if ctx.smoke else NODES

    def build():
        docs = tenants(ctx.seed, nodes)
        prefill, plan = schedule(
            ctx.seed, ctx.seconds, docs, SMOKE_PREFILL if ctx.smoke else PREFILL
        )
        lines = wire_lines(plan)
        server = Server(ctx.workdir / "server.log")
        # Warm-up on tenants outside the plan: the worker compiles the
        # query automata and imports every handler before timing starts.
        warm_docs = tenants(ctx.seed + 50_000, nodes)[::TENANTS_PER_FAMILY]
        try:
            with server.client() as client:
                client.ping()
                for family, document in warm_docs:
                    client.exists(document)
                    client.evaluate_batch(document, list(workload_queries(family)))
        except BaseException:
            server.stop()
            raise
        return docs, prefill, plan, lines, server

    docs, prefill, plan, lines, server = repeat_setup(
        ctx, build, teardown=lambda built: built[-1].stop()
    )
    try:
        with server.client() as client:
            for op, params in prefill:
                client.call(op, params)
            before = client.metrics()["metrics"]
        ctx.sample_host(HOST_JOBS)
        start = time.perf_counter()
        outcomes = drive(server, plan, lines, start)
        ctx.window_s = max(o["done"] for o in outcomes) - start
        ctx.sample_host(HOST_JOBS)
        with server.client() as client:
            after = client.metrics()["metrics"]
            traces = client.traces(limit=64)["traces"]
    finally:
        server.stop()

    good, samples = 0, {op: 0 for op, _ in OP_WEIGHTS}
    for (due, op, params), outcome in zip(plan, outcomes):
        envelope = outcome["envelope"]
        ctx.attempted += 1
        ctx.ops.append(outcome["latency"])
        ok = envelope.get("ok") is True
        if not ctx.check(ok, f"{op} failed: {envelope.get('error')}"):
            continue
        if not ctx.check(shaped(op, params, envelope["result"]), f"{op}: malformed result"):
            continue
        if not envelope.get("cached") and samples[op] < SAMPLES_PER_OP:
            samples[op] += 1
            normal = validate_request({"id": "x", "op": op, "params": params}).params
            direct = canonical_bytes(execute_request(op, normal))
            if not ctx.check(
                canonical_bytes(envelope["result"]) == direct,
                f"{op}: served result differs from execute_request",
            ):
                continue
        if outcome["latency"] <= LIMIT_S:
            good += 1
    # The program's memory: the server and its worker (waited for by
    # stop()), not this load generator and its in-process checks.
    ctx.finish_e2e(good_ops=good, rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN))
    late = [max(0.0, outcome["late"]) for outcome in outcomes]
    hits = sum(1 for o in outcomes if o["envelope"].get("cached"))
    ctx.say(f"service latency from due time {describe(ctx.ops, 1000.0, 'ms')}")
    ctx.say(f"service_goodput_rps {ctx.throughput:.4g} 1/s "
            f"({good}/{len(plan)} within {LIMIT_S * 1000:.0f} ms, offered {RATE:g}/s)")
    ctx.say(f"cache hits {hits}/{len(plan)}; direct comparisons {samples}")
    ctx.say(f"generator lateness {describe(late, 1000.0, 'ms')}, "
            f"max {max(late) * 1000:.1f} ms")
    if ctx.failed:
        print(server.log.read_text(errors="replace")[-4000:], file=sys.stderr)

    delta = registry_delta(before, after)
    counters, histograms = delta["counters"], delta["histograms"]
    wait_sum, wait_n = histograms.get("service.queue_wait_seconds", (0.0, 0))
    total_sum, total_n = histograms.get("service.request_seconds", (0.0, 0))
    decode_s = []
    for _, document in docs:
        begin = time.perf_counter()
        with ctx.tracer.span("io.document_decode"):
            document_from_dict(document)
        decode_s.append(time.perf_counter() - begin)
    nested = counters.get("engine.nested_tests", 0) + counters.get(
        "engine.nested_test_cache_hits", 0
    )
    ctx.layers.update({
        "service.cache_hit_ratio": ratio(
            counters.get("service.cache_hits", 0), counters.get("service.requests", 0)
        ),
        "service.request_bytes": median(len(line) for line in lines),
        "service.queue_wait_ms": 1000.0 * ratio(wait_sum, wait_n),
        "service.execute_ms": 1000.0 * ratio(total_sum - wait_sum, total_n),
        "service.generator_late_max_ms": max(late) * 1000.0,
        "io.document_decode_s": median(decode_s),
        "chase.st_applications": counters.get("chase.st_applications", 0),
        "chase.null_merges": counters.get("chase.null_merges", 0),
        "chase.rounds": counters.get("chase.rounds", 0),
        "engine.nested_hit_ratio": ratio(
            counters.get("engine.nested_test_cache_hits", 0), nested
        ),
        "solver.conflicts": counters.get("solver.conflicts", 0),
        "solver.decisions": counters.get("solver.decisions", 0),
    })
    if ctx.trace:
        for (due, op, params), outcome in zip(plan, outcomes):
            ctx.tracer.add(f"service.{op}", outcome["sent"], outcome["done"])
        ctx.tracer.extra["worker_traces"] = traces
        ctx.say(f"queue wait {ctx.layers['service.queue_wait_ms']:.2f} ms, "
                f"execute {ctx.layers['service.execute_ms']:.2f} ms "
                f"(means over {total_n} computed requests); "
                f"{len(traces)} stitched worker traces kept")
        finish_layers(ctx)
