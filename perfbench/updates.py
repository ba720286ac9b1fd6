"""updates-medlit: writes next to reads on a live tenant.

An ``IncrementalChase`` over a medlit tenant takes batches of
``update_stream(..., ops_per_batch=32)`` (default churn 0.45); after each
batch the certain answers of the five-query mix are read.  With 8-op
batches about half the batches undo a merge and rebuild the merged layer
(about 200 ms at 10^3 nodes) while the rest are absorbed in about 1 ms,
so the median jumps between the two modes from seed to seed; with 32-op
batches about three in four rebuild and the median is the rebuild cost.  The run
repeats cycles of a bootstrap plus :data:`CYCLE_BATCHES` batches until
the window closes.  Each cycle has its own tenant and update stream, both
drawn from the seed, and a fresh ``QueryEngine`` with the shipped
defaults, so no cycle reads answers cached by the one before.  A batch's
cost depends heavily on which merges its deletes undo, so one run pools
many tenants to make its median a property of the workload rather than
of one tenant.  At the end of every :data:`CHECK_EVERY`-th cycle the
live answers are compared with a from-scratch ``chase_relational`` +
``QueryEngine`` run on the current instance.  ``op_p50_ref`` is one
batch's apply; the printed ``ops_per_s`` counts batches per second of
apply, read and bootstrap time.  Chase, freeze, snapshot and solver do
little here.
"""

from __future__ import annotations

import time

from harness import (
    Context,
    Tracer,
    add_counters,
    describe,
    finish_layers,
    median,
    nested_hit_ratio,
    ratio,
    repeat_setup,
)

from repro.chase.relational_chase import chase_relational
from repro.engine.incremental import IncrementalChase, UpdateStats
from repro.engine.query import EvalStats, QueryEngine
from repro.graph.parser import parse_nre
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    update_stream,
    workload_queries,
)

FAMILY = "medlit"
NODES = 1_000
SMOKE_NODES = 100
CYCLE_BATCHES = 4
CHECK_EVERY = 3
MAX_CYCLES = 32
OPS_PER_BATCH = 32


def cycles(seed: int, nodes: int) -> list[tuple]:
    """``(instance, batches)`` per cycle, each from its own derived seed."""
    found = []
    for cycle in range(MAX_CYCLES):
        config = GeneratorConfig(FAMILY, nodes=nodes, seed=seed * 1000 + cycle)
        batches = list(
            update_stream(config, batches=CYCLE_BATCHES, ops_per_batch=OPS_PER_BATCH)
        )
        found.append((generate_instance(config), batches))
    return found


def from_scratch(setting, instance, queries) -> list[frozenset]:
    """The oracle: chase the current instance anew and answer the mix."""
    graph = chase_relational(
        setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
    ).expect_graph()
    engine = QueryEngine()
    domain = instance.active_domain()
    return [engine.answers_over(graph, query, domain) for query in queries]


def read(tracer, live, queries, engine, query_s) -> list[frozenset]:
    answers = []
    for index, query in enumerate(queries):
        result, seconds = tracer.timed(
            f"engine.query.q{index}", live.certain_answers, query, engine
        )
        answers.append(result.answers)
        query_s[index].append(seconds)
    return answers


def run(ctx: Context) -> None:
    nodes = SMOKE_NODES if ctx.smoke else NODES
    setting = scale_setting(FAMILY)
    queries = [parse_nre(text) for text in workload_queries(FAMILY)]
    generate_s: list[float] = []

    def build():
        start = time.perf_counter()
        with ctx.tracer.span("scenarios.generate"):
            inputs = cycles(ctx.seed, nodes)
        generate_s.append(time.perf_counter() - start)
        # Warm-up: one short cycle on a small tenant compiles the query
        # automata and touches every incremental code path.
        warm_config = GeneratorConfig(FAMILY, nodes=50, seed=ctx.seed + 1)
        warm = IncrementalChase(setting, generate_instance(warm_config), QueryEngine())
        for batch in update_stream(warm_config, batches=3, ops_per_batch=OPS_PER_BATCH):
            warm.apply_updates(batch)
            read(Tracer(False), warm, queries, None, [[] for _ in queries])
        return inputs

    inputs = repeat_setup(ctx, build)
    bootstrap_s, read_s = [], []
    query_s: list[list[float]] = [[] for _ in queries]
    totals = UpdateStats()
    eval_totals = EvalStats()
    live = None
    for rep in ctx.reps():
        cycle, position = divmod(rep, CYCLE_BATCHES)
        # Trace whole cycles, so traced and untraced batches sit at the
        # same positions in their streams (the first batch of a stream
        # has nothing earlier to delete).
        ctx.tracer.enabled = ctx.trace and cycle % 2 == 0
        instance, batches = inputs[cycle % MAX_CYCLES]
        if position == 0:
            engine = QueryEngine()
            live, seconds = ctx.tracer.timed(
                "engine.incremental.bootstrap", IncrementalChase, setting, instance, engine
            )
            bootstrap_s.append(seconds)
        start = time.perf_counter()
        with ctx.tracer.span("op.batch"):
            ctx.tracer.timed(
                "engine.incremental.apply",
                live.apply_updates,
                batches[position],
            )
        ctx.record_op(time.perf_counter() - start)
        start = time.perf_counter()
        with ctx.tracer.span("op.read"):
            answers = read(ctx.tracer, live, queries, engine, query_s)
        read_s.append(time.perf_counter() - start)
        if position == CYCLE_BATCHES - 1:
            with ctx.unmeasured():
                if cycle % CHECK_EVERY == 0:
                    ctx.attempted += 1
                    ctx.check(
                        answers == from_scratch(setting, live.instance, queries),
                        f"cycle {cycle}: live answers differ from the from-scratch chase",
                    )
                # The tenant is dropped before the next repetition's
                # garbage collection, so no batch pays for freeing it.
                add_counters(totals, live.stats)
                add_counters(eval_totals, engine.stats)
                live = engine = None
    if live is not None:
        add_counters(totals, live.stats)
        add_counters(eval_totals, engine.stats)
    ctx.finish_e2e()
    ctx.say(f"bootstrap_s {describe(bootstrap_s)}")
    ctx.say(f"update batch {describe(ctx.ops, 1000.0, 'ms')}")
    ctx.say(f"read {describe(read_s, 1000.0, 'ms')}")
    ctx.say(f"update stats {totals.summary()}")

    ctx.layers.update({
        "scenarios.generate_s": median(generate_s),
        "incremental.bootstrap_s": median(bootstrap_s),
        "incremental.apply_s": median(ctx.ops),
        "incremental.rebuild_ratio": ratio(totals.merged_rebuilds, totals.batches),
        "incremental.fast_delete_ratio": ratio(totals.fast_deletes, totals.deletes_applied),
        "incremental.egd_merges_per_batch": ratio(totals.egd_merges, totals.batches),
        "incremental.answer_patch_ratio": ratio(
            totals.answer_patches, totals.answer_patches + totals.answer_invalidations
        ),
        "engine.answers": sum(len(pairs) for pairs in answers),
        "engine.nested_hit_ratio": nested_hit_ratio(eval_totals),
    })
    for index, samples in enumerate(query_s):
        ctx.layers[f"engine.query_s.q{index}"] = median(samples)
    if ctx.trace:
        finish_layers(ctx)

