"""exchange-medlit: the one-shot relational-to-graph exchange.

One operation is ``chase_relational`` -> ``GraphDatabase.freeze`` -> the
five-query ``workload_queries("medlit")`` mix through a fresh
``QueryEngine(backend="csr")``; after it the universal solution goes
through ``save_snapshot``/``load_snapshot`` (the restore a user pays to
reopen it).  ``op_p50_ref`` is the exchange; the printed ``ops_per_s``
counts whole rounds, restore included.  A run exchanges
:data:`INSTANCES` source instances in turn, so its median is not the
cost of one instance the seed happened to draw.  Chase and query kernels
do most of the work; the service, incremental and solver layers are
bypassed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from harness import (
    Context,
    Tracer,
    describe,
    digest,
    finish_layers,
    median,
    nested_hit_ratio,
    repeat_setup,
)

from repro.chase.relational_chase import chase_relational
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.scenarios.scale import (
    GeneratorConfig,
    generate_instance,
    scale_setting,
    workload_queries,
)

FAMILY = "medlit"
NODES = 10_000
SMOKE_NODES = 300
WARM_NODES = 200
INSTANCES = 5
"""Source instances per run, exchanged in turn; instance ``k`` of seed
``s`` is generated from seed ``INSTANCES * s + k``."""
DIGESTS = Path(__file__).with_name("digests.json")


def exchange(tracer, setting, instance, queries, pause=None):
    """One exchange: ``(chase result, frozen graph, engine, answer sets,
    (chase s, freeze s, [query s]))``.  ``pause`` (untimed) runs between
    the timed steps."""
    pause = pause or (lambda: None)
    result, chase_s = tracer.timed(
        "chase.relational",
        chase_relational,
        setting.st_tgds,
        setting.egds(),
        instance,
        alphabet=setting.alphabet,
    )
    pause()
    frozen, freeze_s = tracer.timed("graph.freeze", result.expect_graph().freeze)
    engine = QueryEngine(backend="csr")
    answers, query_s = [], []
    for index, query in enumerate(queries):
        pause()
        pairs, seconds = tracer.timed(f"engine.query.q{index}", engine.pairs, frozen, query)
        answers.append(pairs)
        query_s.append(seconds)
    return result, frozen, engine, answers, (chase_s, freeze_s, query_s)


def answer_digests(seed: int, nodes: int) -> list[str]:
    """Digests of the five answer sets of one exchange (no timing)."""
    setting = scale_setting(FAMILY)
    instance = generate_instance(GeneratorConfig(FAMILY, nodes=nodes, seed=seed))
    queries = [parse_nre(text) for text in workload_queries(FAMILY)]
    answers = exchange(Tracer(False), setting, instance, queries)[3]
    return [digest(pairs) for pairs in answers]


def recorded_digests(seed: int, nodes: int) -> list[str] | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(f"{FAMILY}-n{nodes}", {}).get(str(seed))


def check_instance(ctx, seed, result, restored, answers, queries, nodes, full: bool) -> None:
    """Checks of an instance's first exchange: the chase succeeded, the
    answers match the digests recorded for generator seed ``seed`` and,
    when ``full``, the restored graph gives the same answers."""
    ctx.check(not result.failed, f"the medlit chase of seed {seed} failed")
    live = [digest(pairs) for pairs in answers]
    if full:
        fresh = QueryEngine(backend="csr")
        back = [digest(fresh.pairs(restored, query)) for query in queries]
        ctx.attempted += 1
        ctx.check(back == live, f"restored answers {back} differ from the live ones {live}")
    expected = recorded_digests(seed, nodes)
    if expected is None:
        ctx.say(f"no recorded digests for generator seed {seed} at {nodes} nodes")
    else:
        ctx.attempted += 1
        ctx.check(live == expected, f"seed {seed}: answers {live} != recorded {expected}")


def run(ctx: Context) -> None:
    nodes = SMOKE_NODES if ctx.smoke else NODES
    setting = scale_setting(FAMILY)
    queries = [parse_nre(text) for text in workload_queries(FAMILY)]
    snap_dir = ctx.workdir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    generate_s: list[float] = []

    seeds = [INSTANCES * ctx.seed + k for k in range(INSTANCES)]

    def build():
        start = time.perf_counter()
        with ctx.tracer.span("scenarios.generate"):
            instances = [
                generate_instance(GeneratorConfig(FAMILY, nodes=nodes, seed=seed))
                for seed in seeds
            ]
        generate_s.append(time.perf_counter() - start)
        # Warm-up: compile the query automata and touch every code path
        # once on a small tenant, so the timed runs start warm.
        warm = generate_instance(
            GeneratorConfig(FAMILY, nodes=WARM_NODES, seed=ctx.seed + 1)
        )
        frozen = exchange(Tracer(False), setting, warm, queries)[1]
        save_snapshot(frozen, str(snap_dir / "warm.snap"))
        load_snapshot(str(snap_dir / "warm.snap"))
        return instances

    instances = repeat_setup(ctx, build)
    chase_s, freeze_s, save_s, load_s = [], [], [], []
    query_s: list[list[float]] = [[] for _ in queries]
    first: dict[int, list] = {}
    path = str(snap_dir / "universal.snap")
    for rep in ctx.reps():
        which = rep % INSTANCES
        with ctx.tracer.span("op.exchange"):
            # The untraced run samples the host between the steps.
            result, frozen, engine, answers, timings = exchange(
                ctx.tracer, setting, instances[which], queries,
                None if ctx.trace else ctx.sample_host,
            )
        ctx.record_op(timings[0] + timings[1] + sum(timings[2]))
        chase_s.append(timings[0])
        freeze_s.append(timings[1])
        for index, seconds in enumerate(timings[2]):
            query_s[index].append(seconds)
        with ctx.tracer.span("op.restore"):
            _, seconds = ctx.tracer.timed(
                "graph.snapshot_save", save_snapshot, frozen, path
            )
            save_s.append(seconds)
            restored, seconds = ctx.tracer.timed(
                "graph.snapshot_load", load_snapshot, path
            )
            load_s.append(seconds)
        with ctx.unmeasured():
            ctx.attempted += 1
            ctx.check(
                restored.edges() == frozen.edges(),
                f"rep {rep}: the restored graph's edges differ from the live ones",
            )
            # A later exchange of an instance must repeat the first one's
            # answers (the frozensets' hashes are fixed by PYTHONHASHSEED).
            fingerprint = [(len(pairs), hash(pairs)) for pairs in answers]
            if which not in first:
                first[which] = fingerprint
                check_instance(
                    ctx, seeds[which], result, restored, answers, queries, nodes,
                    full=rep == 0,
                )
            else:
                ctx.check(fingerprint == first[which], f"rep {rep} answers differ")
            if rep == 0:
                # The per-layer counts are the first instance's.
                chase_stats, eval_stats = result.stats, engine.stats
                bytes_per_edge = os.path.getsize(path) / frozen.edge_count()
                answer_count = sum(len(pairs) for pairs in answers)
            # Nothing of this repetition stays alive into the next, so
            # every exchange runs on the same heap (a live earlier result
            # doubles the time the collector spends inside the chase).
            del result, frozen, engine, answers, restored
    ctx.finish_e2e()
    ctx.say(f"exchange_s {describe(ctx.ops)}")
    ctx.say(f"restore_s {describe(load_s)}")
    ctx.say(f"answers per query of seed {seeds[0]} {[count for count, _ in first[0]]}")

    ctx.layers.update({
        "scenarios.generate_s": median(generate_s),
        "chase.relational_s": median(chase_s),
        "chase.st_applications": chase_stats.st_applications,
        "chase.null_merges": chase_stats.null_merges,
        "chase.rounds": chase_stats.rounds,
        "graph.freeze_s": median(freeze_s),
        "graph.snapshot_save_s": median(save_s),
        "graph.snapshot_load_s": median(load_s),
        "graph.snapshot_bytes_per_edge": bytes_per_edge,
        "engine.answers": answer_count,
        "engine.nested_hit_ratio": nested_hit_ratio(eval_stats),
    })
    for index, samples in enumerate(query_s):
        ctx.layers[f"engine.query_s.q{index}"] = median(samples)
    if ctx.trace:
        finish_layers(ctx)
        spans = ctx.tracer.spans
        roots = {r.id for r in spans if r.name == "op.exchange"}
        total = sum(r.end - r.start for r in spans if r.id in roots)
        covered = sum(r.end - r.start for r in spans if r.parent in roots)
        ctx.say(f"chase + graph + engine.query self time cover "
                f"{covered / total:.3f} of the traced exchange_s")
