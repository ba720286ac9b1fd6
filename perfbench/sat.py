"""sat-thm41: deciding existence through the Theorem 4.1 SAT reduction.

One operation clears the SAT pipelines, then decides
``pipeline_for(setting, instance).has_solution()`` for a medlit
downsample at 16 nodes and a social downsample at 4 nodes.  Each
repetition draws both downsamples anew from the seed, so no repetition
reuses another's encoding.  The encoding's cost grows faster than the
cube of the chased pattern's node count, which varies from 33 to 51 for
medlit at 16 nodes, so a downsample is kept only when its pattern has
the most common count (:data:`UNIVERSE`); otherwise the per-run median
would mostly measure which sizes the seed happened to draw.  The verdict
must be ``True`` and the witness must pass ``is_solution``.  Only this
workload reaches ``solver/`` (the service's ``exists``/``certain`` route
through the relational chase and naive evaluation on these settings);
its cost is the super-cubic bounded-universe encoding.

The pipeline's own references to ``chase_pattern``,
``encode_bounded_existence`` and ``make_solver`` (and the solver's
``solve``) are wrapped: in the untraced run to sample the host before
each step, outside the decision's time, and in the traced repetitions to
time each layer from outside on the same call path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import repro.core.satpipeline as satpipeline
from harness import Context, describe, finish_layers, median, repeat_setup

from repro.chase.pattern_chase import chase_pattern
from repro.core.satpipeline import clear_pipelines, pipeline_for
from repro.core.solution import is_solution
from repro.scenarios.scale import GeneratorConfig, generate_instance, scale_setting

SIZES = {"medlit": 16, "social": 4}
SMOKE_SIZES = {"medlit": 6, "social": 2}
UNIVERSE = {"medlit": 41, "social": 18}
"""Chased-pattern node count a downsample must have (the mode at SIZES)."""
MAX_REPS = 32


@contextmanager
def instrumented(tracer, timings: dict[str, float], pause=None):
    """Time the pipeline's layer calls while ``tracer`` is enabled, and
    call ``pause`` (untimed) before each of them."""
    if not tracer.enabled and pause is None:
        yield
        return
    originals = {
        name: getattr(satpipeline, name)
        for name in ("chase_pattern", "encode_bounded_existence", "make_solver")
    }

    def wrap(span_name, fn, key):
        def timed(*args, **kwargs):
            if pause is not None:
                pause()
            result, seconds = tracer.timed(span_name, fn, *args, **kwargs)
            timings[key] += seconds
            return result

        return timed

    def make_solver(*args, **kwargs):
        solver = wrap("solver.make", originals["make_solver"], "solve")(*args, **kwargs)
        solver.solve = wrap("solver.solve", solver.solve, "solve")
        return solver

    satpipeline.chase_pattern = wrap("chase.pattern", originals["chase_pattern"], "chase")
    satpipeline.encode_bounded_existence = wrap(
        "solver.encode", originals["encode_bounded_existence"], "encode"
    )
    satpipeline.make_solver = make_solver
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(satpipeline, name, fn)


def downsample(family: str, nodes: int, seed: int, universe: int | None):
    """The first instance drawn from ``seed`` whose pattern has ``universe``
    nodes (the first one at all when ``universe`` is ``None``)."""
    setting = scale_setting(family)
    for attempt in range(1000):
        instance = generate_instance(
            GeneratorConfig(family, nodes=nodes, seed=seed * 1000 + attempt)
        )
        if universe is None:
            return instance
        pattern = chase_pattern(setting.st_tgds, instance, alphabet=setting.alphabet)
        if len(pattern.expect_pattern().nodes()) == universe:
            return instance
    raise RuntimeError(f"no {family} downsample with {universe} pattern nodes")


def decide(setting, instance):
    clear_pipelines()
    pipeline = pipeline_for(setting, instance)
    return pipeline, pipeline.has_solution()


def run(ctx: Context) -> None:
    sizes = SMOKE_SIZES if ctx.smoke else SIZES
    settings = {family: scale_setting(family) for family in sizes}
    generate_s: list[float] = []

    def build():
        start = time.perf_counter()
        with ctx.tracer.span("scenarios.generate"):
            instances = [
                {
                    family: downsample(
                        family,
                        nodes,
                        ctx.seed * MAX_REPS + rep,
                        None if ctx.smoke else UNIVERSE[family],
                    )
                    for family, nodes in sizes.items()
                }
                for rep in range(MAX_REPS)
            ]
        generate_s.append(time.perf_counter() - start)
        # Warm-up: one decision per family on a two-node downsample.
        for family in sizes:
            warm = generate_instance(GeneratorConfig(family, nodes=2, seed=ctx.seed))
            decide(settings[family], warm)
        return instances

    instances = repeat_setup(ctx, build)
    timings = {"chase": 0.0, "encode": 0.0, "solve": 0.0}
    per_rep = {"encode": [], "solve": []}
    counts = {"clauses": [], "variables": [], "conflicts": [], "decisions": []}
    family_s = {family: [] for family in sizes}
    for rep in ctx.reps():
        before = dict(timings)
        outcomes = []
        # The untraced run samples the host between the pipeline's steps;
        # the samples' time is left out of the decision's.
        pause = None if ctx.trace else ctx.sample_host
        with ctx.tracer.span("op.decide"), instrumented(ctx.tracer, timings, pause):
            for family, instance in instances[rep % MAX_REPS].items():
                mark = ctx.mark()
                outcomes.append((family, instance, *decide(settings[family], instance)))
                family_s[family].append(ctx.measured_since(mark))
        ctx.record_op(sum(samples[-1] for samples in family_s.values()))
        if ctx.tracer.enabled:
            for key in per_rep:
                per_rep[key].append(timings[key] - before[key])
        with ctx.unmeasured():
            tally = dict.fromkeys(counts, 0)
            for family, instance, pipeline, verdict in outcomes:
                witness = pipeline.existence_witness()
                ctx.check(
                    verdict is True
                    and witness is not None
                    and is_solution(instance, witness, settings[family]),
                    f"rep {rep} {family}: no verified solution",
                )
                tally["clauses"] += pipeline.cnf.clause_count
                tally["variables"] += pipeline.cnf.variable_count
                tally["conflicts"] += pipeline.solver.stats.conflicts
                tally["decisions"] += pipeline.solver.stats.decisions
            for key, value in tally.items():
                counts[key].append(value)
            # Free this repetition's pipelines before the next one's
            # garbage collection, so no decision pays for freeing them.
            clear_pipelines()
            outcomes = pipeline = witness = None
    clear_pipelines()
    ctx.finish_e2e()
    ctx.say(f"sat_decide_s {describe(ctx.ops)}")
    for family, samples in family_s.items():
        ctx.say(f"{family} at {sizes[family]} nodes: {describe(samples)}")

    ctx.layers.update({
        "scenarios.generate_s": median(generate_s),
        "solver.encode_s": median(per_rep["encode"]),
        "solver.solve_s": median(per_rep["solve"]),
        **{f"solver.{key}": median(values) for key, values in counts.items()},
    })
    if ctx.trace:
        finish_layers(ctx)
