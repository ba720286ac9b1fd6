"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exchange-medlit --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke            # all four workloads, tiny sizes

Each run re-executes this file in a fresh child process with
``PYTHONHASHSEED`` fixed, ``PYTHONPATH=src``, every inherited ``REPRO_*``
variable removed (so the program runs on its shipped defaults) and a
fresh ``REPRO_CACHE_DIR`` and snapshot directory under
``.perfbench/run-*``, removed afterwards.  The child prints report lines
and, last, one JSON object; with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics, and the spans are
written to ``.perfbench/traces/``.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS: dict[str, str] = {
    "exchange-medlit": "exchange",
    "updates-medlit": "updates",
    "service-mixed": "service",
    "sat-thm41": "sat",
}
"""Workload name -> module under ``perfbench/``."""

CHILD_TIMEOUT_S = 165.0
SMOKE_SECONDS = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes; without --workload runs all four workloads",
    )
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke and args.child is None:
        parser.error("--workload is required (or pass --smoke)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env(root: Path, workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    return env


def launch(args, workload: str, root: Path) -> tuple[int, dict | None]:
    """Run one workload in a fresh child; relay its output; parse its result."""
    runs = root / ".perfbench"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=runs))
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", str(workdir),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(SMOKE_SECONDS if args.smoke else args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    process = subprocess.Popen(
        command,
        cwd=root,
        env=child_env(root, workdir),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(process)
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1, None
    finally:
        stop(process)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1], flush=True)
        result = None
    if result is None:
        print(f"{workload}: no result line (exit {process.returncode})", file=sys.stderr)
        return process.returncode or 1, None
    return process.returncode, result


def stop(process: subprocess.Popen) -> None:
    """End a child's process group: SIGTERM (it then stops the server it
    started), SIGKILL after 10 s; wait for the child either way."""
    if process.poll() is not None:
        return
    os.killpg(process.pid, signal.SIGTERM)
    try:
        process.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()


def run_child(args) -> int:
    """Inside the fresh child: run the workload and print its JSON line."""
    from harness import Context

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=Path(args.child),
    )
    describe_defaults(ctx)
    module = importlib.import_module(WORKLOADS[args.workload])
    module.run(ctx)
    ctx.say(f"fail_ratio {ctx.failed / max(1, ctx.attempted):.4g} "
            f"({ctx.failed} of {ctx.attempted} operations failed)")
    if ctx.trace:
        where = Path(".perfbench/traces") / f"{args.workload}-seed{args.seed}.json"
        ctx.tracer.write(where)
        ctx.say(f"{len(ctx.tracer.spans)} spans written to {where}")
    print(json.dumps(ctx.result(), sort_keys=True), flush=True)
    return 0 if ctx.failed == 0 else 1


def describe_defaults(ctx) -> None:
    """Record the resolved defaults, so a change of default shows up."""
    from repro import kernels, telemetry
    from repro.engine.query import QueryEngine
    from repro.solver import resolve_solver_name

    ctx.say(
        f"defaults: kernel={kernels.resolve_kernel(None)} "
        f"backend={QueryEngine().backend} solver={resolve_solver_name(None)} "
        f"telemetry={'on' if telemetry.enabled() else 'off'}; "
        f"seed={ctx.seed} seconds={ctx.seconds:g} trace={int(ctx.trace)}"
        + (" smoke" if ctx.smoke else "")
    )


def main(argv=None) -> int:
    # SIGTERM raises SystemExit, so ``finally`` blocks stop what this
    # process started (the child, or the child's server) before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.child is not None:
        return run_child(args)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout of the repository "
            "(src/repro is missing here)",
            file=sys.stderr,
        )
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    code = 0
    for name in names:
        started = time.perf_counter()
        status, result = launch(args, name, root)
        if result is not None:
            line = json.dumps(result, sort_keys=True)
            # One workload: the result is the bare last line.  All four
            # (smoke): one labelled line each.
            print(line if args.workload else f"{name}: {line}", flush=True)
        print(f"{name}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        code = code or status or (0 if result and result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
