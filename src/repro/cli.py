"""Command-line interface: partition, analyze and simulate task sets.

Usage (after ``pip install -e .``)::

    python -m repro partition tasks.json --processors 4 --algorithm rmts
    python -m repro bounds tasks.json
    python -m repro simulate tasks.json --processors 4 --overhead 0.01
    python -m repro generate --n 12 --u-norm 0.8 --processors 4 -o tasks.json
    python -m repro serve --port 8787 --queue-limit 64 --store results.db
    python -m repro store stats results.db
    python -m repro search frontier --algorithm rmts --store results.db

Task files are JSON: either a list of ``{"cost": C, "period": T}`` objects
or a list of ``[C, T]`` pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._util.validation import (
    as_finite_float,
    check_nonnegative,
    check_positive,
)
from repro.core.bounds import (
    HarmonicChainBound,
    LiuLaylandBound,
    RBound,
    TBound,
    evaluate_bounds,
    light_task_threshold,
    rmts_guaranteed,
)
from repro.analysis.algorithms import PARTITIONERS
from repro.core.rmts_light import is_light_task_set
from repro.core.serialization import load_partition, save_partition
from repro.core.task import TaskSet
from repro.runner import jobs_arg
from repro.service.validation import parse_taskset_payload

#: Algorithm registry for the CLI — the same table the admission service
#: dispatches on (see :data:`repro.analysis.algorithms.PARTITIONERS`).
ALGORITHMS = PARTITIONERS

#: Cap on ``repro sweep`` grid levels: a step far below the grid's span
#: (or below float resolution, where ``u += step`` stops advancing)
#: would otherwise grow the grid without bound.
_MAX_SWEEP_LEVELS = 10_000

#: ``generate --preset`` names, spelled out so that building the parser
#: does not import taskgen (and NumPy) for every command; a test pins
#: them to :func:`repro.taskgen.workloads.preset_names`.
_PRESET_NAMES = ("automotive", "avionics", "infotainment", "robotics")

BOUNDS = {
    "ll": LiuLaylandBound,
    "hc": HarmonicChainBound,
    "t": TBound,
    "r": RBound,
}


def load_taskset(path: str) -> TaskSet:
    """Read a task set from a JSON file (dicts or [C, T] pairs).

    Malformed files (negative costs, cost > period, non-numeric fields,
    wrong shapes) raise the service's structured
    :class:`~repro.service.validation.RequestValidationError`, whose
    ``str()`` is a one-line summary naming every offending field — so the
    CLI exits with code 2 and that line instead of a traceback, on exactly
    the code path the admission service uses for request bodies.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return parse_taskset_payload(data, field_name=path)


def cmd_bounds(args) -> int:
    check_nonnegative("--processors", args.processors)
    ts = load_taskset(args.taskfile)
    n = len(ts)
    ev = evaluate_bounds(ts)
    print(f"N={n}, U={ts.total_utilization:.4f}, "
          f"max U_i={ts.max_utilization:.4f}, "
          f"harmonic chains K={ev.chains}")
    print(f"light task set (all U_i <= {light_task_threshold(n):.4f}): "
          f"{is_light_task_set(ts)}")
    for name, value in ev.values.items():
        print(f"  {name:>8}: {value:.4f} "
              f"(capped for RM-TS: {ev.capped(name):.4f})")
    print(f"  best D-PUB: {ev.best:.4f}")
    if args.processors:
        u_norm = ts.normalized_utilization(args.processors)
        verdict = (
            "GUARANTEED schedulable"
            if rmts_guaranteed(u_norm, ev.lam)
            else "not covered"
        )
        print(f"on M={args.processors}: U_M={u_norm:.4f} vs bound "
              f"{ev.lam:.4f} -> {verdict} by the RM-TS bound")
    return 0


def cmd_partition(args) -> int:
    ts = load_taskset(args.taskfile)
    algo = ALGORITHMS[args.algorithm]
    result = algo(ts, args.processors)
    print(result.processor_report())
    errors = result.validate() if result.success else []
    if errors:
        print("VALIDATION ERRORS:")
        for e in errors:
            print(f"  {e}")
        return 2
    if args.save:
        save_partition(result, args.save)
        print(f"partition saved to {args.save}")
    return 0 if result.success else 1


def cmd_simulate(args) -> int:
    from repro.sim.engine import simulate_partition

    if args.partition_file:
        result = load_partition(args.partition_file)
    else:
        if not args.taskfile or not args.processors:
            raise ValueError(
                "simulate needs either --partition-file or a task file "
                "plus --processors"
            )
        ts = load_taskset(args.taskfile)
        algo = ALGORITHMS[args.algorithm]
        result = algo(ts, args.processors)
    if not result.success:
        print(f"partitioning failed (unassigned: {result.unassigned_tids})")
        return 1
    sim = simulate_partition(
        result,
        horizon=args.horizon,
        record_trace=args.gantt,
        preemption_overhead=args.overhead,
        migration_overhead=args.overhead,
    )
    print(f"horizon {sim.horizon:g}: {sim.jobs_completed} jobs, "
          f"{len(sim.misses)} deadline misses")
    for miss in sim.misses[:10]:
        print(f"  MISS tau{miss.tid} job {miss.job_index} "
              f"(deadline {miss.deadline:g})")
    if args.gantt and sim.trace is not None:
        until = args.horizon or min(sim.horizon, 100.0)
        print(sim.trace.gantt_text(until=until))
    return 0 if sim.ok else 1


def cmd_sweep(args) -> int:
    from repro.analysis.acceptance import acceptance_sweep
    from repro.analysis.algorithms import standard_algorithms
    from repro.perf.telemetry import COUNTERS, write_bench_json
    from repro.taskgen.generators import TaskSetGenerator

    u_min = as_finite_float("--u-min", args.u_min)
    u_max = as_finite_float("--u-max", args.u_max)
    u_step = check_positive("--u-step", as_finite_float("--u-step", args.u_step))
    if u_max < u_min:
        raise ValueError("--u-max must be >= --u-min")
    if args.resume and not args.store:
        raise ValueError("--resume needs --store PATH")
    u_grid = []
    u = u_min
    while u <= u_max + 1e-9:
        if len(u_grid) == _MAX_SWEEP_LEVELS:
            raise ValueError(
                f"--u-step {u_step!r} gives more than {_MAX_SWEEP_LEVELS} "
                f"utilization levels"
            )
        u_grid.append(round(u, 6))
        u += u_step
    gen = TaskSetGenerator(n=args.n, period_model=args.periods)
    if args.light:
        gen = gen.light()
    algorithms = standard_algorithms(include_light=args.light)
    before = COUNTERS.snapshot()
    progress: dict = {}
    sweep = acceptance_sweep(
        algorithms,
        gen,
        processors=args.processors,
        u_grid=u_grid,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        store=args.store or None,
        resume=args.resume,
        progress=progress,
    )
    title = (
        f"acceptance sweep: M={args.processors}, N={args.n}, "
        f"{args.periods} periods, samples={args.samples}, jobs={args.jobs}"
    )
    print(sweep.table(title=title).to_text())
    if args.store:
        print(f"checkpoint: {progress['cells_resumed']} cells resumed, "
              f"{progress['cells_computed']} computed "
              f"(store: {args.store})")
    if args.bench_json:
        write_bench_json(
            args.bench_json,
            {
                "kind": "cli_sweep",
                "config": {
                    "n": args.n,
                    "processors": args.processors,
                    "periods": args.periods,
                    "light": args.light,
                    "u_grid": sweep.u_grid,
                    "samples": args.samples,
                    "seed": args.seed,
                    "jobs": args.jobs,
                },
                "counters": COUNTERS.delta_since(before),
                "curves": sweep.curves,
            },
        )
        print(f"counters and curves written to {args.bench_json}")
    return 0


def cmd_churn(args) -> int:
    from repro.cluster.events import ChurnConfig
    from repro.cluster.sweep import run_churn_grid
    from repro.perf.telemetry import write_bench_json

    if args.resume and not args.store:
        raise ValueError("--resume needs --store PATH")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    base = ChurnConfig(
        processors=args.processors,
        horizon=args.horizon,
        seed=args.seed,
        mean_lifetime=args.mean_lifetime,
        lifetime_model=args.lifetimes,
        u_set=args.u_set,
        k=args.k,
        queue_limit=args.queue_limit,
        max_wait=args.max_wait,
    )
    rows = run_churn_grid(
        base, policies, rates,
        jobs=args.jobs, store_path=args.store, resume=args.resume,
    )
    print(f"churn grid: M={args.processors}, horizon={args.horizon} "
          f"arrivals/cell, seed={args.seed}, k={args.k}, jobs={args.jobs}")
    header = (f"{'policy':>14} {'rate':>7} {'load':>6} {'reject':>7} "
              f"{'util':>6} {'mig/dep':>8} {'events':>7}")
    print(header)
    for row in rows:
        print(f"{row['policy']:>14} {row['arrival_rate']:>7g} "
              f"{row['offered_load']:>6.2f} {row['rejection_ratio']:>7.3f} "
              f"{row['steady_state_utilization']:>6.3f} "
              f"{row['migrations_per_departure']:>8.3f} {row['events']:>7}")
    if args.bench_json:
        report = {
            "kind": "churn_sweep",
            "config": {
                "processors": args.processors,
                "horizon": args.horizon,
                "seed": args.seed,
                "jobs": args.jobs,
                "policies": policies,
                "arrival_rates": rates,
                "k": args.k,
            },
            "rows": rows,
        }
        write_bench_json(args.bench_json, report)
        print(f"report written to {args.bench_json}")
    return 0


def cmd_serve(args) -> int:
    from repro.service.handlers import ServiceConfig
    from repro.service.server import run

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        analysis_timeout=args.analysis_timeout,
        cache_size=args.cache_size,
        jobs=args.jobs,
        max_batch=args.max_batch,
        inject_delay=args.inject_delay,
        store_path=args.store,
    )
    return run(config)


def cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def cmd_store(args) -> int:
    from repro.store.cli import main as store_main

    return store_main(args.store_args)


def cmd_bench(args) -> int:
    from repro.perf.bench_check import main as bench_main

    return bench_main(args.bench_args)


def cmd_search(args) -> int:
    from repro.search.cli import main as search_main

    return search_main(args.search_args)


def cmd_generate(args) -> int:
    from repro.taskgen.generators import TaskSetGenerator
    from repro.taskgen.workloads import build_workload

    if args.preset:
        ts = build_workload(
            args.preset,
            u_norm=args.u_norm,
            processors=args.processors,
            seed=args.seed,
        )
    else:
        gen = TaskSetGenerator(n=args.n, period_model=args.periods, k=args.k)
        if args.light:
            gen = gen.light()
        ts = gen.generate(
            u_norm=args.u_norm, processors=args.processors, seed=args.seed
        )
    payload = ts.to_dicts()
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(ts)} tasks (U={ts.total_utilization:.3f}) "
              f"to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parametric-utilization-bound multiprocessor scheduling "
        "toolkit (IPDPS 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate D-PUBs for a task set")
    p_bounds.add_argument("taskfile")
    p_bounds.add_argument("--processors", "-m", type=int, default=0)
    p_bounds.set_defaults(func=cmd_bounds)

    p_part = sub.add_parser("partition", help="partition a task set")
    p_part.add_argument("taskfile")
    p_part.add_argument("--processors", "-m", type=int, required=True)
    p_part.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHMS), default="rmts"
    )
    p_part.add_argument("--save", default=None,
                        help="write the partition to this JSON file")
    p_part.set_defaults(func=cmd_partition)

    p_sim = sub.add_parser("simulate", help="partition then simulate")
    p_sim.add_argument("taskfile", nargs="?", default=None)
    p_sim.add_argument("--processors", "-m", type=int, default=0)
    p_sim.add_argument("--partition-file", default=None,
                       help="simulate a saved partition instead of "
                       "partitioning taskfile")
    p_sim.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHMS), default="rmts"
    )
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--overhead", type=float, default=0.0,
                       help="per-preemption/migration overhead")
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII schedule")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep",
        help="acceptance-ratio sweep over the standard algorithm menu",
    )
    p_sweep.add_argument("--n", type=int, default=12)
    p_sweep.add_argument("--processors", "-m", type=int, default=4)
    p_sweep.add_argument(
        "--periods",
        choices=["loguniform", "uniform", "discrete", "harmonic", "kchain"],
        default="loguniform",
    )
    p_sweep.add_argument("--light", action="store_true",
                         help="light task sets (also adds RM-TS/light, SPA1)")
    p_sweep.add_argument("--u-min", type=float, default=0.55)
    p_sweep.add_argument("--u-max", type=float, default=1.0)
    p_sweep.add_argument("--u-step", type=float, default=0.05)
    p_sweep.add_argument("--samples", type=int, default=50)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--jobs", "-j", type=jobs_arg, default=1,
        help="worker processes (0 = all cores; curves are bit-identical "
        "at any jobs level)",
    )
    p_sweep.add_argument(
        "--bench-json", default=None,
        help="write the config, RTA counters and curves to this JSON file",
    )
    p_sweep.add_argument(
        "--store", default=None,
        help="journal per-cell results into this persistent store "
        "(see docs/storage.md)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip cells already journaled in --store; curves are "
        "bit-identical to an uninterrupted run",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the online admission-control HTTP service",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", "-p", type=int, default=8787,
                         help="0 picks an ephemeral port")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="max in-flight requests before 429 shedding "
                         "(>= 1)")
    p_serve.add_argument("--analysis-timeout", type=float, default=5.0,
                         help="per-request analysis deadline (finite "
                         "seconds > 0); "
                         "past it admit falls back to the bound-only "
                         "verdict marked degraded")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="LRU result-cache capacity (0 disables)")
    p_serve.add_argument(
        "--jobs", "-j", type=jobs_arg, default=1,
        help="worker processes for /v1/batch (0 = all cores)",
    )
    p_serve.add_argument("--max-batch", type=int, default=256,
                         help="max items accepted per /v1/batch request "
                         "(>= 1)")
    p_serve.add_argument("--inject-delay", type=float, default=0.0,
                         help=argparse.SUPPRESS)  # fault injection for tests
    p_serve.add_argument("--store", default=None,
                         help="persist the result cache in this sqlite "
                         "store so it survives restarts "
                         "(see docs/storage.md)")
    p_serve.set_defaults(func=cmd_serve)

    p_churn = sub.add_parser(
        "churn",
        help="simulate long-horizon arrival/departure churn (E16)",
    )
    p_churn.add_argument(
        "--policies", default="ff-rta,bf-rejoin,compact",
        help="comma-separated churn policies (see docs/churn.md)",
    )
    p_churn.add_argument(
        "--rates", default="0.008,0.014,0.018",
        help="comma-separated arrival rates (tenants per time unit)",
    )
    p_churn.add_argument("--processors", "-m", type=int, default=4)
    p_churn.add_argument("--horizon", type=int, default=100,
                         help="tenant arrivals per grid cell")
    p_churn.add_argument("--seed", type=int, default=0)
    p_churn.add_argument("--mean-lifetime", type=float, default=400.0)
    p_churn.add_argument(
        "--lifetimes", choices=["exponential", "pareto", "fixed"],
        default="exponential",
        help="tenant lifetime model (pareto = heavy-tailed, alpha 2)",
    )
    p_churn.add_argument("--u-set", type=float, default=0.5,
                         help="total utilization per tenant task set")
    p_churn.add_argument("--k", type=int, default=2,
                         help="migration budget per event")
    p_churn.add_argument("--queue-limit", type=int, default=8,
                         help="bounded wait queue for blocked arrivals")
    p_churn.add_argument("--max-wait", type=float, default=200.0,
                         help="simulated time before a queued set expires")
    p_churn.add_argument(
        "--jobs", "-j", type=jobs_arg, default=1,
        help="worker processes (0 = all cores; rows are bit-identical "
        "at any jobs level)",
    )
    p_churn.add_argument(
        "--store", default=None,
        help="journal every event into this persistent store "
        "(namespace churn:<config-sha256>; enables --resume)",
    )
    p_churn.add_argument(
        "--resume", action="store_true",
        help="replay journaled events from --store and compute only "
        "the remainder (final metrics are bit-identical)",
    )
    p_churn.add_argument(
        "--bench-json", default=None,
        help="write the grid + provenance stamp to this JSON file",
    )
    p_churn.set_defaults(func=cmd_churn)

    p_store = sub.add_parser(
        "store",
        help="inspect/maintain persistent result stores "
        "(stats, gc, verify, export, import)",
    )
    p_store.add_argument(
        "store_args",
        nargs=argparse.REMAINDER,
        help="forwarded to repro.store (see python -m repro store --help)",
    )
    p_store.set_defaults(func=cmd_store)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark artifact maintenance (drift check vs baselines)",
    )
    p_bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="forwarded to repro.perf.bench_check "
        "(see python -m repro bench --help)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_search = sub.add_parser(
        "search",
        help="frontier mapping + adversarial task-set search "
        "(see docs/search.md)",
    )
    p_search.add_argument(
        "search_args",
        nargs=argparse.REMAINDER,
        help="forwarded to repro.search "
        "(see python -m repro search --help)",
    )
    p_search.set_defaults(func=cmd_search)

    p_lint = sub.add_parser(
        "lint",
        help="run the domain static analyzer (see docs/static_analysis.md)",
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="forwarded to repro.lint (paths, --select/--ignore, --format, "
        "--list-rules, --bench-json)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_gen = sub.add_parser("generate", help="generate a random task set")
    p_gen.add_argument("--n", type=int, default=12)
    p_gen.add_argument("--u-norm", type=float, default=0.7)
    p_gen.add_argument("--processors", "-m", type=int, default=4)
    p_gen.add_argument(
        "--periods",
        choices=["loguniform", "uniform", "discrete", "harmonic", "kchain"],
        default="loguniform",
    )
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--light", action="store_true")
    p_gen.add_argument(
        "--preset",
        choices=_PRESET_NAMES,
        default=None,
        help="use a named realistic workload instead of random generation",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", default=None)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # argparse.REMAINDER does not capture a *leading* option token
        # ("repro lint --list-rules"), so forward everything verbatim.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "store":
        # Same REMAINDER caveat for "repro store --help" style invocations.
        from repro.store.cli import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.perf.bench_check import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "search":
        from repro.search.cli import main as search_main

        return search_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
