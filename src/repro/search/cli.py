"""``python -m repro search`` — frontier mapping, adversarial search, replay.

Three subcommands::

    python -m repro search frontier --algorithm rmts --n 12 --store s.db
    python -m repro search adversarial --rounds 6 --witness witness.json
    python -m repro search witness benchmarks/results/witness_rmts.json

``frontier`` bisects for the empirical acceptance frontier (optionally
also measuring the transition sharpness); ``adversarial`` runs the
cross-entropy search for low-margin rejections and can emit the best one
as a provenance-stamped witness artifact; ``witness`` replays such an
artifact and exits 0 only when every replay check passes.  With
``--store`` both searches journal their probes and resume across
invocations (see docs/search.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.runner import jobs_arg
from repro.search.adversarial import AdversarialConfig, adversarial_search
from repro.search.config import SearchConfig
from repro.search.frontier import map_frontier, measure_sharpness
from repro.search.witness import load_witness, replay_witness, save_witness
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "build_parser",
    "main",
    "cmd_frontier",
    "cmd_adversarial",
    "cmd_witness",
]

PERIOD_MODELS = ["loguniform", "uniform", "discrete", "harmonic", "kchain"]


def _generator(args) -> TaskSetGenerator:
    generator = TaskSetGenerator(n=args.n, period_model=args.periods)
    if args.light:
        generator = generator.light()
    return generator


def _with_store(args, run):
    """Run *run(store_or_none)*, opening/closing ``--store`` if given."""
    if not args.store:
        return run(None)
    store = ResultStore(args.store)
    try:
        return run(store)
    finally:
        store.close()


def cmd_frontier(args) -> int:
    config = SearchConfig(
        algorithm=args.algorithm,
        generator=_generator(args),
        processors=args.processors,
        seed=args.seed,
        confidence=args.confidence,
        level=args.level,
        half_width=args.half_width,
        u_min=args.u_min,
        u_max=args.u_max,
        batch=args.batch,
        max_samples_per_level=args.max_samples,
        max_rounds=args.max_rounds,
    )

    def run(store):
        result = map_frontier(
            config,
            store=store,
            jobs=args.jobs,
            max_new_probes=args.max_new_probes,
        )
        sharpness = None
        if args.sharpness:
            sharpness = measure_sharpness(config, store=store, jobs=args.jobs)
        return result, sharpness

    try:
        result, sharpness = _with_store(args, run)
    except BudgetExhausted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    payload = result.as_dict()
    if sharpness is not None:
        payload["sharpness"] = sharpness
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    theory = result.theory()
    print(
        f"{config.algorithm}: acceptance frontier at level "
        f"{config.level:g} (M={config.processors}, N={config.generator.n}, "
        f"seed={config.seed})"
    )
    print(
        f"  U* = {result.u_star:.4f} in [{result.lo:.4f}, {result.hi:.4f}] "
        f"(half-width {result.interval_half_width:.4f}, "
        f"target {config.half_width:g})"
    )
    print(
        f"  theory: Theta={theory['theta']:.4f} "
        f"cap={theory['rmts_cap']:.4f} -> measured frontier "
        f"{result.u_star - theory['rmts_cap']:+.4f} vs cap"
    )
    print(
        f"  probes: {result.probes_total} "
        f"({result.probes_resumed} resumed) vs grid-equivalent "
        f"{result.grid_equivalent_calls} -> "
        f"{result.efficiency_vs_grid:.1f}x fewer acceptance calls"
    )
    if result.undecided_levels:
        print(
            f"  note: {result.undecided_levels} level(s) hit the "
            f"{config.max_samples_per_level}-sample cap undecided"
        )
    if sharpness is not None:
        print(
            f"  sharpness: u({sharpness['high_level']:g}) = "
            f"{sharpness['u_at_high_level']:.4f}, "
            f"u({sharpness['low_level']:g}) = "
            f"{sharpness['u_at_low_level']:.4f} -> transition width "
            f"{sharpness['transition_width']:.4f}"
        )
    return 0


def cmd_adversarial(args) -> int:
    config = AdversarialConfig(
        algorithm=args.algorithm,
        generator=_generator(args),
        processors=args.processors,
        seed=args.seed,
        rounds=args.rounds,
        population=args.population,
        elite_frac=args.elite_frac,
        base_u_norm=args.base_u_norm,
        tolerance=args.tolerance,
    )

    def run(store):
        return adversarial_search(
            config,
            store=store,
            jobs=args.jobs,
            max_new_candidates=args.max_new_candidates,
        )

    try:
        result = _with_store(args, run)
    except BudgetExhausted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{config.algorithm}: adversarial search, {config.rounds} "
            f"round(s) x {config.population} candidates "
            f"({result.candidates_resumed} resumed)"
        )
        for entry in result.history:
            print(
                f"  round {entry['round']}: best margin "
                f"{entry['best_margin']:.4f}, "
                f"{entry['rejections']}/{config.population} verified "
                f"rejections"
            )
        if result.found:
            best = result.as_dict()["best"]
            print(
                f"  witness: rejected at U_M={best['u_reject']:.4f}, "
                f"cap={best['cap']:.4f}, margin={best['margin']:.4f} "
                f"(round {best['round']}, candidate {best['candidate']})"
            )
        else:
            print("  no verified rejection found")
    if not result.found:
        return 1
    if args.witness:
        save_witness(result, args.witness)
        print(f"witness written to {args.witness}")
    return 0


def cmd_witness(args) -> int:
    record = load_witness(args.witnessfile)
    verdict = replay_witness(record, jobs=args.jobs)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(
            f"witness {args.witnessfile}: U_M={verdict['u_norm']:.4f} vs "
            f"cap {verdict['cap']:.4f} (margin {verdict['margin']:.4f})"
        )
        for check in ("tasks_match", "rejected", "counters_match",
                      "above_cap"):
            print(f"  {check}: {verdict[check]}")
        print(f"  confirmed: {verdict['confirmed']}")
    return 0 if verdict["confirmed"] else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.algorithms import PARTITIONERS

    parser.add_argument(
        "--algorithm", "-a", choices=sorted(PARTITIONERS), default="rmts"
    )
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--processors", "-m", type=int, default=4)
    parser.add_argument("--periods", choices=PERIOD_MODELS,
                        default="loguniform")
    parser.add_argument("--light", action="store_true",
                        help="cap per-task utilization at Theta/(1+Theta)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", "-j", type=jobs_arg, default=1,
        help="worker processes (0 = all cores; results are bit-identical "
        "at any jobs level)",
    )
    parser.add_argument(
        "--store", default=None,
        help="journal probes into this persistent store "
        "(namespace search:<config-sha256>; reruns resume automatically)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro search",
        description="Optimizer-in-the-loop frontier mapping and "
        "adversarial task-set search (see docs/search.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_front = sub.add_parser(
        "frontier",
        help="bisect for the empirical acceptance frontier of an algorithm",
    )
    _add_common(p_front)
    p_front.add_argument("--confidence", type=float, default=0.95,
                         help="Wilson-interval confidence per level")
    p_front.add_argument("--level", type=float, default=0.5,
                         help="acceptance probability defining the frontier")
    p_front.add_argument("--half-width", type=float, default=0.02,
                         help="target half-width of the frontier bracket")
    p_front.add_argument("--u-min", type=float, default=0.5)
    p_front.add_argument("--u-max", type=float, default=1.0)
    p_front.add_argument("--batch", type=int, default=20,
                         help="probes per adaptive-sampling step")
    p_front.add_argument("--max-samples", type=int, default=160,
                         help="probe cap per utilization level")
    p_front.add_argument("--max-rounds", type=int, default=40,
                         help="bisection round cap")
    p_front.add_argument(
        "--max-new-probes", type=int, default=None,
        help="stop (exit 3) after computing this many new probes; a rerun "
        "with the same --store resumes where this run stopped",
    )
    p_front.add_argument("--sharpness", action="store_true",
                         help="also map levels 0.9/0.1 for the transition "
                         "width (reuses the same probe journal)")
    p_front.add_argument("--json", action="store_true",
                         help="print the full result as JSON")
    p_front.set_defaults(func=cmd_frontier)

    p_adv = sub.add_parser(
        "adversarial",
        help="cross-entropy search for rejections just above the bound cap",
    )
    _add_common(p_adv)
    p_adv.add_argument("--rounds", type=int, default=6)
    p_adv.add_argument("--population", type=int, default=12,
                       help="candidates per cross-entropy round")
    p_adv.add_argument("--elite-frac", type=float, default=0.25)
    p_adv.add_argument("--base-u-norm", type=float, default=0.4,
                       help="utilization at which candidate shapes are drawn")
    p_adv.add_argument("--tolerance", type=float, default=2e-3,
                       help="breakdown-bisection tolerance per candidate")
    p_adv.add_argument(
        "--max-new-candidates", type=int, default=None,
        help="stop (exit 3) after scoring this many new candidates",
    )
    p_adv.add_argument("--witness", default=None,
                       help="write the best rejection to this JSON artifact")
    p_adv.add_argument("--json", action="store_true",
                       help="print the full result as JSON")
    p_adv.set_defaults(func=cmd_adversarial)

    p_wit = sub.add_parser(
        "witness", help="replay a witness artifact and verify every check"
    )
    p_wit.add_argument("witnessfile", help="JSON artifact from "
                       "'search adversarial --witness'")
    p_wit.add_argument(
        "--jobs", "-j", type=jobs_arg, default=1,
        help="worker processes for the replay probes",
    )
    p_wit.add_argument("--json", action="store_true",
                       help="print the replay verdict as JSON")
    p_wit.set_defaults(func=cmd_witness)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
