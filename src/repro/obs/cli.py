"""``python -m repro obs`` — render flushed trace files.

``summarize TRACE.jsonl`` aggregates a JSONL span file (written by
:func:`repro.obs.trace.flush_jsonl`, e.g. by ``repro sweep --trace-out``)
into a per-stage breakdown, the top-N slowest individual spans, and an
indented tree of one trace.  Self-time is a span's duration minus the
summed durations of its direct children, so a stage that merely wraps
others does not dominate the ranking.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import load_jsonl

__all__ = [
    "build_parser",
    "main",
    "pick_trace",
    "render_tree",
    "stage_breakdown",
    "summarize_payload",
]


def stage_breakdown(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-span-name aggregate rows, sorted by total self-time.

    Each row: ``name, count, total_s, self_s, mean_s, max_s``.  Durations
    of spans with missing/invalid ``dur`` count as zero rather than
    failing — traces may be truncated mid-flush.
    """
    child_time: Dict[Optional[str], float] = defaultdict(float)
    for record in spans:
        child_time[record.get("parent")] += float(record.get("dur") or 0.0)
    rows: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        name = str(record.get("name", "<unnamed>"))
        dur = float(record.get("dur") or 0.0)
        self_s = max(0.0, dur - child_time.get(record.get("span"), 0.0))
        row = rows.setdefault(
            name,
            {"name": name, "count": 0, "total_s": 0.0, "self_s": 0.0,
             "max_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += self_s
        row["max_s"] = max(row["max_s"], dur)
    out = sorted(rows.values(), key=lambda r: -r["self_s"])
    for row in out:
        row["mean_s"] = row["total_s"] / row["count"]
        for key in ("total_s", "self_s", "mean_s", "max_s"):
            row[key] = round(row[key], 6)
    return out


def pick_trace(
    spans: Sequence[Dict[str, Any]], trace_id: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Spans of one trace: the requested id, else the largest trace.

    Raises :class:`ValueError` when the requested id is absent.
    """
    by_trace: Counter = Counter(r.get("trace") for r in spans)
    if trace_id is None:
        if not by_trace:
            return []
        trace_id = by_trace.most_common(1)[0][0]
    elif trace_id not in by_trace:
        known = ", ".join(sorted(str(t) for t in by_trace))
        raise ValueError(f"trace {trace_id!r} not in file (traces: {known})")
    return [r for r in spans if r.get("trace") == trace_id]


def render_tree(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Indented one-trace tree, children under parents, ordered by t0.

    Spans whose parent is missing from the file (ring-buffer eviction,
    cross-process roots) are rendered as roots.
    """
    by_id = {r.get("span"): r for r in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        parent = record.get("parent")
        children[parent if parent in by_id else None].append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: float(r.get("t0") or 0.0))

    lines: List[str] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        dur_ms = float(record.get("dur") or 0.0) * 1000.0
        attrs = record.get("attrs") or {}
        suffix = ""
        if attrs:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            suffix = f"  [{inner}]"
        lines.append(
            f"{'  ' * depth}{record.get('name', '<unnamed>')}  "
            f"{dur_ms:9.3f} ms  (pid {record.get('pid', '?')}){suffix}"
        )
        for child in children.get(record.get("span"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines


def summarize_payload(
    spans: Sequence[Dict[str, Any]],
    *,
    top: int = 10,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The full summary as one JSON-ready dict (what ``--format json``
    prints)."""
    traces = sorted(set(str(r.get("trace")) for r in spans))
    slowest = sorted(
        spans, key=lambda r: -float(r.get("dur") or 0.0)
    )[: max(0, top)]
    selected = pick_trace(spans, trace_id)
    return {
        "spans_total": len(spans),
        "traces": traces,
        "pids": sorted(set(int(r.get("pid") or 0) for r in spans)),
        "stages": stage_breakdown(spans),
        "slowest": [
            {
                "name": r.get("name"),
                "dur_s": round(float(r.get("dur") or 0.0), 6),
                "trace": r.get("trace"),
                "span": r.get("span"),
                "pid": r.get("pid"),
                "attrs": r.get("attrs") or {},
            }
            for r in slowest
        ],
        "tree_trace": selected[0].get("trace") if selected else None,
        "tree": render_tree(selected),
    }


def _print_text(summary: Dict[str, Any], *, show_tree: bool) -> None:
    print(
        f"{summary['spans_total']} spans, "
        f"{len(summary['traces'])} trace(s), "
        f"{len(summary['pids'])} pid(s)"
    )
    print()
    print(f"{'stage':<24} {'count':>7} {'total s':>10} "
          f"{'self s':>10} {'mean s':>10} {'max s':>10}")
    for row in summary["stages"]:
        print(
            f"{row['name']:<24} {row['count']:>7} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['mean_s']:>10.4f} "
            f"{row['max_s']:>10.4f}"
        )
    if summary["slowest"]:
        print()
        print("slowest spans:")
        for entry in summary["slowest"]:
            attrs = entry["attrs"]
            suffix = ""
            if attrs:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                suffix = f"  [{inner}]"
            print(f"  {entry['dur_s']:>10.4f}s  {entry['name']}"
                  f"  (pid {entry['pid']}){suffix}")
    if show_tree and summary["tree"]:
        print()
        print(f"trace {summary['tree_trace']}:")
        for line in summary["tree"]:
            print(f"  {line}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Inspect observability artifacts "
        "(see docs/observability.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser(
        "summarize", help="aggregate a flushed TRACE.jsonl span file"
    )
    p_sum.add_argument("tracefile", help="JSONL file from flush_jsonl()")
    p_sum.add_argument("--top", type=int, default=10,
                       help="how many slowest spans to list")
    p_sum.add_argument("--format", choices=["text", "json"], default="text")
    p_sum.add_argument("--no-tree", action="store_true",
                       help="skip the trace-tree rendering")
    p_sum.add_argument("--trace", default=None,
                       help="render this trace id's tree (default: largest)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spans = load_jsonl(args.tracefile)
        summary = summarize_payload(
            spans, top=args.top, trace_id=args.trace
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        if args.no_tree:
            summary.pop("tree")
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_text(summary, show_tree=not args.no_tree)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
