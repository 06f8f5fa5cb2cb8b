#!/usr/bin/env python
"""Capture, verify and render ``repro.tracelog`` binary traces.

Subcommands::

    capture  run a named cell (fig6 | chaos) with tracing on
    verify   replay a trace from its embedded run metadata and compare
             fingerprints; exits non-zero with a divergence report on
             mismatch — the CI trace-replay check
    dump     print a trace's metadata and events (tolerates truncated
             traces from crashed runs)
    gantt    vCPU<->pCPU occupancy timeline with freeze edges
             (ASCII to stdout; --svg writes a standalone SVG)
    stats    event volumes and wakeup-to-run latency distributions
    overhead tracing overhead on a fig6 cell, from interleaved
             untraced/traced pairs normalized for host speed; exits
             non-zero above 10 % or when tracing changes a result

Examples::

    python scripts/trace_tools.py capture fig6 --out fig6.rtl --scale 0.2
    python scripts/trace_tools.py verify fig6.rtl
    python scripts/trace_tools.py gantt fig6.rtl --svg fig6.svg
    python scripts/trace_tools.py overhead
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.runner import positive_scale  # noqa: E402
from repro.experiments.setups import Config  # noqa: E402
from repro.tracelog import codec  # noqa: E402
from repro.tracelog.replay import capture_run, replay_verify  # noqa: E402

#: Untraced/traced pairs the overhead check runs, and the bound on the
#: median of their normalized traced/untraced time ratios.
OVERHEAD_PAIRS = 16
MAX_OVERHEAD_RATIO = 1.10


def _load(path: str, strict: bool):
    try:
        return codec.load(path, strict=strict)
    except codec.TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.tracelog import cells

    categories = None
    if args.categories:
        categories = frozenset(
            c.strip() for c in args.categories.split(",") if c.strip()
        )
    if args.cell == "fig6":
        fn = cells.fig6_cell
        kwargs = {
            "app": args.app,
            "config": args.config,
            "seed": args.seed,
            "work_scale": args.scale,
            "scheduler": args.scheduler,
        }
    else:
        fn = cells.chaos_cell
        kwargs = {
            "profile": args.profile,
            "app": args.app,
            "seed": args.seed,
            "work_scale": args.scale,
            "scheduler": args.scheduler,
        }
    capture_run(fn, kwargs, args.out, categories=categories)
    _, records = codec.load(args.out)
    print(f"captured {len(records)} events to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = replay_verify(args.trace)
    except (codec.TraceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.match else 1


def _cmd_dump(args: argparse.Namespace) -> int:
    meta, records = _load(args.trace, strict=not args.lenient)
    import json

    print(f"# {args.trace}: {len(records)} events")
    print(f"# meta: {json.dumps(meta, sort_keys=True)}")
    for record in records:
        if args.category and record.category != args.category:
            continue
        print(record)
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.tracelog.render import ascii_gantt, svg_gantt

    _, records = _load(args.trace, strict=False)
    if args.svg:
        Path(args.svg).write_text(svg_gantt(records))
        print(f"wrote {args.svg}")
    else:
        print(ascii_gantt(records, width=args.width))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.tracelog.stats import render_stats

    _, records = _load(args.trace, strict=False)
    print(render_stats(records))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    """Median normalized traced/untraced time of a fig6 cell over pairs.

    Each run goes through the end-to-end benchmark's ``run_sampled``,
    which divides the cell's time by in-cell samples of a fixed reference
    kernel, so host-speed drift during a run cancels.  The pairs alternate
    which side runs first, so slower drift loads neither side.
    """
    sys.path.append(str(REPO / "benchmarks" / "e2e"))
    from e2e_cells import make_cell
    from e2e_worker import run_sampled
    from repro.tracelog.capture import capture_to

    cell = make_cell("npb_fig6", app="cg", config="VSCALE", seed=3, work_scale=0.5)
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        # One trace path for every traced run: the writer truncates it.
        path = str(Path(tmp) / "overhead.rtl")

        def traced() -> dict:
            with capture_to(path):
                return run_sampled(cell)

        # Pay imports and first-call costs before anything is timed.
        run_sampled(cell)
        traced()
        for pair in range(OVERHEAD_PAIRS):
            if pair % 2:
                base, trace = run_sampled(cell), traced()
            else:
                trace, base = traced(), run_sampled(cell)
            for record in (base, trace):
                if "error" in record:
                    print(f"error: pair {pair}: {record['error']}", file=sys.stderr)
                    return 1
            if trace["digest"] != base["digest"]:
                print(f"error: pair {pair}: tracing changed the cell's result", file=sys.stderr)
                return 1
            ratios.append(trace["norm_s"] / base["norm_s"])
            print(
                f"pair {pair:2d}: untraced {base['norm_s']:.3f} s, "
                f"traced {trace['norm_s']:.3f} s, ratio {ratios[-1]:.3f}"
            )
    median = statistics.median(ratios)
    print(
        f"tracing overhead: median {median - 1:+.1%} over {OVERHEAD_PAIRS} pairs "
        f"(min {min(ratios) - 1:+.1%}, max {max(ratios) - 1:+.1%}; "
        f"bound {MAX_OVERHEAD_RATIO - 1:+.0%})"
    )
    return 0 if median <= MAX_OVERHEAD_RATIO else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="trace_tools", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="run a cell with tracing on")
    p.add_argument("cell", choices=("fig6", "chaos"))
    p.add_argument("--out", required=True, help="trace output path")
    p.add_argument("--app", default="cg")
    p.add_argument(
        "--config", default="VSCALE", choices=[c.name for c in Config], help="fig6 config name"
    )
    p.add_argument("--profile", default="crash", help="chaos fault profile")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--scale", type=positive_scale, default=0.2)
    p.add_argument("--scheduler", default=None)
    p.add_argument(
        "--categories", default=None,
        help="comma-separated trace categories (default: all but dispatch)",
    )
    p.set_defaults(fn=_cmd_capture)

    p = sub.add_parser("verify", help="replay a trace and compare fingerprints")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dump", help="print trace metadata and events")
    p.add_argument("trace")
    p.add_argument("--category", default=None, help="only this category")
    p.add_argument(
        "--lenient", action="store_true",
        help="tolerate truncated traces (crashed runs)",
    )
    p.set_defaults(fn=_cmd_dump)

    p = sub.add_parser("gantt", help="render an occupancy timeline")
    p.add_argument("trace")
    p.add_argument("--width", type=int, default=100, help="ASCII columns")
    p.add_argument("--svg", default=None, help="write an SVG here instead")
    p.set_defaults(fn=_cmd_gantt)

    p = sub.add_parser("stats", help="event volumes and latency distributions")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("overhead", help="tracing overhead on a fig6 cell (fails above 10 %%)")
    p.set_defaults(fn=_cmd_overhead)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
