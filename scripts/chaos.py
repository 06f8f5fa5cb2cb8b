#!/usr/bin/env python
"""Seeded chaos harness: crash schedules and recovery bounds.

Runs the chaos profile grid (``repro.experiments.chaos``) under a seeded
crash schedule and asserts the recovery contracts the protocols promise:

* every scripted daemon crash is followed by a restart and a bounded
  reconvergence (``--max-epochs`` periods by default);
* every injected vCPU hang the run had time to sweep is cleared by the
  watchdog;
* every balancer outage that ended inside the run is followed by an
  explicit re-sync.

The whole run is deterministic: same ``--seed``/``--chaos-seed`` means
the same crash schedule, the same recovery trace, the same table.  Used
by the CI smoke workflow::

    python scripts/chaos.py --quick --scale 0.05
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import chaos  # noqa: E402
from repro.experiments.runner import positive_scale  # noqa: E402
from repro.parallel import ParallelExecutor  # noqa: E402


def check_cell(cell, max_epochs: int) -> list[str]:
    """The recovery bounds one cell must satisfy; returns violations."""
    errors = []
    rec = cell.recovery
    crashes = rec.get("daemon_crashes", 0)
    restarts = rec.get("daemon_restarts", 0)
    if crashes != restarts:
        errors.append(
            f"{cell.profile}: {crashes} crashes but {restarts} restarts"
        )
    if rec.get("recoveries", 0) and rec.get("recovery_epochs_max", 0) > max_epochs:
        errors.append(
            f"{cell.profile}: reconvergence took "
            f"{rec['recovery_epochs_max']} epochs (bound {max_epochs})"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3, help="workload seed")
    parser.add_argument(
        "--chaos-seed", type=int, default=chaos.CHAOS_SEED,
        help="crash-schedule seed (independent of the workload seed)",
    )
    parser.add_argument(
        "--scale", type=positive_scale, default=0.05, help="work scale factor"
    )
    parser.add_argument(
        "--profiles", nargs="*", default=list(chaos.PROFILES),
        choices=chaos.PROFILES, help="chaos profiles to run",
    )
    parser.add_argument(
        "--max-epochs", type=int, default=4,
        help="reconvergence bound in daemon periods",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="crash + outage profiles only (CI smoke)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.profiles = ["none", "crash", "outage"]

    profiles = tuple(args.profiles)
    if "none" not in profiles:
        profiles = ("none",) + profiles  # the slowdown baseline
    result = chaos.run(
        profiles=profiles,
        seed=args.seed,
        work_scale=args.scale,
        chaos_seed=args.chaos_seed,
        executor=ParallelExecutor(jobs=1),
    )
    print(result.render())

    errors = []
    for profile in profiles:
        errors.extend(check_cell(result.cells[profile], args.max_epochs))
    if errors:
        print("recovery-bound violations:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1

    print("chaos harness: all recovery bounds hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
