#!/usr/bin/env python
"""Seeded chaos harness: crash schedules, recovery bounds, restore checks.

Runs the chaos profile grid (``repro.experiments.chaos``) under a seeded
crash schedule and asserts the recovery contracts the protocols promise:

* every scripted daemon crash is followed by a restart and a bounded
  reconvergence (``--max-epochs`` periods by default);
* every injected vCPU hang the run had time to sweep is cleared by the
  watchdog;
* every balancer outage that ended inside the run is followed by an
  explicit re-sync;
* with ``--verify-restore``, the checkpoint captured before the first
  scripted crash restores onto a rebuilt twin — replay fingerprints must
  match (:class:`repro.recovery.RestoreMismatch` otherwise).

The whole run is deterministic: same ``--seed``/``--chaos-seed`` means
the same crash schedule, the same recovery trace, the same table.  Used
by the CI smoke workflow::

    python scripts/chaos.py --scale 0.05 --profiles crash outage --verify-restore
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
    if crashes and cell.snapshots_taken < crashes:
        errors.append(
            f"{cell.profile}: only {cell.snapshots_taken} snapshots for "
            f"{crashes} scripted crashes"
        )
    return errors


def _twin_builder(args):
    """The deterministic scenario factory shared by the restore checks:
    the same args must always build the same machine."""
    from repro.core.daemon import DaemonConfig
    from repro.experiments.chaos import _build_plan
    from repro.experiments.setups import Config, ScenarioBuilder

    def build():
        builder = (
            ScenarioBuilder(seed=args.seed, pcpus=8)
            .with_worker_vm(4)
            .with_config(Config.VSCALE)
            .with_faults(_build_plan("crash", args.chaos_seed, args.scale))
        )
        builder.daemon_config = DaemonConfig.crash_hardened()
        return builder.build()

    return build


def _load_snapshot(path: Path):
    """Read a checkpoint JSON written by --save-snapshot; exit with a
    one-line error when the file is missing or corrupt."""
    import json

    from repro.recovery import Checkpoint

    try:
        data = json.loads(path.read_text())
        return Checkpoint(
            at_ns=data["at_ns"],
            state=data["state"],
            fingerprint=data["fingerprint"],
        )
    except FileNotFoundError:
        raise SystemExit(f"error: snapshot file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: snapshot file {path} is corrupt: {exc!r}")


def restore_from(args) -> None:
    """Restore a saved snapshot onto a rebuilt twin and verify it."""
    from repro.hypervisor.machine import Machine
    from repro.recovery import RestoreMismatch

    checkpoint = _load_snapshot(args.restore_from)
    try:
        Machine.restore(checkpoint, _twin_builder(args))
    except RestoreMismatch as exc:
        raise SystemExit(f"error: {exc}")
    print(
        f"restored snapshot {args.restore_from} at t={checkpoint.at_ns} ns "
        f"({checkpoint.fingerprint[:16]}) onto a rebuilt twin"
    )


def verify_restore(args) -> None:
    """Capture a pre-crash checkpoint and restore it onto a rebuilt twin."""
    from repro.experiments.chaos import WARMUP_NS, _build_plan
    from repro.hypervisor.machine import Machine
    from repro.recovery import fingerprint, state_dict

    plan = _build_plan("crash", args.chaos_seed, args.scale)
    crash_ns = min(e.at_ns for e in plan.events if e.site == "daemon_crash")
    build = _twin_builder(args)

    original = build()
    original.start()
    original.run(crash_ns)
    checkpoint = original.machine.snapshot()
    if args.save_snapshot is not None:
        args.save_snapshot.write_text(checkpoint.dumps() + "\n")
        print(f"saved pre-crash snapshot to {args.save_snapshot}")
    restored = Machine.restore(checkpoint, build)

    # Both continue through the crash and beyond; futures must agree.
    horizon = crash_ns + WARMUP_NS
    original.run(horizon)
    restored.run(horizon)
    a = fingerprint(state_dict(original.machine))
    b = fingerprint(state_dict(restored.machine))
    if a != b:
        raise SystemExit(f"restored twin diverged after crash: {a} != {b}")
    print(f"restore verified: pre-crash checkpoint at t={crash_ns} ns, "
          f"futures identical through t={horizon} ns ({a[:16]})")


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
    parser.add_argument(
        "--verify-restore", action="store_true",
        help="also restore a pre-crash checkpoint onto a rebuilt twin",
    )
    parser.add_argument(
        "--save-snapshot", type=Path, default=None,
        help="with --verify-restore: write the pre-crash checkpoint JSON "
        "here for later --restore-from runs",
    )
    parser.add_argument(
        "--restore-from", type=Path, default=None,
        help="restore a snapshot saved by --save-snapshot onto a rebuilt "
        "twin (same --seed/--chaos-seed/--scale) and exit",
    )
    args = parser.parse_args(argv)

    if args.restore_from is not None:
        restore_from(args)
        return 0
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
        executor=ParallelExecutor(jobs=1, cache=None),
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

    if args.verify_restore:
        verify_restore(args)
    print("chaos harness: all recovery bounds hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
