"""Seed-variance benchmark: the honest error bar on the headline result.

Runs the synchronization-heavy cg cell under vanilla and vScale across
three seeds (the paper averages three runs) and asserts the robust claims:
vScale wins on every seed, and its own runtime is stable while vanilla's
swings — adaptation removes the chaos, not just the mean.
"""

import statistics

from repro.experiments import variance


def test_cg_reduction_across_seeds(bench_once):
    result = bench_once(variance.run, "cg", 30_000_000_000, (3, 4, 5), 4)
    print()
    print(result.render())

    # vScale wins on every seed.
    assert result.always_wins
    assert result.mean_reduction > 0.2

    # The vScale runtimes are far more stable than the vanilla ones: the
    # daemon shields the app from the background's chaos.
    vanillas = [v for v, _ in result.durations.values()]
    vscales = [s for _, s in result.durations.values()]
    vanilla_rel_spread = (max(vanillas) - min(vanillas)) / statistics.mean(vanillas)
    vscale_rel_spread = (max(vscales) - min(vscales)) / statistics.mean(vscales)
    assert vscale_rel_spread < vanilla_rel_spread
    assert vscale_rel_spread < 0.25
