"""Tests for Algorithm 1 — including property-based invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extendability import VMUsage, _algorithm1, compute_extendability
from repro.units import MS
from tests.core.ticker_oracle import reference_extendability, reference_shares

PERIOD = 10 * MS


def usage(name, weight, consumed, **kw):
    return VMUsage(name=name, weight=weight, consumed_ns=consumed, **kw)


class TestPaperExamples:
    def test_all_idle_everyone_gets_fair_share(self):
        usages = [usage("a", 256, 0), usage("b", 256, 0)]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        for row in result.values():
            assert row.extendability_ns == 2 * PERIOD  # fair share = 2 pCPUs
            assert row.optimal_vcpus == 2
            assert not row.is_competitor

    def test_competitor_absorbs_releaser_slack(self):
        # b consumes nothing; a is saturated -> a can extend to ~4 pCPUs.
        usages = [usage("a", 256, 4 * PERIOD), usage("b", 256, 0)]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        assert result["a"].is_competitor
        assert result["a"].extendability_ns == 4 * PERIOD
        assert result["a"].optimal_vcpus == 4
        # The releaser keeps its deserved parallelism available.
        assert result["b"].extendability_ns == 2 * PERIOD
        assert result["b"].optimal_vcpus == 2

    def test_two_competitors_split_slack_by_weight(self):
        usages = [
            usage("heavy", 512, 3 * PERIOD),
            usage("light", 256, 2 * PERIOD),
            usage("idle", 256, 0),
        ]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        slack = PERIOD  # idle's fair share = 1 pCPU
        assert result["heavy"].extendability_ns == pytest.approx(
            2 * PERIOD + slack * 512 / 768, rel=1e-6
        )
        assert result["light"].extendability_ns == pytest.approx(
            1 * PERIOD + slack * 256 / 768, rel=1e-6
        )

    def test_ceiling_grants_partial_vcpu(self):
        usages = [usage("a", 300, 4 * PERIOD), usage("b", 100, 0)]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        # a's extendability = 3 + 1 = 4 pCPUs -> exactly 4 vCPUs;
        # b = fair share 1 pCPU -> 1 vCPU.
        assert result["a"].optimal_vcpus == 4
        assert result["b"].optimal_vcpus == 1

    def test_exact_integer_extendability_not_over_ceiled(self):
        usages = [usage("a", 256, PERIOD), usage("b", 256, PERIOD)]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        for row in result.values():
            assert row.optimal_vcpus == 2  # 2.0 pCPUs, not ceil -> 3

    def test_float_noise_does_not_add_a_vcpu(self):
        # a's share computes to 4 pCPUs plus one ulp (b's slack split two
        # ways); the ceiling's epsilon keeps it at 4 vCPUs, not 5.
        usages = [usage("a", 768, 32 * PERIOD), usage("b", 5, 0), usage("c", 768, 32 * PERIOD)]
        result = compute_extendability(usages, pool_pcpus=8, period_ns=PERIOD)
        assert result["a"].extendability_ns == 4 * PERIOD
        assert result["a"].optimal_vcpus == 4

    def test_cap_clamps_extendability(self):
        usages = [usage("a", 256, 4 * PERIOD, cap=1.5), usage("b", 256, 0)]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        assert result["a"].extendability_ns == round(1.5 * PERIOD)
        assert result["a"].optimal_vcpus == 2

    def test_reservation_floors_extendability(self):
        usages = [
            usage("a", 64, 0, reservation=2.0),
            usage("b", 1024, 4 * PERIOD),
        ]
        result = compute_extendability(usages, pool_pcpus=4, period_ns=PERIOD)
        assert result["a"].extendability_ns >= 2 * PERIOD
        assert result["a"].optimal_vcpus >= 2

    def test_max_vcpus_clamps_count(self):
        usages = [usage("a", 1024, 4 * PERIOD, max_vcpus=2), usage("b", 64, 0)]
        result = compute_extendability(usages, pool_pcpus=8, period_ns=PERIOD)
        assert result["a"].optimal_vcpus == 2

    def test_competitor_tolerance_classifies_borderline(self):
        # Consuming 97% of fair share: releaser with tol=0, competitor
        # with tol=0.05.
        near = round(0.97 * 2 * PERIOD)
        usages = [usage("a", 256, near), usage("b", 256, 4 * PERIOD)]
        strict = compute_extendability(usages, 4, PERIOD)
        tolerant = compute_extendability(usages, 4, PERIOD, competitor_tolerance=0.05)
        assert not strict["a"].is_competitor
        assert tolerant["a"].is_competitor


class TestValidation:
    def test_empty_input(self):
        assert compute_extendability([], 4, PERIOD) == {}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            compute_extendability([usage("a", 1, 0), usage("a", 1, 0)], 4, PERIOD)

    def test_bad_pool_or_period(self):
        with pytest.raises(ValueError):
            compute_extendability([usage("a", 1, 0)], 0, PERIOD)
        with pytest.raises(ValueError):
            compute_extendability([usage("a", 1, 0)], 4, 0)

    def test_bad_usage_fields(self):
        with pytest.raises(ValueError):
            usage("a", 0, 0)
        with pytest.raises(ValueError):
            usage("a", 1, -1)
        with pytest.raises(ValueError):
            usage("a", 1, 0, cap=0)
        with pytest.raises(ValueError):
            usage("a", 1, 0, reservation=-0.1)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
vm_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=1024),       # weight
        st.integers(min_value=0, max_value=16 * PERIOD)  # consumption
    ),
    min_size=1,
    max_size=8,
)


@given(vm_lists, st.integers(min_value=1, max_value=16))
@settings(max_examples=200)
def test_vcpu_counts_always_in_range(vms, pcpus):
    usages = [usage(f"vm{i}", w, c) for i, (w, c) in enumerate(vms)]
    result = compute_extendability(usages, pcpus, PERIOD)
    for row in result.values():
        assert 1 <= row.optimal_vcpus <= pcpus
        assert 0 <= row.extendability_ns <= pcpus * PERIOD


@given(vm_lists, st.integers(min_value=1, max_value=16))
@settings(max_examples=200)
def test_releasers_keep_fair_share(vms, pcpus):
    usages = [usage(f"vm{i}", w, c) for i, (w, c) in enumerate(vms)]
    total_weight = sum(u.weight for u in usages)
    result = compute_extendability(usages, pcpus, PERIOD)
    for u in usages:
        row = result[u.name]
        fair = u.weight / total_weight * pcpus * PERIOD
        if not row.is_competitor:
            assert row.extendability_ns == pytest.approx(fair, abs=2)


@given(vm_lists, st.integers(min_value=1, max_value=16))
@settings(max_examples=200)
def test_total_extendability_conserves_capacity(vms, pcpus):
    """Fair shares + slack redistribution never mint capacity: the sum of
    extendabilities equals the pool exactly (when uncapped)."""
    usages = [usage(f"vm{i}", w, c) for i, (w, c) in enumerate(vms)]
    result = compute_extendability(usages, pcpus, PERIOD)
    competitors = [r for r in result.values() if r.is_competitor]
    total = sum(r.extendability_ns for r in result.values())
    capacity = pcpus * PERIOD
    total_weight = sum(u.weight for u in usages)
    if competitors:
        # Releasers keep their fair share *and* donate their slack to the
        # competitors, so the sum over-commits by exactly the slack:
        # sum = capacity + sum(fair_r - consumed_r) over releasers.
        slack = sum(
            u.weight / total_weight * capacity - u.consumed_ns
            for u in usages
            if not result[u.name].is_competitor
        )
        assert total == pytest.approx(capacity + slack, abs=16)
    else:
        assert total == pytest.approx(capacity, abs=16)


@given(vm_lists)
@settings(max_examples=200)
def test_competitor_extendability_weight_monotone(vms):
    """Among competitors, extendability per unit weight is equal (max-min
    fairness of the slack split)."""
    usages = [usage(f"vm{i}", w, c) for i, (w, c) in enumerate(vms)]
    result = compute_extendability(usages, 8, PERIOD)
    competitors = [(u, result[u.name]) for u in usages if result[u.name].is_competitor]
    if len(competitors) >= 2:
        ratios = [r.extendability_ns / u.weight for u, r in competitors]
        assert max(ratios) - min(ratios) <= max(ratios) * 1e-6 + 1


@given(vm_lists, st.integers(min_value=1, max_value=16))
@settings(max_examples=100)
def test_scaling_consumption_never_lowers_own_extendability(vms, pcpus):
    """A VM consuming more (others fixed) never loses extendability —
    no incentive to waste, no penalty for demand."""
    usages = [usage(f"vm{i}", w, c) for i, (w, c) in enumerate(vms)]
    base = compute_extendability(usages, pcpus, PERIOD)
    boosted = [
        usage(u.name, u.weight, u.consumed_ns * 2 if u.name == "vm0" else u.consumed_ns)
        for u in usages
    ]
    bumped = compute_extendability(boosted, pcpus, PERIOD)
    assert bumped["vm0"].extendability_ns >= base["vm0"].extendability_ns - 2


@given(vm_lists, st.integers(min_value=1, max_value=16), st.data())
@settings(max_examples=200)
def test_matches_reference_body(vms, pcpus, data):
    """The row core matches the dict-based body bit for bit, unrounded
    shares included, with caps, reservations, vCPU limits and tolerances."""
    usages = [
        usage(
            f"vm{i}",
            w,
            c,
            cap=data.draw(st.none() | st.floats(min_value=0.1, max_value=16.0) | st.integers(1, 16)),
            reservation=data.draw(st.just(0.0) | st.floats(min_value=0.0, max_value=4.0)),
            max_vcpus=data.draw(st.none() | st.integers(min_value=1, max_value=16)),
        )
        for i, (w, c) in enumerate(vms)
    ]
    tolerance = data.draw(st.sampled_from([0.0, 0.05]) | st.floats(min_value=0.0, max_value=0.5))
    result = compute_extendability(usages, pcpus, PERIOD, tolerance)
    expected = reference_extendability(usages, pcpus, PERIOD, tolerance)
    assert list(result.items()) == list(expected.items())
    # repr() is exact for floats and tells 2 from 2.0 (an int cap that binds).
    rows = [(u.weight, u.consumed_ns, u.reservation, u.cap, u.max_vcpus) for u in usages]
    outcomes = _algorithm1(rows, pcpus, PERIOD, tolerance)
    shares = reference_shares(usages, pcpus, PERIOD, tolerance)
    assert [repr(o) for o in outcomes] == [repr(o) for o in shares.values()]
