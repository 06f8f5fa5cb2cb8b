"""The epoch accounting rule, ``Scheduler.accounting_batch``.

Credit's per-period distribution (clamp to ±acct) and Credit2's global
reset (clamp the carry-over, then add the new allotment) both go through
this one hook, so its exact result — values *and* Python types — is what
the goldens and machine-state fingerprints see.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.hypervisor.schedulers import Scheduler

_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_credits = st.lists(
    st.one_of(_floats, st.integers(min_value=-10**9, max_value=10**9)), max_size=40
)
_bounds = st.integers(min_value=1, max_value=10**9)


def _apply(credits, delta, bound, shift=0):
    vcpus = [SimpleNamespace(credits=c) for c in credits]
    # The rule never reads scheduler state, so no machine is needed.
    Scheduler.accounting_batch(None, vcpus, delta, -bound, bound, shift=shift)
    return [v.credits for v in vcpus]


@given(credits=_credits, delta=_floats, bound=_bounds)
def test_clamped_balances_are_the_bound_objects(credits, delta, bound):
    """A balance at or past a bound is the int bound itself, never an
    equal float: the machine-state observer serializes ``300`` and ``300.0``
    differently."""
    for before, after in zip(credits, _apply(credits, delta, bound)):
        raw = before + delta
        if raw <= -bound:
            assert type(after) is int and after == -bound
        elif raw >= bound:
            assert type(after) is int and after == bound
        else:
            assert type(after) is type(raw)


@given(credits=_credits, delta=_floats, bound=_bounds)
def test_unclamped_balances_are_credits_plus_delta(credits, delta, bound):
    for before, after in zip(credits, _apply(credits, delta, bound)):
        if -bound < before + delta < bound:
            assert after == before + delta


@given(
    credits=_credits,
    bound=_bounds,
    shift=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
)
def test_shift_is_added_after_clamping(credits, bound, shift):
    """Credit2's reset: clamp the carry-over to one reset's worth, then
    add the new allotment on top."""
    for before, after in zip(credits, _apply(credits, 0.0, bound, shift=shift)):
        carry = -bound if before <= -bound else bound if before >= bound else before
        assert after == shift + carry


def test_empty_batch_is_a_no_op():
    assert _apply([], 1.0, 5) == []
    assert _apply([], 1.0, 5, shift=5.0) == []
