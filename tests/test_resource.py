"""Unit tests for queued resources."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import QueuedResource


def test_idle_resource_serves_immediately():
    resource = QueuedResource("bus")
    assert resource.acquire(100, 5) == 105


def test_busy_resource_queues():
    resource = QueuedResource("bus")
    resource.acquire(100, 10)
    assert resource.acquire(100, 5) == 115  # waits for the first to finish


def test_gap_between_transactions_is_idle():
    resource = QueuedResource("bus")
    resource.acquire(0, 5)
    assert resource.acquire(50, 5) == 55


def test_negative_occupancy_rejected():
    resource = QueuedResource("bus")
    with pytest.raises(ValueError):
        resource.acquire(0, -1)


def test_utilization():
    resource = QueuedResource("bus")
    resource.acquire(0, 25)
    resource.acquire(100, 25)
    assert resource.utilization(100) == 0.5
    assert resource.utilization(0) == 0.0


def test_busy_total_and_transactions():
    resource = QueuedResource("bus")
    resource.acquire(0, 3)
    resource.acquire(0, 4)
    assert resource.busy_total == 7
    assert resource.transactions == 2


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_property_grants_never_overlap(requests):
    """Service intervals are disjoint and nondecreasing regardless of
    arrival pattern."""
    resource = QueuedResource("r")
    previous_finish = 0
    for arrival, occupancy in requests:
        finish = resource.acquire(arrival, occupancy)
        start = finish - occupancy
        assert start >= previous_finish or occupancy == 0
        assert start >= arrival
        previous_finish = max(previous_finish, finish)


def test_zero_occupancy_acquire_takes_no_time():
    resource = QueuedResource("bus")
    assert resource.acquire(100, 0) == 100
    # It neither occupies the resource nor delays later arrivals.
    assert resource.acquire(100, 5) == 105
    assert resource.busy_total == 5


def test_zero_occupancy_still_waits_behind_queue():
    resource = QueuedResource("bus")
    resource.acquire(0, 10)
    assert resource.acquire(0, 0) == 10  # drains the queue, adds nothing


def test_same_time_contention_is_fifo():
    resource = QueuedResource("bus")
    finishes = [resource.acquire(50, 5) for _ in range(4)]
    assert finishes == [55, 60, 65, 70]  # arrival order, no reordering


def test_acquire_in_the_past_rejected():
    resource = QueuedResource("bus")
    with pytest.raises(ValueError, match="before simulation start"):
        resource.acquire(-1, 5)
