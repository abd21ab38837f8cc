"""Unit tests for locks and token buckets (repro.sim.resources)."""

import pytest

from repro.sim import FifoLock, Simulator, SpinLock, TokenBucket


def test_fifo_lock_mutual_exclusion():
    sim = Simulator()
    lock = FifoLock(sim)
    trace = []

    def worker(tag, hold):
        yield lock.acquire()
        trace.append(("in", tag, sim.now))
        yield sim.timeout(hold)
        trace.append(("out", tag, sim.now))
        lock.release()

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 10))
    sim.run()
    assert trace == [
        ("in", "a", 0),
        ("out", "a", 10),
        ("in", "b", 10),
        ("out", "b", 20),
    ]


def test_fifo_lock_is_fair():
    sim = Simulator()
    lock = FifoLock(sim)
    order = []

    def worker(tag):
        yield lock.acquire()
        order.append(tag)
        yield sim.timeout(1)
        lock.release()

    for tag in range(8):
        sim.spawn(worker(tag))
    sim.run()
    assert order == list(range(8))


def test_release_unlocked_raises():
    sim = Simulator()
    lock = FifoLock(sim)
    with pytest.raises(RuntimeError):
        lock.release()


def test_fifo_lock_wait_statistics():
    sim = Simulator()
    lock = FifoLock(sim)

    def worker():
        yield lock.acquire()
        yield sim.timeout(10)
        lock.release()

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert lock.acquisitions == 3
    # Second waits 10, third waits 20.
    assert lock.total_wait_ns == 30
    assert lock.max_queue_len == 2


def test_spinlock_handoff_penalty_grows_with_waiters():
    def run(n_threads):
        sim = Simulator()
        lock = SpinLock(sim, bounce_ns=50)

        def worker():
            yield lock.acquire()
            yield sim.timeout(10)
            lock.release()

        for _ in range(n_threads):
            sim.spawn(worker())
        sim.run()
        return sim.now

    # With one waiter at each handoff the penalty is constant; with many
    # waiters the early handoffs are much more expensive.
    serial_2 = run(2)
    serial_8 = run(8)
    assert serial_2 == 10 + 50 * 1 + 10
    # 8 threads: handoffs see 7,6,...,1 spinners (pending waiters + winner).
    assert serial_8 == 8 * 10 + 50 * sum(range(1, 8))


def test_spinlock_bounce_cap():
    sim = Simulator()
    lock = SpinLock(sim, bounce_ns=50, bounce_cap=2)

    def worker():
        yield lock.acquire()
        yield sim.timeout(1)
        lock.release()

    for _ in range(10):
        sim.spawn(worker())
    sim.run()
    # Every handoff penalty capped at 2 * 50.
    assert sim.now <= 10 * 1 + 9 * 100


def test_token_bucket_blocks_until_replenished():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=2)
    log = []

    def taker():
        yield bucket.take(2)
        log.append(("took2", sim.now))
        yield bucket.take(3)
        log.append(("took3", sim.now))

    def putter():
        yield sim.timeout(10)
        bucket.put(1)
        yield sim.timeout(10)
        bucket.put(2)

    sim.spawn(taker())
    sim.spawn(putter())
    sim.run()
    assert log == [("took2", 0), ("took3", 20)]
    assert bucket.tokens == 0


def test_token_bucket_fifo_no_starvation():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    sim.spawn(taker("big", 5))
    sim.spawn(taker("small", 1))
    sim.run()
    bucket.put(1)  # not enough for "big"; "small" must still wait behind it
    sim.run()
    assert order == []
    bucket.put(4)
    sim.run()
    assert order == ["big"]
    bucket.put(1)
    sim.run()
    assert order == ["big", "small"]


def test_token_bucket_try_take():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=3)
    assert bucket.try_take(2)
    assert not bucket.try_take(2)
    assert bucket.tokens == 1


def test_token_bucket_adjust_negative_then_positive():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=1)
    bucket.adjust(-5)
    assert bucket.tokens == -4
    fired = []
    ticket = bucket.take(1)
    ticket._subscribe(lambda v: fired.append(v))
    sim.run()
    assert fired == []
    bucket.adjust(6)
    sim.run()
    assert fired == [1]
    assert bucket.tokens == 1


def test_token_bucket_rejects_negative_take():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=1)
    with pytest.raises(ValueError):
        bucket.take(-1)


def test_spinlock_wait_includes_handoff_delay():
    """The hand-off bounce is part of the next owner's wait time."""
    sim = Simulator()
    lock = SpinLock(sim, bounce_ns=50)

    def worker():
        yield lock.acquire()
        yield sim.timeout(10)
        lock.release()

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    # Second worker waits the 10 ns hold plus the 50 ns cache-line bounce.
    assert lock.total_wait_ns == 60


def test_token_bucket_shrunk_pool_keeps_fifo_order():
    """A big head-of-line take must not be overtaken after adjust(-n)."""
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    sim.spawn(taker("big", 10))
    sim.spawn(taker("small", 1))
    sim.run()
    bucket.adjust(-5)
    bucket.put(6)  # pool back to 1: enough for "small", but "big" is first
    sim.run()
    assert order == []
    bucket.put(9)
    sim.run()
    assert order == ["big"]
    bucket.put(1)
    sim.run()
    assert order == ["big", "small"]


def test_uncontended_grants_are_shared_pre_triggered_tickets():
    sim = Simulator()
    lock = FifoLock(sim)
    first = lock.acquire()
    assert first.triggered and first.value is lock
    lock.release()
    assert lock.acquire() is first
    bucket = TokenBucket(sim, tokens=10)
    ticket = bucket.take(2)
    assert ticket.triggered and ticket.value == 2
    assert bucket.take(2) is ticket is bucket.granted(2)
    assert bucket.tokens == 6


def test_pre_triggered_grant_resumes_at_the_bucket_tail():
    """A granted ticket resumes its process behind everything already
    queued for the tick, like the freshly fired ticket it replaces."""
    sim = Simulator()
    lock = FifoLock(sim)
    log = []

    def taker():
        yield sim.timeout(5)
        sim.call_at(5, lambda: log.append("queued first"))
        yield lock.acquire()
        log.append("granted")

    sim.spawn(taker())
    sim.run()
    assert log == ["queued first", "granted"]
