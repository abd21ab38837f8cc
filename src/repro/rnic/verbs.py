"""The posting path: ibv_post_send / completion waiting as DES generators.

The cost structure mirrors the mlx5 driver:

1. build WQEs in the send queue (CPU, per WR);
2. if the QP is shared between threads, take the QP lock;
3. take the doorbell spinlock, copy WQEs to the write-combining buffer and
   ring the doorbell (MMIO), release;
4. the RNIC's requester engine takes over; a completion event fires when
   the CQEs have been DMA-ed back;
5. polling the CQ costs CPU per CQE.

Threads are duck-typed: anything with ``charge(ns)`` (charges serialized
CPU time and returns the sleep to yield, or ``None``), ``config`` and
``sim`` works — see :class:`repro.cluster.ComputeThread`.  The CPU
charges are yielded directly rather than through ``yield from
thread.compute(...)``: one generator frame less per charge.
"""

from __future__ import annotations

from typing import Generator, List

from repro.rnic.qp import QueuePair, WorkBatch, WorkRequest


def post_send(thread, qp: QueuePair, wrs: List[WorkRequest], actor=None) -> Generator:
    """Post ``wrs`` on ``qp``; returns the :class:`WorkBatch` once rung in.

    Usage: ``batch = yield from post_send(thread, qp, wrs)``.

    ``actor`` is an optional stable identity token for the logical issuer
    (RDMASan attributes findings to it); raw posts without one are
    attributed to the posting thread.
    """
    device = qp.device
    config = device.config
    sim = device.sim
    n = len(wrs)
    batch = WorkBatch(sim, qp, wrs)
    if actor is not None:
        batch.actor = actor

    nap = thread.charge(config.wqe_build_ns * n)
    if nap is not None:
        yield nap

    if qp.state == QueuePair.STATE_ERROR:
        # Posting on an ERROR QP skips the doorbell entirely: the driver
        # flushes the WRs straight to the CQ with IBV_WC_WR_FLUSH_ERR.
        # CPU for WQE building is still charged (the check happens at
        # ring time), which also keeps retry loops from spinning at t=0.
        qp.posted_wrs += n
        if device.sanitizer is not None:
            device.sanitizer.on_post(thread, qp, batch)
        device.requester.submit(batch)
        return batch

    thread_id = getattr(thread, "thread_id", 0)
    share_lock = qp.share_lock
    if share_lock is not None:
        qp.note_user(thread_id)
        yield share_lock.acquire(owner=thread_id)
    try:
        if share_lock is not None:
            thread.mark_busy_until_now()
            # Contended lock word: every acquisition fights the sharers'
            # spinning reads (cache-line bouncing).
            nap = thread.charge(qp.sharing_penalty_ns(config))
            if nap is not None:
                yield nap
        doorbell = qp.doorbell
        doorbell.note_user(thread_id)
        lock = doorbell.lock
        wait_start = sim.now
        yield lock.acquire(owner=thread_id)
        try:
            # The wait above was a spin: the thread's CPU was burning the
            # whole time, so bring its watermark up to now before the
            # locked section.
            thread.mark_busy_until_now()
            if device.recorder is not None and sim.now > wait_start:
                device.recorder.instant(
                    device.name, "requester", "doorbell_stall", sim.now,
                    {"doorbell": doorbell.index, "thread": thread_id,
                     "stall_ns": sim.now - wait_start},
                )
            # With request merging on, fused neighbours share one WQE: the
            # write-combining copy under the lock covers wire_wrs WQEs,
            # not one per posted WR (wire_wrs == len(wrs) when merging is
            # off).
            nap = thread.charge(doorbell.held_cost_ns(config, batch.wire_wrs))
            if nap is not None:
                yield nap
        finally:
            lock.release(owner=thread_id)
    finally:
        if share_lock is not None:
            share_lock.release(owner=thread_id)

    doorbell.rings += 1
    device.counters.doorbell_rings += 1
    qp.posted_wrs += n
    if device.sanitizer is not None:
        device.sanitizer.on_post(thread, qp, batch)
    device.requester.submit(batch)
    return batch


def wait_completion(thread, batch: WorkBatch) -> Generator:
    """Wait until ``batch`` completes, then charge the CQ-poll CPU cost.

    Fixed polling (the default) charges ``cqe_poll_ns`` per CQE.  With
    ``RnicConfig.adaptive_poll`` the poller follows RDMAbox's
    spin-then-yield discipline: spin up to ``poll_spin_ns`` (same per-CQE
    cost as fixed polling — the completion was reaped hot), otherwise
    yield the core and, on wakeup, pay ``poll_yield_ns`` once plus an
    *amortized* drain of the whole completion batch
    (``cqe_poll_ns * (1 + poll_drain_factor * (n - 1))``).  The
    trade-off is RDMAbox's: slightly worse at depth 1 (the wakeup tax),
    increasingly better as more CQEs arrive per wakeup.
    """
    config = thread.config
    done = batch.done
    if not config.adaptive_poll:
        if not done.triggered:
            yield done
        nap = thread.charge(config.cqe_poll_ns * len(batch.wrs))
        if nap is not None:
            yield nap
        return batch
    amortized_ns = config.cqe_poll_ns * (
        1.0 + config.poll_drain_factor * (len(batch) - 1)
    )
    if done.triggered:
        # Already completed when the poller arrived: one cold drain
        # (the CQEs piled up while the thread was elsewhere).
        nap = thread.charge(amortized_ns)
    else:
        wait_start = thread.sim.now
        yield done
        if thread.sim.now - wait_start <= config.poll_spin_ns:
            # Caught within the spin budget — hot path, per-CQE cost.
            nap = thread.charge(config.cqe_poll_ns * len(batch))
        else:
            nap = thread.charge(config.poll_yield_ns + amortized_ns)
    if nap is not None:
        yield nap
    return batch


def post_and_wait(thread, qp: QueuePair, wrs: List[WorkRequest]) -> Generator:
    """Convenience: post a batch and wait for all its completions."""
    batch = yield from post_send(thread, qp, wrs)
    yield from wait_completion(thread, batch)
    return batch
