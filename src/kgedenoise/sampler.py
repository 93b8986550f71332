"""Who prepares a training epoch's batches: the caller, or a helper process.

A batch's negatives depend on the epoch's generator, the positive index and
the batch order, and its plan (``ModelKind.plan``) on its ids alone, never
on the store, so a forked helper process can make both while the caller
trains. ``epoch_batches`` uses it for an epoch of two or more batches of at
most ``models._ROW_BLOCK`` negatives (the size it was measured at) when there
are two or more step threads, of which the helper takes one;
``models.corrupt_batch`` is not replaced, as by a tracer that counts every
draw in the caller; no other thread's epoch holds the helper; and the helper
lives, or the process has one thread to fork it from (a fork copies the
locks other threads hold) and ``sem_open`` works. Otherwise ``loss_and_grad``
draws and plans.

The caller draws the first batch, and the helper the others with their
plans, from the caller's generator state into a shared mapping made before
the fork, of ``_SLOTS`` slots for ``_ROW_BLOCK`` negatives, which each epoch
cuts into as many slots as fit its batch (190 for 32 TransE negatives). Two
fork-context semaphores, which start no resource tracker, hand slots over
with no system call while the helper is ahead: ``ready`` counts batches
written, ``free`` slots to write again and, ``_ASK_AHEAD`` batches before the
end, the ask for the final generator state. Until the helper has written the
batch it wants, the caller draws it itself, but not the last; then it reads
each batch as views of its slot. The pipe carries the pickled job, then the
final state, which the caller's generator adopts, or a draw's exception,
raised again in the caller: every bit is as inline (after an exception, the
generator's state is unspecified). The parent stops the helper at exit and
after an epoch that raised or left a batch untaken. Each side waits in
``_POLL`` steps, looking at the pipe between them: a helper that dies before
the ask makes the epoch raise ``EOFError``, and one whose parent died exits.
A process forked from the parent forgets the helper, mapping and semaphores.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import mmap
import multiprocessing
import os
import signal
import threading

import numpy as np

from . import models
from .graph import PositiveIndex
from .models import corrupt_batch

_SLOTS = 16  # the ring's slots for batches of ``_ROW_BLOCK`` negatives
_HEADER = 16  # words of a slot's header: 3, and 3 per gradient table
_POLL = 0.1  # seconds between looks at the pipe while a semaphore is held off
_ASK_AHEAD = 4  # the caller asks for the final state with the epoch's 4th batch from the end

_helper = None  # (pid, the parent's end of the pipe) once forked
_ring = None  # the helper's (_SLOTS, words) slots, in the mapping it shares
_semaphores = None  # the helper's (ready, free) semaphores
_busy = threading.Lock()  # held by the epoch the helper serves


def _slot_words(rows: int) -> int:
    # The header, 3 per negative, and a plan of at most 25 per triple and 2
    # more (RotatE), of which a batch of ``rows`` negatives holds at most 2 per negative.
    return _HEADER + 53 * rows + 2


def _cut(ring, rows: int):
    """The ring's mapping as the most slots that fit a batch of ``rows`` negatives."""
    words = _slot_words(rows)
    return ring.reshape(-1)[:ring.size // words * words].reshape(-1, words)


@contextlib.contextmanager
def epoch_batches(kind, graph, shuffled, batch_size: int, rng):
    """Each batch's (negatives, plan) in batch order, either of them None
    where ``loss_and_grad`` is to draw or plan it; ``shuffled`` holds the
    epoch's triples in batch order. A batch's arrays may be views of the
    helper's ring, valid until the next batch is taken."""
    conn = None
    if (batch_size < len(shuffled) and batch_size * kind.negatives <= models._ROW_BLOCK
            and models._step_threads() > 1 and models.corrupt_batch is corrupt_batch
            and _busy.acquire(blocking=False)):
        conn = _connection()
        if conn is None:
            _busy.release()
    if conn is None:
        yield itertools.repeat((None, None))
        return
    models._drawing_ahead = True
    try:
        prepared = _received(conn, kind, graph, shuffled, batch_size, rng)
        yield prepared
        if next(prepared, None) is not None:  # a batch left untaken: the counts would not balance
            _stop()
    except BaseException:
        _stop()
        raise
    finally:
        models._drawing_ahead = False
        _busy.release()


def _received(conn, kind, graph, shuffled, batch_size: int, rng):
    """The epoch's batches: drawn here, but the last, until the helper has written
    the one wanted, then read from its ring; then its final state is adopted."""
    count = kind.negatives
    first = corrupt_batch(graph, shuffled[:batch_size], rng, count)
    conn.send((kind, PositiveIndex(graph), shuffled[batch_size:], batch_size, count,
               type(rng.bit_generator), rng.bit_generator.state))
    yield first, None
    (ready, free), ring = _semaphores, _cut(_ring, batch_size * count)
    starts = range(batch_size, len(shuffled), batch_size)
    reused = max(0, len(starts) - len(ring))  # batches the helper writes into a used slot
    ask = max(reused, len(starts) - _ASK_AHEAD)  # the batch that gives the last free, the ask
    taken, drawing = 0, True  # readies taken; whether every batch so far was drawn here
    for j, start in enumerate(starts):
        for _ in range((0 < j <= reused) + (j == ask)):  # batch j - 1's slot; the last free
            free.release()
        while drawing and taken <= j and ready.acquire(False):
            taken += 1
        if drawing and taken <= j < len(starts) - 1:  # batch j is not written yet, nor the last
            yield corrupt_batch(graph, shuffled[start:start + batch_size], rng, count), None
            continue
        drawing = False
        while taken <= j:
            _acquire(ready, conn)
            taken += 1
        slot = ring[j % len(ring)]
        if slot[0] < 0:  # the helper's draw raised
            raise conn.recv()
        yield _read(slot)
    message = conn.recv()
    if isinstance(message, Exception):
        raise message
    rng.bit_generator.state = message


def _write(slot, negatives, plan) -> None:
    """Lay a batch out in ``slot``: its header, negatives and plan arrays."""
    ids, *patterns = plan
    header, parts = [len(negatives), len(ids), len(patterns)], [negatives.ravel(), ids]
    for pattern in patterns:
        header += [len(pattern.unique), len(pattern.order), pattern.n_contribs]
        parts += [pattern.unique, pattern.indptr, pattern.order, pattern.data.view(np.intp)]
    at = _HEADER
    for part in parts:
        slot[at:at + len(part)] = part
        at += len(part)
    slot[:len(header)] = header


def _read(slot):
    """The (negatives, plan) that ``_write`` laid out in ``slot``, as views."""
    rows, n_ids, n_patterns, *sizes = slot[:_HEADER].tolist()
    at = _HEADER + 3 * rows + n_ids
    plan = [slot[at - n_ids:at]]
    for i in range(0, 3 * n_patterns, 3):
        k, entries, n_contribs = sizes[i:i + 3]
        cuts = (at, at + k, at + 2 * k + 1, at + 2 * k + 1 + entries)
        at = cuts[-1] + entries
        plan.append(models._Pattern(slot[cuts[0]:cuts[1]], slot[cuts[1]:cuts[2]],
                                    slot[cuts[2]:cuts[3]], slot[cuts[3]:at].view(np.float64),
                                    n_contribs))
    return slot[_HEADER:_HEADER + 3 * rows].reshape(rows, 3), tuple(plan)


def _acquire(semaphore, conn) -> None:
    """Take ``semaphore``; raise what the peer sent, or EOFError once it has gone."""
    while not semaphore.acquire(timeout=_POLL):
        if conn.poll() and not semaphore.acquire(False):
            raise conn.recv()


def _connection():
    """The pipe to a live helper whose slots hold a batch of ``_ROW_BLOCK``
    negatives, forked with its ring and semaphores if need be, or None."""
    global _helper, _ring, _semaphores
    words = _slot_words(models._ROW_BLOCK)
    if _helper is not None:
        pid, conn = _helper
        with contextlib.suppress(ChildProcessError):
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                if _ring.shape[1] >= words:
                    return conn
                _stop()  # its slots were sized under a smaller row block
        if _helper is not None:  # the helper died since the last epoch
            conn.close()
            _helper = None
    if threading.active_count() > 1:
        return None
    try:
        semaphores = tuple(multiprocessing.get_context("fork").Semaphore(0) for _ in "rf")
    except (ImportError, OSError):  # no sem_open, or no /dev/shm to make one in
        return None
    ring = np.frombuffer(mmap.mmap(-1, _SLOTS * words * 8), np.intp).reshape(_SLOTS, words)
    parent_end, child_end = multiprocessing.Pipe()
    pid = os.fork()
    if pid == 0:
        try:
            parent_end.close()  # else the helper would hold its own end of file off
            _serve(child_end, ring, *semaphores)  # the at-fork hook has forgotten both here
        finally:
            os._exit(0)
    child_end.close()
    _helper, _ring, _semaphores = (pid, parent_end), ring, semaphores
    return parent_end


def _serve(conn, ring, ready, free) -> None:
    """The helper's loop: one epoch's batches per job, until end of file or
    until a draw raises, which it marks in the batch's slot and sends back."""
    while True:
        try:
            kind, index, shuffled, batch_size, count, bit_generator, state = conn.recv()
        except EOFError:
            return
        rng = np.random.Generator(bit_generator())
        rng.bit_generator.state = state
        slots = _cut(ring, batch_size * count)
        try:
            for j, start in enumerate(range(0, len(shuffled), batch_size)):
                slot = slots[j % len(slots)]
                if j >= len(slots):
                    _acquire(free, conn)
                positives = shuffled[start:start + batch_size]
                negatives = corrupt_batch(index, positives, rng, count)
                _write(slot, negatives,
                       kind.plan(positives, negatives, index.n_entities, index.n_relations))
                ready.release()
            _acquire(free, conn)  # the caller asks for the final state
        except EOFError:
            return
        except Exception as exc:  # raised again in the caller
            slot[0] = -1
            conn.send(exc)
            ready.release()
            return
        conn.send(rng.bit_generator.state)


def _stop() -> None:
    """End the helper, if there is one, reap it and drop its ring and semaphores."""
    global _helper, _ring, _semaphores
    if _helper is not None:
        (pid, conn), _helper, _ring, _semaphores = _helper, None, None, None
        conn.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _forget_helper() -> None:
    """In a forked child: the helper, its ring and its semaphores serve the
    parent alone, and the helper must still read end of file when the parent ends."""
    global _helper, _ring, _semaphores, _busy
    if _helper is not None:
        _helper[1].close()
    _helper, _ring, _semaphores, _busy = None, None, None, threading.Lock()
    models._drawing_ahead = False


atexit.register(_stop)
os.register_at_fork(after_in_child=_forget_helper)
