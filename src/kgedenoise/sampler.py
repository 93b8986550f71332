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
locks other threads hold). Otherwise ``loss_and_grad`` draws and plans.

The caller draws the first batch; the helper makes the other batches'
``corrupt_batch`` and ``plan`` calls from the caller's generator state, in
order, and writes each into the next of ``_SLOTS`` slots of a ring in an
anonymous shared mapping made before the fork, sized for batches of
``_ROW_BLOCK`` negatives (53 words a row: 2.6 MB at 384, of which only the
pages a batch writes become resident). The caller reads a batch as views
of its slot. The pipe carries the pickled epoch job, one-byte tokens of
batches ready (to the caller) and of slots free again (to the helper), and
the pickled final generator state, which the caller's generator adopts, or
the exception a draw raised, raised again in the caller: every bit is as
inline. After an epoch that raised, the generator's state is unspecified.

The parent stops the helper at exit and after an epoch that raised or left
a batch untaken; a helper that dies mid-epoch ends the caller's wait with
``EOFError`` or a broken pipe. The helper holds no copy of the parent's
pipe end, so it exits at end of file if the parent dies, and a process
forked from the parent forgets the helper and its mapping.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import mmap
import os
import pickle
import signal
import threading
from multiprocessing import Pipe

import numpy as np

from . import models
from .graph import PositiveIndex
from .models import corrupt_batch

_SLOTS = 16  # batches the helper may run ahead of the caller
_HEADER = 16  # words of a slot's header: 3, and 3 per gradient table

_helper = None  # (pid, the parent's end of the pipe) once forked
_ring = None  # the helper's (_SLOTS, words) slots, in the mapping it shares
_busy = threading.Lock()  # held by the epoch the helper serves


def _slot_words(rows: int) -> int:
    # The header, 3 per negative, and a plan of at most 25 per triple and 2
    # more (RotatE), of which a batch of ``rows`` negatives holds at most 2 per negative.
    return _HEADER + 53 * rows + 2


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
        first = corrupt_batch(graph, shuffled[:batch_size], rng, kind.negatives)
        conn.send((kind, PositiveIndex(graph), shuffled[batch_size:], batch_size,
                   kind.negatives, type(rng.bit_generator), rng.bit_generator.state))
        batches = -(-len(shuffled) // batch_size)
        prepared = itertools.chain([(first, None)], _received(conn, _ring, rng, batches - 1))
        yield prepared
        if next(prepared, None) is not None:  # a batch left untaken: its tokens would stay
            _stop()
    except BaseException:
        _stop()
        raise
    finally:
        models._drawing_ahead = False
        _busy.release()


def _received(conn, ring, rng, batches: int):
    """The helper's ``batches`` batches, read from the ring in order."""
    wanted = max(0, batches - _SLOTS)  # slots the helper reuses this epoch
    ready = freed = 0
    for j in range(batches):
        # Slots of the batches before j are free again: hand them back in
        # groups of half the ring, and the last ones at once. A full ring's
        # tokens announce all but its last group of at most half the ring, so
        # the helper never waits for a slot while the caller waits for a batch.
        spare = min(j, wanted) - freed
        if spare and (2 * spare >= _SLOTS or j >= wanted):
            conn.send_bytes(bytes([spare]))
            freed += spare
        while j == ready:
            message = conn.recv_bytes()
            if len(message) == 1:
                ready += message[0]
                continue
            message = pickle.loads(message)
            if isinstance(message, Exception):
                raise message
            rng.bit_generator.state = message  # the epoch's last message
            ready = batches
        yield _read(ring[j % _SLOTS])


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


def _connection():
    """The pipe to a live helper whose slots hold a batch of ``_ROW_BLOCK``
    negatives, forked with its ring if need be, or None."""
    global _helper, _ring
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
    ring = np.frombuffer(mmap.mmap(-1, _SLOTS * words * 8), np.intp).reshape(_SLOTS, words)
    parent_end, child_end = Pipe()
    pid = os.fork()
    if pid == 0:
        try:
            parent_end.close()  # else the helper would hold its own end of file off
            _serve(child_end, ring)  # the at-fork hook has forgotten _ring here
        finally:
            os._exit(0)
    child_end.close()
    _helper, _ring = (pid, parent_end), ring
    return parent_end


def _serve(conn, ring) -> None:
    """The helper's loop: one epoch's batches per job, until end of file or
    until a draw raises, which it sends back."""
    while True:
        try:
            kind, index, shuffled, batch_size, count, bit_generator, state = conn.recv()
        except EOFError:
            return
        rng = np.random.Generator(bit_generator())
        rng.bit_generator.state = state
        starts = range(0, len(shuffled), batch_size)
        free, ready, limit = _SLOTS, 0, 1
        try:
            for j, start in enumerate(starts):
                positives = shuffled[start:start + batch_size]
                negatives = corrupt_batch(index, positives, rng, count)
                plan = kind.plan(positives, negatives, index.n_entities, index.n_relations)
                while not free:
                    free += conn.recv_bytes()[0]
                _write(ring[j % _SLOTS], negatives, plan)
                free, ready = free - 1, ready + 1
                if ready == limit and start != starts[-1]:
                    conn.send_bytes(bytes([ready]))
                    ready, limit = 0, min(2 * limit, _SLOTS // 2)
        except EOFError:
            return
        except Exception as exc:  # raised again in the caller
            conn.send(exc)
            return
        conn.send(rng.bit_generator.state)


def _stop() -> None:
    """End the helper, if there is one, reap it and drop its ring."""
    global _helper, _ring
    if _helper is not None:
        (pid, conn), _helper, _ring = _helper, None, None
        conn.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _forget_helper() -> None:
    """In a forked child: the helper and its ring serve the parent alone, and
    the helper must still read end of file when the parent ends."""
    global _helper, _ring, _busy
    if _helper is not None:
        _helper[1].close()
    _helper, _ring, _busy = None, None, threading.Lock()
    models._drawing_ahead = False


atexit.register(_stop)
os.register_at_fork(after_in_child=_forget_helper)
