"""Who draws a training epoch's negatives: the caller, or a helper process.

An epoch's draws depend on its generator, the positive index and the batch
order, never on the store, so a forked helper process can make them while
the caller trains. ``epoch_negatives`` uses it for an epoch of two or more
batches of at most ``models._ROW_BLOCK`` negatives (the size it was measured
at) when there are two or more step threads, of which the helper takes one;
``models.corrupt_batch`` is not replaced, as by a tracer that counts every
draw in the caller; no other thread's epoch holds the helper; and the helper
lives, or the process has one thread to fork it from (a fork copies the
locks other threads hold). Otherwise ``loss_and_grad`` draws inline.

The caller draws the first batch; the helper makes the other batches'
``corrupt_batch`` calls from the caller's generator state, in order, and
sends them back in growing blocks with its final state, which the caller's
generator adopts: every bit is as inline. A draw that raises there is raised
in the caller; after an epoch that raised, the generator's state is
unspecified. The parent stops the helper at exit and after an epoch that
raised. The helper holds no copy of the parent's pipe end, so it exits at end
of file if the parent dies, and a process forked from the parent forgets it.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import signal
import threading
from multiprocessing import Pipe

import numpy as np

from . import models
from .graph import PositiveIndex
from .models import corrupt_batch

_BATCHES_PER_MESSAGE = 8

_helper = None  # (pid, the parent's end of the pipe) once forked
_busy = threading.Lock()  # held by the epoch the helper serves


@contextlib.contextmanager
def epoch_negatives(graph, shuffled, batch_size: int, count: int, rng):
    """Each batch's negatives in batch order, or None for each batch whose
    negatives ``loss_and_grad`` is to draw; ``shuffled`` holds the epoch's
    triples in batch order."""
    conn = None
    if (batch_size < len(shuffled) and batch_size * count <= models._ROW_BLOCK
            and models._step_threads() > 1 and models.corrupt_batch is corrupt_batch
            and _busy.acquire(blocking=False)):
        conn = _connection()
        if conn is None:
            _busy.release()
    if conn is None:
        yield itertools.repeat(None)
        return
    models._drawing_ahead = True
    try:
        first = corrupt_batch(graph, shuffled[:batch_size], rng, count)
        conn.send((PositiveIndex(graph), shuffled[batch_size:], batch_size, count,
                   type(rng.bit_generator), rng.bit_generator.state))
        yield itertools.chain([first], _received(conn, rng, batch_size * count))
    except BaseException:
        _stop()
        raise
    finally:
        models._drawing_ahead = False
        _busy.release()


def _received(conn, rng, rows: int):
    """The negatives of each batch of ``rows`` rows, from the helper's blocks."""
    while True:
        message = conn.recv()
        if isinstance(message, Exception):
            raise message
        block, state = message
        if state is not None:  # the epoch's last message
            rng.bit_generator.state = state
        yield from (block[start:start + rows] for start in range(0, len(block), rows))


def _connection():
    """The pipe to a live helper, forked if need be, or None."""
    global _helper
    if _helper is not None:
        with contextlib.suppress(ChildProcessError):
            if os.waitpid(_helper[0], os.WNOHANG)[0] == 0:
                return _helper[1]
        _helper[1].close()  # the helper died since the last epoch
        _helper = None
    if threading.active_count() > 1:
        return None
    parent_end, child_end = Pipe()
    pid = os.fork()
    if pid == 0:
        try:
            parent_end.close()  # else the helper would hold its own end of file off
            _serve(child_end)
        finally:
            os._exit(0)
    child_end.close()
    _helper = pid, parent_end
    return parent_end


def _serve(conn) -> None:
    """The helper's loop: one epoch's draws per job, until end of file or
    until a draw raises, which it sends back."""
    while True:
        try:
            index, shuffled, batch_size, count, bit_generator, state = conn.recv()
        except EOFError:
            return
        rng = np.random.Generator(bit_generator())
        rng.bit_generator.state = state
        starts = range(0, len(shuffled), batch_size)
        negatives, limit = [], 1
        for start in starts:
            try:
                negatives.append(corrupt_batch(index, shuffled[start:start + batch_size],
                                               rng, count))
            except Exception as exc:  # raised again in the caller
                conn.send(exc)
                return
            last = start == starts[-1]
            if last or len(negatives) == limit:
                conn.send((np.concatenate(negatives), rng.bit_generator.state if last else None))
                negatives, limit = [], min(2 * limit, _BATCHES_PER_MESSAGE)


def _stop() -> None:
    """End the helper, if there is one, and reap it."""
    global _helper
    if _helper is not None:
        (pid, conn), _helper = _helper, None
        conn.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _forget_helper() -> None:
    """In a forked child: the helper serves the parent alone, and must still
    read end of file when the parent ends."""
    global _helper, _busy
    if _helper is not None:
        _helper[1].close()
    _helper, _busy = None, threading.Lock()
    models._drawing_ahead = False


atexit.register(_stop)
os.register_at_fork(after_in_child=_forget_helper)
