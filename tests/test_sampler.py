"""The helper process that draws an epoch's negatives and plans its batches:
the bits of inline draws and plans, its ring of shared slots, the calls the
benchmark's tracer and checks rely on, and no helper left behind by its
parent or waited for after it died."""

import contextlib
import errno
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import chunk_threads, random_graph
from kgedenoise import models, sampler, trainer
from kgedenoise.config import TrainConfig
from kgedenoise.errors import NumericError
from kgedenoise.graph import PositiveIndex
from kgedenoise.models import ModelKind, init_embeddings
from kgedenoise.noise import inject_noise

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")

BATCH = 16
LEARNING_RATE = 0.05
CASES = pytest.mark.parametrize(
    "model, norm", [("transe", "l1"), ("transe", "l2"), ("distmult", "l1"), ("rotate", "l1")],
    ids=["transe-l1", "transe-l2", "distmult", "rotate"])


@pytest.fixture(autouse=True)
def one_thread():
    """The helper is forked only from a process with one thread: join the
    threads of a chunk pool an earlier test left."""
    if models._pool is not None:
        models._pool.shutdown()
        models._forget_pool()


@contextlib.contextmanager
def draws(helper: bool):
    """Multi-batch epochs draw in the helper, or inline as under ``--threads 1``,
    whatever the host's CPU count; every chunk runs in the calling thread."""
    with chunk_threads(1), mock.patch.object(models, "_usable_cpus", lambda: 2), \
            mock.patch.object(models, "_max_threads", None if helper else 1):
        yield


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``, rather than
    let a caller and a helper that wait for each other hang the suite."""
    def expire(*_):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def setup(model="distmult", norm="l1"):
    # 200 triples in batches of 16: 13 batches, the last of 8. The caller
    # draws the first, and the helper sends the other 12 in blocks of 1, 2, 4
    # and 5 batches.
    graph = random_graph(np.random.default_rng(21), n_entities=30, n_relations=4,
                         n_train=200, n_valid=5, n_test=5)
    config = TrainConfig(model=model, norm=norm, dim=6, batch_size=BATCH, k_negatives=3, seed=5)
    kind = trainer.model_kind(config)
    return graph, kind, init_embeddings(graph.n_entities, graph.n_relations, 6, kind, seed=1)


def epoch(kind, store, graph, seed, triples=None):
    """(mean loss, final generator state) of one epoch with generator ``seed``."""
    rng = np.random.default_rng(seed)
    loss = trainer.run_kge_epoch(kind, store, graph, graph.train if triples is None else triples,
                                 LEARNING_RATE, BATCH, rng)
    return loss, rng.bit_generator.state


def store_bytes(store):
    return [matrix.tobytes() for _, *matrices in store.matrices() for matrix in matrices]


def drawn_ahead():
    """Patch ``trainer.loss_and_grad`` to record, per batch, whether its
    negatives came drawn; returns the list it fills."""
    ahead = []
    real = trainer.loss_and_grad

    def recording(*args, negatives=None, **kwargs):
        ahead.append(negatives is not None)
        return real(*args, negatives=negatives, **kwargs)
    return ahead, mock.patch.object(trainer, "loss_and_grad", recording)


def caller_draws():
    """Patch ``models.corrupt_batch`` to record the pid of each call made
    in this process; returns the list it fills."""
    pids = []
    real = models.corrupt_batch

    def recording(*args, **kwargs):
        pids.append(os.getpid())
        return real(*args, **kwargs)
    return pids, mock.patch.object(models, "corrupt_batch", recording)


@CASES
def test_helper_draws_are_bitwise_the_inline_draws(model, norm):
    runs = {}
    for helper in (True, False):
        graph, kind, store = setup(model, norm)
        ahead, patch = drawn_ahead()
        with draws(helper), patch:
            results = [epoch(kind, store, graph, seed) for seed in range(3)]
        runs[helper] = results, store_bytes(store), sum(ahead)
    assert runs[True][:2] == runs[False][:2]
    # With the helper, every batch of the 3 epochs of 13 comes drawn;
    # inline, loss_and_grad draws each.
    assert (runs[True][2], runs[False][2]) == (39, 0)


SLOT_CASES = pytest.mark.parametrize(
    "model, norm, count", [("transe", "l1", 1), ("transe", "l2", 1), ("distmult", "l1", 1),
                           ("distmult", "l1", 3), ("rotate", "l1", 1), ("rotate", "l1", 3)],
    ids=["transe-l1", "transe-l2", "distmult-1", "distmult-3", "rotate-1", "rotate-3"])


def runs_with_and_without_helper(kind, graph, batch_size, seeds, fresh_helper=False):
    """{helper: ((mean loss, generator state) per epoch, store bytes, batches
    that came prepared)}, training a fresh store on each side."""
    runs = {}
    try:
        for helper in (True, False):
            store = init_embeddings(graph.n_entities, graph.n_relations, 6, kind, seed=1)
            if fresh_helper:
                sampler._stop()  # the next helper is forked under the test's patches
            ahead, patch = drawn_ahead()
            results = []
            with draws(helper), patch, deadline(60):
                for seed in seeds:
                    rng = np.random.default_rng(seed)
                    loss = trainer.run_kge_epoch(kind, store, graph, graph.train, LEARNING_RATE,
                                                 batch_size, rng)
                    results.append((loss, rng.bit_generator.state))
                if helper:
                    ring = sampler._ring.shape
            runs[helper] = results, store_bytes(store), sum(ahead)
    finally:
        if fresh_helper:
            sampler._stop()
    return runs, ring


@SLOT_CASES
def test_helper_batches_that_fill_the_largest_slot_are_bitwise_inline(model, norm, count):
    # A helper forked for batches of exactly one row block of negatives,
    # over entities enough that nearly every id is a row of its own: the
    # largest plans its slots were sized for.
    graph = random_graph(np.random.default_rng(22), n_entities=2000, n_relations=4,
                         n_train=200, n_valid=5, n_test=5)
    kind = trainer.model_kind(TrainConfig(model=model, norm=norm, dim=6, k_negatives=count))
    rows = BATCH * kind.negatives
    with mock.patch.object(models, "_ROW_BLOCK", rows):
        runs, ring = runs_with_and_without_helper(kind, graph, BATCH, range(3), fresh_helper=True)
    assert ring == (sampler._SLOTS, sampler._slot_words(rows))
    assert runs[True][:2] == runs[False][:2]
    assert (runs[True][2], runs[False][2]) == (39, 0)


@pytest.mark.parametrize("slots", [2, 16])
@CASES
def test_epochs_of_more_batches_than_slots_are_bitwise_inline(model, norm, slots):
    # Batches of 4: 50 an epoch, so a ring of 16 slots wraps three times and
    # one of 2 after every other batch.
    graph, kind, _ = setup(model, norm)
    with mock.patch.object(sampler, "_SLOTS", slots):
        runs, ring = runs_with_and_without_helper(kind, graph, 4, range(2), fresh_helper=True)
    assert ring[0] == slots
    assert runs[True][:2] == runs[False][:2]
    assert (runs[True][2], runs[False][2]) == (100, 0)


@CASES
def test_a_ring_of_two_slots_wraps_bitwise_inline(model, norm):
    # A mapping of two slots of exactly one batch: the helper writes each
    # slot six times an epoch, each time waiting for the caller to free it.
    graph, kind, _ = setup(model, norm)
    rows = BATCH * kind.negatives
    with mock.patch.object(models, "_ROW_BLOCK", rows), mock.patch.object(sampler, "_SLOTS", 2):
        runs, ring = runs_with_and_without_helper(kind, graph, BATCH, range(2), fresh_helper=True)
    assert ring == (2, sampler._slot_words(rows))
    assert runs[True][:2] == runs[False][:2]
    assert (runs[True][2], runs[False][2]) == (26, 0)


def test_only_batches_of_one_row_block_are_drawn_ahead():
    graph, kind, store = setup()
    for row_block, expected in ((BATCH * kind.negatives, 13), (BATCH * kind.negatives - 1, 0)):
        ahead, patch = drawn_ahead()
        with draws(True), patch, mock.patch.object(models, "_ROW_BLOCK", row_block):
            epoch(kind, store, graph, 0)
        assert sum(ahead) == expected


def test_the_pool_lends_the_helper_a_thread():
    # Under a cap of 2 threads, the caller and the helper are the two: a step
    # of several chunks runs them all in the caller while the helper draws.
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)  # forks the helper before the pool has a thread
    assert sampler._helper is not None
    pieces, submits = [], []
    real_chunks, real_submit = models._run_chunks, ThreadPoolExecutor.submit

    def chunks(body, parts):
        parts = list(parts)
        pieces.append((len(parts), models._drawing_ahead))
        return real_chunks(body, parts)

    def submit(self, *args, **kwargs):
        submits.append(models._drawing_ahead)
        return real_submit(self, *args, **kwargs)

    with draws(True), chunk_threads(2), mock.patch.object(models, "_ROW_BLOCK", BATCH), \
            mock.patch.object(models, "_run_chunks", chunks), \
            mock.patch.object(ThreadPoolExecutor, "submit", submit):
        assert models._step_threads() == 2
        with mock.patch.object(models, "_ROW_BLOCK", BATCH * kind.negatives):
            epoch(kind, store, graph, 1)
        assert (2, True) in pieces and submits == []
        epoch(kind, store, graph, 2)  # batches over one row block: drawn inline
    assert (2, False) in pieces and submits and not any(submits)


def test_a_helper_that_died_is_replaced():
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    pid = sampler._helper[0]
    os.kill(pid, signal.SIGKILL)
    assert wait_gone(pid)
    runs = {}
    for helper in (True, False):
        graph, kind, store = setup()
        ahead, patch = drawn_ahead()
        with draws(helper), patch:
            runs[helper] = epoch(kind, store, graph, 1), store_bytes(store), sum(ahead)
    assert runs[True][:2] == runs[False][:2] and runs[True][2] == 13
    assert sampler._helper[0] != pid


def test_a_helper_killed_mid_epoch_ends_the_epoch_and_is_replaced():
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    pid = sampler._helper[0]
    real, calls = trainer.loss_and_grad, []

    def killing_on_third_batch(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            os.kill(pid, signal.SIGKILL)
        return real(*args, **kwargs)

    # Batches of 4: 50, more than the ring holds, so the caller must hear from
    # the dead helper again. A wait that never ends raises TimeoutError instead.
    with draws(True), mock.patch.object(trainer, "loss_and_grad", killing_on_third_batch), \
            pytest.raises((EOFError, BrokenPipeError, ConnectionResetError)), deadline(30):
        trainer.run_kge_epoch(kind, store, graph, graph.train, LEARNING_RATE, 4,
                              np.random.default_rng(1))
    assert sampler._helper is None and wait_gone(pid)
    runs = {}
    for helper in (True, False):
        graph, kind, store = setup()
        ahead, patch = drawn_ahead()
        with draws(helper), patch:
            runs[helper] = epoch(kind, store, graph, 2), store_bytes(store), sum(ahead)
    assert runs[True][:2] == runs[False][:2] and runs[True][2] == 13
    assert sampler._helper[0] != pid


def test_a_helper_whose_slots_are_too_small_is_replaced():
    graph, kind, store = setup()
    sampler._stop()
    with draws(True), mock.patch.object(models, "_ROW_BLOCK", kind.negatives):
        trainer.run_kge_epoch(kind, store, graph, graph.train[:20], LEARNING_RATE, 1,
                              np.random.default_rng(0))  # forks a helper for batches of 1
    pid = sampler._helper[0]
    assert sampler._ring.shape[1] < sampler._slot_words(BATCH * kind.negatives)
    runs = {}
    for helper in (True, False):
        graph, kind, store = setup()
        ahead, patch = drawn_ahead()
        with draws(helper), patch:
            runs[helper] = epoch(kind, store, graph, 1), store_bytes(store), sum(ahead)
    assert runs[True][:2] == runs[False][:2] and runs[True][2] == 13
    assert sampler._helper[0] != pid and wait_gone(pid)


def test_an_epoch_that_leaves_batches_untaken_stops_the_helper():
    # The helper's tokens for the untaken batches would reach the next epoch.
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
        pid = sampler._helper[0]
        rng = np.random.default_rng(1)
        shuffled = graph.train[rng.permutation(len(graph.train))]
        with sampler.epoch_batches(kind, graph, shuffled, BATCH, rng) as prepared:
            next(prepared), next(prepared)
    assert sampler._helper is None and wait_gone(pid)
    runs = {}
    for helper in (True, False):
        graph, kind, store = setup()
        ahead, patch = drawn_ahead()
        with draws(helper), patch:
            runs[helper] = epoch(kind, store, graph, 2), store_bytes(store), sum(ahead)
    assert runs[True][:2] == runs[False][:2] and runs[True][2] == 13


def test_a_process_with_other_threads_forks_no_helper():
    graph, kind, store = setup()
    sampler._stop()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        ahead, patch = drawn_ahead()
        with draws(True), patch:
            epoch(kind, store, graph, 0)
    finally:
        release.set()
        other.join()
    assert sampler._helper is None and not any(ahead)


def test_epoch_after_a_numeric_error_matches_inline():
    real = trainer.loss_and_grad

    def nan_on_third_batch(*args, **kwargs):
        calls.append(1)
        loss, grads = real(*args, **kwargs)
        return (float("nan") if len(calls) == 3 else loss), grads

    runs = {}
    for helper in (True, False):
        graph, kind, store = setup()
        calls = []
        with draws(helper):
            with mock.patch.object(trainer, "loss_and_grad", nan_on_third_batch), \
                    pytest.raises(NumericError):
                epoch(kind, store, graph, 0)
            runs[helper] = epoch(kind, store, graph, 1), store_bytes(store)
    assert runs[True] == runs[False]


def test_a_draw_that_raises_in_the_helper_is_raised_in_the_caller():
    graph, kind, store = setup()
    sampler._stop()  # the next helper is forked with the failing draw below
    caller, real = os.getpid(), models.corrupt_batch

    def failing_in_the_helper(*args, **kwargs):
        if os.getpid() != caller:
            raise ValueError("draw failed")
        return real(*args, **kwargs)

    try:
        # Patched in both modules, the draw counts as not replaced.
        with draws(True), mock.patch.object(models, "corrupt_batch", failing_in_the_helper), \
                mock.patch.object(sampler, "corrupt_batch", failing_in_the_helper), \
                pytest.raises(ValueError, match="draw failed"):
            epoch(kind, store, graph, 0)
        assert sampler._helper is None
    finally:
        sampler._stop()


@contextlib.contextmanager
def draw_patched(draw):
    """``draw`` as the draw in both modules, where it counts as not replaced,
    in a helper forked afresh; the helper is stopped at the end."""
    sampler._stop()
    try:
        with mock.patch.object(models, "corrupt_batch", draw), \
                mock.patch.object(sampler, "corrupt_batch", draw):
            yield
    finally:
        sampler._stop()


def test_a_draw_that_raises_on_the_helpers_last_batch_is_raised_in_the_caller():
    # The caller reads the last batch from the ring, whoever drew the others,
    # and finds its slot marked as failed, or the exception in the pipe.
    graph, kind, store = setup()
    caller, real, calls = os.getpid(), models.corrupt_batch, []

    def failing_last_in_the_helper(*args, **kwargs):
        if os.getpid() != caller:
            calls.append(1)  # in the helper's copy of the list
            if len(calls) == 12:
                raise ValueError("last draw failed")
        return real(*args, **kwargs)

    with draws(True), deadline(30), draw_patched(failing_last_in_the_helper):
        with pytest.raises(ValueError, match="last draw failed"):
            epoch(kind, store, graph, 0)
        assert sampler._helper is None


def inline_runs(seeds):
    """((mean loss, generator state) per epoch, store bytes) drawn inline."""
    graph, kind, store = setup()
    with draws(False):
        return [epoch(kind, store, graph, seed) for seed in seeds], store_bytes(store)


def test_a_helper_behind_the_caller_is_drawn_around_and_reused():
    # The helper's draws wait until the caller has drawn the epoch's first 12
    # batches itself. The caller frees their slots unread, waits for the
    # helper's last batch, and the next epoch reuses the same helper.
    graph, kind, store = setup()
    caller, real = os.getpid(), models.corrupt_batch
    held, release = os.pipe()
    drawn, helpers = [], []

    def held_in_the_helper(*args, **kwargs):
        if os.getpid() != caller:
            os.read(held, 1)
        else:
            drawn.append(1)
            if len(drawn) % 12 == 0:
                os.write(release, bytes(12))
        return real(*args, **kwargs)

    ahead, patch = drawn_ahead()
    try:
        with draws(True), patch, deadline(60), draw_patched(held_in_the_helper):
            results = []
            for seed in range(2):
                results.append(epoch(kind, store, graph, seed))
                helpers.append(sampler._helper[0])
    finally:
        os.close(held)
        os.close(release)
    assert (results, store_bytes(store)) == inline_runs(range(2))
    assert len(drawn) == 24 and sum(ahead) == 26 and helpers[0] == helpers[1]


def test_a_caller_behind_the_helper_reads_every_later_batch_from_the_ring():
    # Each of the caller's steps waits until the helper has begun the batch
    # after the next one, so the next one is written: the caller draws only
    # the first batch of each epoch.
    graph, kind, store = setup()
    caller, real_draw, real_step = os.getpid(), models.corrupt_batch, trainer.loss_and_grad
    begun, signal_end = os.pipe()
    drawn, ahead = [], []

    def signalling(*args, **kwargs):
        if os.getpid() == caller:
            drawn.append(1)
        else:
            os.write(signal_end, b"x")
        return real_draw(*args, **kwargs)

    def slowed(*args, negatives=None, **kwargs):
        # The step on batch k of 13 waits until the helper has begun its draw
        # k + 2 (of 12), so batch k + 1 is written: two signals before the
        # first step, one before each of the next ten.
        k = len(ahead) % 13
        ahead.append(negatives is not None)
        for _ in range(2 if k == 0 else 1 if k < 11 else 0):
            os.read(begun, 1)
        return real_step(*args, negatives=negatives, **kwargs)

    try:
        with draws(True), deadline(60), draw_patched(signalling), \
                mock.patch.object(trainer, "loss_and_grad", slowed):
            results = [epoch(kind, store, graph, seed) for seed in range(2)]
    finally:
        os.close(begun)
        os.close(signal_end)
    assert (results, store_bytes(store)) == inline_runs(range(2))
    assert len(drawn) == 2 and sum(ahead) == 26


def test_epochs_without_semaphores_draw_inline():
    import _multiprocessing
    import multiprocessing.synchronize  # noqa: F401 (imported before SemLock is patched)

    graph, kind, store = setup()
    sampler._stop()
    ahead, patch = drawn_ahead()
    with draws(True), patch, mock.patch.object(
            _multiprocessing, "SemLock", side_effect=OSError(errno.ENOSYS, "no sem_open")) as made:
        results = [epoch(kind, store, graph, seed) for seed in range(2)]
    assert made.called and sampler._helper is None and sum(ahead) == 0
    assert (results, store_bytes(store)) == inline_runs(range(2))


# -- the calls the benchmark relies on ------------------------------------------------------


def test_single_batch_epoch_draws_through_models_corrupt_batch_in_the_caller():
    # perfbench's lazy-Adam check captures the negatives this way.
    graph, kind, store = setup()
    pids, patch = caller_draws()
    with draws(True), patch:
        epoch(kind, store, graph, 0, triples=graph.train[:BATCH])
    assert pids == [os.getpid()]


def test_a_replaced_corrupt_batch_sees_every_draw_in_the_caller():
    # perfbench's tracer counts each batch's negatives this way.
    graph, kind, store = setup()
    pids, patch = caller_draws()
    with draws(True), patch:
        epoch(kind, store, graph, 0)
    assert pids == [os.getpid()] * 13


def test_multi_batch_epoch_calls_loss_and_grad_once_per_batch():
    graph, kind, store = setup()
    real = trainer.loss_and_grad
    negatives = []

    def counting(*args, **kwargs):
        negatives.append(kwargs["negatives"])
        return real(*args, **kwargs)

    with draws(True), mock.patch.object(trainer, "loss_and_grad", counting):
        epoch(kind, store, graph, 0)
    assert len(negatives) == 13 and all(n is not None for n in negatives)
    assert [len(n) for n in negatives] == [BATCH * kind.negatives] * 12 + [8 * kind.negatives]


def test_helper_receives_no_split_or_noise_label():
    _, kind, store = setup()
    clean = random_graph(np.random.default_rng(21), n_entities=30, n_relations=4,
                         n_train=200, n_valid=5, n_test=5)
    graph = inject_noise(clean, 0.1, seed=2)
    assert graph.train_labels.any()
    sent = []
    real_send = Connection.send

    def recording(self, obj):
        sent.append(obj)
        return real_send(self, obj)

    try:
        with draws(True), mock.patch.object(Connection, "send", recording):
            trainer.run_kge_epoch(kind, store, graph, graph.train[:3 * BATCH], LEARNING_RATE,
                                  BATCH, np.random.default_rng(0))
    finally:
        sampler._stop()
    (kind_sent, index, shuffled, batch_size, count, bit_generator, state), = sent
    assert isinstance(kind_sent, ModelKind) and kind_sent == kind
    assert type(index) is PositiveIndex
    assert set(vars(index)) == {"n_entities", "n_relations", "positive_index", "_code_weights"}
    assert index.positive_index is graph.positive_index
    assert shuffled.shape == (2 * BATCH, 3) and (batch_size, count) == (BATCH, kind.negatives)
    assert bit_generator is np.random.PCG64 and state["bit_generator"] == "PCG64"


# -- no helper outlives its parent ---------------------------------------------------------------


def gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie counts: it runs no more)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_gone(pid: int, seconds: float = 5.0) -> bool:
    """Whether ``pid`` exits within ``seconds``; one that does not is killed,
    so that a failing test leaves no helper holding the suite's output open."""
    deadline = time.monotonic() + seconds
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if gone(pid):
        return True
    os.kill(pid, signal.SIGKILL)
    return False


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")


@needs_proc
def test_helper_ends_at_end_of_file():
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    pid, conn = sampler._helper
    sampler._helper = None
    conn.close()  # the helper's only peer closes its end: no kill
    assert wait_gone(pid)
    assert os.waitpid(pid, 0) == (pid, 0)


def test_forked_child_forgets_the_helper():
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    helper = sampler._helper
    with mock.patch.object(models, "_drawing_ahead", True):  # as if forked mid-epoch
        pid = os.fork()
        if pid == 0:  # child: the helper is the parent's, and its pipe end is closed here
            os._exit(0 if sampler._helper is None and helper[1].closed
                     and not models._drawing_ahead else 1)
    assert os.waitpid(pid, 0)[1] == 0
    assert sampler._helper is helper and not helper[1].closed


def test_forked_child_forgets_the_mapping():
    # The ring is a shared mapping: a child that reused it would have its
    # own helper write into the parent's slots.
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    ring, before = sampler._ring, sampler._ring.copy()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            forgot = sampler._ring is None
            with draws(True):
                epoch(kind, store, graph, 1)
            status = 0 if forgot and sampler._ring is not ring else 1
        finally:
            sampler._stop()
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    assert sampler._ring is ring and np.array_equal(ring, before)


def test_forked_child_forgets_the_semaphores():
    # A child that took or posted the parent's semaphores would take the
    # parent's batches or free slots the parent still reads.
    graph, kind, store = setup()
    with draws(True):
        epoch(kind, store, graph, 0)
    semaphores = sampler._semaphores
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            forgot = sampler._semaphores is None
            with draws(True):
                epoch(kind, store, graph, 1)
            status = 0 if forgot and sampler._semaphores is not semaphores else 1
        finally:
            sampler._stop()
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    assert sampler._semaphores is semaphores
    assert not any(semaphore.acquire(False) for semaphore in semaphores)


SCRIPT = textwrap.dedent("""
    import sys, time
    import numpy as np
    from kgedenoise import models, sampler, trainer
    from kgedenoise.config import TrainConfig
    from kgedenoise.graph import KnowledgeGraph, Vocabulary

    models._usable_cpus = lambda: 2
    train = np.array([(i, 0, (i + 1) % 20) for i in range(20)])
    graph = KnowledgeGraph(Vocabulary(map(str, range(20))), Vocabulary(["r"]), train,
                           train[:0], train[:0])
    kind = trainer.model_kind(TrainConfig(model="transe", dim=4))
    store = models.init_embeddings(20, 1, 4, kind, seed=0)
    trainer.run_kge_epoch(kind, store, graph, train, 0.01, 4, np.random.default_rng(0))
    print(sampler._helper[0], flush=True)
    if sys.argv[1] == "sigkill":
        time.sleep(60)
""")


@needs_proc
@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_no_helper_outlives_its_parent(end):
    src = str(Path(trainer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", SCRIPT, end], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        helper = int(proc.stdout.readline())
        if end == "sigkill":
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
        proc.stdout.close()
    assert proc.returncode == (-signal.SIGKILL if end == "sigkill" else 0)
    assert wait_gone(helper)


BLOCKED_SCRIPT = textwrap.dedent("""
    import time
    import numpy as np
    from kgedenoise import models, sampler, trainer
    from kgedenoise.config import TrainConfig
    from kgedenoise.graph import KnowledgeGraph, Vocabulary

    models._usable_cpus = lambda: 2
    models._ROW_BLOCK, sampler._SLOTS = 2, 2  # a ring of two slots for TransE batches of 2
    train = np.array([(i, 0, (i + 1) % 20) for i in range(20)])
    graph = KnowledgeGraph(Vocabulary(map(str, range(20))), Vocabulary(["r"]), train,
                           train[:0], train[:0])
    kind = trainer.model_kind(TrainConfig(model="transe", dim=4))
    store = models.init_embeddings(20, 1, 4, kind, seed=0)

    def held(*args, **kwargs):
        # The caller's first step: the helper fills both slots and waits for
        # a free one, which this caller never gives.
        while sampler._semaphores[0].get_value() < 2:
            time.sleep(0.01)
        time.sleep(2 * sampler._POLL)
        print(sampler._helper[0], flush=True)
        time.sleep(60)

    trainer.loss_and_grad = held
    trainer.run_kge_epoch(kind, store, graph, train, 0.01, 2, np.random.default_rng(0))
""")


@needs_proc
def test_a_helper_waiting_for_a_free_slot_exits_when_its_parent_is_killed():
    src = str(Path(trainer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", BLOCKED_SCRIPT], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        helper = int(proc.stdout.readline())
        assert not gone(helper)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL
    assert wait_gone(helper, seconds=5.0)
