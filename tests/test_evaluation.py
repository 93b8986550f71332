import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_filtered_rank, exhaustive_max_f1, make_graph, random_graph
from kgedenoise.errors import DataError
from kgedenoise.evaluation import (_best_threshold, f1_score, filtered_rank, link_prediction,
                                   max_f1_sweep, noise_detection_f1, triple_classification)
from kgedenoise.models import (DistMult, EmbeddingStore, RotatE, TransE, init_embeddings,
                               score_batch)


# -- noise-detection F1 --------------------------------------------------------------------


def test_perfect_mask_scores_one():
    labels = np.array([True, False, True, False])
    mask = ~labels  # selected = clean
    assert noise_detection_f1(mask, labels) == 1.0


def test_select_all_mask_scores_zero():
    labels = np.array([False, True, False])
    mask = np.ones(3, dtype=bool)
    assert noise_detection_f1(mask, labels) == 0.0


def test_sweep_recovers_separable_case():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array([True, True, False, False])
    assert noise_detection_f1(scores, labels) == 1.0
    assert exhaustive_max_f1(scores, labels) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_matches_exhaustive_oracle(data):
    n = data.draw(st.integers(2, 12))
    scores = np.asarray(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)))
    labels = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not labels.any():
        labels[0] = True
    assert noise_detection_f1(scores, labels) == pytest.approx(
        exhaustive_max_f1(scores, labels), rel=1e-12)


def max_f1_sweep_loop(scores, labels):
    """The sweep as it was first written: ``f1_score`` at every distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    best, best_threshold = 0.0, -np.inf
    for threshold in np.unique(scores):
        f1 = f1_score(scores <= threshold, labels)
        if f1 > best:
            best, best_threshold = f1, float(threshold)
    return best, best_threshold


def sweep_bits(result):
    return np.array(result, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweep_is_bitwise_equal_to_the_loop(data):
    # Few distinct values make ties; NaN is never predicted noise, and
    # -0.0 and 0.0 are one threshold.
    n = data.draw(st.integers(0, 40))
    values = data.draw(st.sampled_from([
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan]),
        st.floats(-5, 5, allow_nan=False),
        st.floats(allow_nan=True, allow_infinity=True)]))
    scores = np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    labels = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if data.draw(st.booleans()):
        labels[:] = False  # all clean: no F1 above 0
    assert sweep_bits(max_f1_sweep(scores, labels)) == \
        sweep_bits(max_f1_sweep_loop(scores, labels))


def test_sweep_first_maximum_wins_and_clean_labels_give_no_threshold():
    # Thresholds 1 (precision 1, recall 1/2) and 4 (1/2, 1) both reach F1
    # 1/1.5; the lower one is returned.
    scores = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
    labels = np.array([True, False, False, True, False])
    assert max_f1_sweep(scores, labels) == (1.0 / 1.5, 1.0)
    assert max_f1_sweep(scores, np.zeros(5, dtype=bool)) == (0.0, -np.inf)
    assert max_f1_sweep(np.full(3, np.nan), np.ones(3, dtype=bool)) == (0.0, -np.inf)


def test_mask_as_scores_matches_hard_f1_for_sane_detectors():
    # holds whenever the mask is at least as good as predicting everything
    rng = np.random.default_rng(0)
    for _ in range(50):
        labels = rng.random(20) < 0.3
        if not labels.any():
            labels[0] = True
        selected = ~labels ^ (rng.random(20) < 0.1)  # mostly-correct detector
        hard = noise_detection_f1(selected, labels)
        predict_all = f1_score(np.ones(20, dtype=bool), labels)
        if hard < predict_all:
            continue  # worse-than-trivial detectors lose to the sweep's all-noise cutoff
        assert noise_detection_f1(selected.astype(float), labels) == pytest.approx(hard)


def test_requires_positive_labels():
    with pytest.raises(DataError):
        noise_detection_f1(np.ones(3, dtype=bool), np.zeros(3, dtype=bool))
    with pytest.raises(DataError):
        noise_detection_f1(np.ones(3, dtype=bool), np.zeros(4, dtype=bool))


# -- filtered ranking -----------------------------------------------------------------------


def line_graph_store():
    """Shift rule on a line, embedded exactly: perfect model."""
    train = [(i, 0, i + 1) for i in range(6)]
    test = [(6, 0, 7), (1, 1, 3)]
    train += [(i, 1, i + 2) for i in range(4)]
    graph = make_graph(train, valid=[(0, 1, 2)], test=test, n_entities=9, n_relations=2)
    ent = np.arange(9, dtype=np.float64).reshape(-1, 1)
    rel = np.array([[1.0], [2.0]])
    store = EmbeddingStore(TransE("l1"), 1, ent, rel)
    return graph, store


def test_perfect_model_scores_one():
    graph, store = line_graph_store()
    result = link_prediction(store.kind, store, graph)
    assert result.mrr == 1.0
    assert all(v == 1.0 for v in result.hits.values())


def test_rank_arithmetic():
    scores = np.array([9.0, 5.0, 7.0, 8.0, 1.0])
    rank = filtered_rank(scores, true_entity=1, known_entities=[])
    assert rank == 4
    assert 1.0 / rank == 0.25
    assert not rank <= 3 and rank <= 10


def test_filtered_rank_pessimistic_on_ties():
    scores = np.zeros(8)
    rank = filtered_rank(scores, true_entity=2, known_entities=[4, 5])
    assert rank == 6  # |filtered pool| = 8 - 2


def test_filtering_only_helps():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    for true_entity in range(5):
        raw = filtered_rank(scores, true_entity, [])
        filtered = filtered_rank(scores, true_entity, [(true_entity + 1) % 30,
                                                       (true_entity + 2) % 30])
        assert filtered <= raw


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_invariant_under_monotone_transform(data):
    # dyadic scores keep 2*s + 7 exactly representable, so the transform
    # is strictly monotone in floating point too (no ties created)
    n = data.draw(st.integers(3, 20))
    grid = data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    scores = np.asarray(grid, dtype=np.float64) / 16.0
    true_entity = data.draw(st.integers(0, n - 1))
    known = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    base = filtered_rank(scores, true_entity, known)
    transformed = filtered_rank(2.0 * scores + 7.0, true_entity, known)
    assert base == transformed


def filtered_rank_by_mask(scores, true_entity, known_entities):
    """``filtered_rank`` as first written: mask the known entities out of ``scores``."""
    valid = np.ones(len(scores), dtype=bool)
    valid[known_entities] = False
    valid[true_entity] = True
    pool = scores[valid]
    s_true = scores[true_entity]
    greater = int(np.count_nonzero(pool > s_true))
    equal = int(np.count_nonzero(pool == s_true)) - 1  # drop the true entity itself
    return 1 + greater + equal


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_counted_rank_equals_the_masked_rank(data):
    # Few dyadic values make many exact ties, infinities tie with themselves,
    # and a NaN answer score compares false with everything (rank 0).
    n = data.draw(st.integers(1, 24))
    values = st.one_of(st.integers(-4, 4).map(lambda k: k / 4.0),
                       st.sampled_from([-np.inf, -0.0, np.inf]))
    scores = np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    answer = data.draw(st.integers(0, n - 1))
    if data.draw(st.integers(0, 4)) == 0:
        scores[answer] = np.nan
    known = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    known = [e for e in known if e != answer]
    if data.draw(st.booleans()):
        known.insert(data.draw(st.integers(0, len(known))), answer)
    form = data.draw(st.sampled_from(["list", "empty", "array"]))
    if form == "empty":
        known = []
    elif form == "array":
        known = np.asarray(known, dtype=np.int64)
    assert filtered_rank(scores, answer, known) == filtered_rank_by_mask(scores, answer, known)


@pytest.mark.parametrize("kind", [TransE("l1"), TransE("l2"), DistMult(), RotatE()],
                         ids=["transe-l1", "transe-l2", "distmult", "rotate"])
def test_ranking_matches_brute_force_oracle(kind):
    rng = np.random.default_rng(3)
    graph = random_graph(rng, n_entities=20, n_relations=3, n_train=120, n_valid=30,
                         n_test=30)
    store = init_embeddings(20, 3, 6, kind, seed=5)
    result = link_prediction(kind, store, graph)

    known = set()
    for split in (graph.train, graph.valid, graph.test):
        known.update(map(tuple, split.tolist()))

    def score_one(h, r, t):
        return float(score_batch(kind, store, np.array([[h, r, t]]))[0])

    # independent loop-based reference, pessimistic ties
    idx = 0
    for h, r, t in graph.test.tolist():
        true_head = score_one(h, r, t)
        rank_head = 1
        for e in range(20):
            if e == h or (e, r, t) in known:
                continue
            if score_one(e, r, t) >= true_head:
                rank_head += 1
        assert result.ranks[idx] == rank_head
        rank_tail = 1
        for e in range(20):
            if e == t or (h, r, e) in known:
                continue
            if score_one(h, r, e) >= true_head:
                rank_tail += 1
        assert result.ranks[idx + 1] == rank_tail
        idx += 2

    assert result.hits[1] <= result.hits[3] <= result.hits[10]
    assert result.mrr >= result.hits[1]


@pytest.mark.parametrize("kind", [TransE("l1"), DistMult(), RotatE()],
                         ids=["transe-l1", "distmult", "rotate"])
@pytest.mark.parametrize("seed", range(3))
def test_ranking_matches_the_oracle_with_cross_split_duplicates(kind, seed):
    # Valid repeats train triples, and test repeats train and valid triples
    # and itself, so a query's known entities come from every split at once.
    rng = np.random.default_rng(seed)
    base = random_graph(rng, n_entities=12, n_relations=3, n_train=70, n_valid=10, n_test=10)
    train, valid, test = (split.tolist() for split in (base.train, base.valid, base.test))
    valid += [train[i] for i in rng.choice(len(train), 5, replace=False)]
    test += [train[i] for i in rng.choice(len(train), 4, replace=False)]
    test += valid[:3] + test[:2]
    graph = make_graph(train, valid, test, n_entities=12, n_relations=3)
    store = init_embeddings(12, 3, 4, kind, seed=seed)
    result = link_prediction(kind, store, graph)

    known = {tuple(row) for split in (train, valid, test) for row in split}

    def score_one(h, r, t):
        return float(score_batch(kind, store, np.array([[h, r, t]]))[0])

    expected = []
    for h, r, t in test:
        for side in ("head", "tail"):
            answer = h if side == "head" else t
            expected.append(brute_force_filtered_rank(score_one, 12, (h, r, t), answer, known,
                                                      side))
    assert result.ranks.tolist() == expected


def test_link_prediction_requires_test_split():
    graph = make_graph([(0, 0, 1)], n_entities=3)
    store = init_embeddings(3, 1, 2, TransE(), seed=0)
    with pytest.raises(DataError):
        link_prediction(store.kind, store, graph)


# -- triple classification -------------------------------------------------------------------


def classification_store(positions):
    ent = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    return EmbeddingStore(TransE("l1"), 1, ent, np.array([[0.0], [0.0]]))


def test_separable_scores_reach_full_accuracy():
    # positives score -1, negatives -5, for both relations
    store = classification_store([0.0, 1.0, 5.0])
    vt = np.array([[0, 0, 1], [0, 0, 2], [0, 1, 1], [0, 1, 2]])
    vl = np.array([1, -1, 1, -1])
    tt = vt.copy()
    tl = vl.copy()
    result = triple_classification(store.kind, store, vt, vl, tt, tl)
    assert result.accuracy == 1.0


def test_constant_scores_balanced_accuracy_half():
    store = classification_store([0.0, 0.0, 0.0])
    vt = np.array([[0, 0, 1], [0, 0, 2], [1, 0, 0], [2, 0, 0]])
    vl = np.array([1, -1, 1, -1])
    result = triple_classification(store.kind, store, vt, vl, vt, vl)
    assert result.accuracy == 0.5


def best_threshold_loop(scores, labels):
    """``_best_threshold`` as first written: every candidate's accuracy in turn."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    candidates = [sorted_scores[0] - 1.0]
    candidates.extend((sorted_scores[i] + sorted_scores[i + 1]) / 2.0
                      for i in range(len(sorted_scores) - 1))
    candidates.append(sorted_scores[-1] + 1.0)

    best_threshold, best_accuracy = None, -1.0
    for threshold in candidates:
        accuracy = float(((scores >= threshold) == (labels > 0)).mean())
        if accuracy > best_accuracy:
            best_threshold, best_accuracy = float(threshold), accuracy
    return best_threshold


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_best_threshold_is_bitwise_equal_to_the_loop(data):
    # Few distinct values make tied scores and tied accuracies; huge and
    # infinite scores make infinite and NaN candidates.
    n = data.draw(st.integers(1, 40))
    values = data.draw(st.sampled_from([
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
        st.floats(-5, 5, allow_nan=False),
        st.floats(allow_nan=False, allow_infinity=True)]))
    scores = np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    labels = np.asarray(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert sweep_bits(_best_threshold(scores, labels)) == \
            sweep_bits(best_threshold_loop(scores, labels))


def test_best_threshold_first_maximum_wins():
    # The bottom sentinel and the midpoint 1.5 both classify 2 of 3 right;
    # the lower one is returned.
    scores = np.array([0.0, 1.0, 2.0])
    labels = np.array([1, -1, 1])
    assert _best_threshold(scores, labels) == best_threshold_loop(scores, labels) == -1.0


def test_classification_groups_match_per_relation_scans():
    rng = np.random.default_rng(4)
    store = init_embeddings(12, 4, 3, DistMult(), seed=1)
    valid = np.column_stack([rng.integers(12, size=40), rng.integers(3, size=40),
                             rng.integers(12, size=40)])
    test = np.column_stack([rng.integers(12, size=30), rng.integers(4, size=30),
                            rng.integers(12, size=30)])
    valid_labels, test_labels = rng.choice([-1, 1], size=40), rng.choice([-1, 1], size=30)
    result = triple_classification(store.kind, store, valid, valid_labels, test, test_labels)
    # oracle: one scan per relation, as the thresholds were first grouped
    valid_scores = score_batch(store.kind, store, valid)
    thresholds = {r: best_threshold_loop(valid_scores[valid[:, 1] == r],
                                         valid_labels[valid[:, 1] == r])
                  for r in np.unique(valid[:, 1]).tolist()}
    assert list(result.thresholds.items()) == list(thresholds.items())
    global_threshold = best_threshold_loop(valid_scores, valid_labels)
    per_query = np.array([thresholds.get(r, global_threshold) for r in test[:, 1]])
    correct = (score_batch(store.kind, store, test) >= per_query) == (test_labels > 0)
    assert result.accuracy == float(correct.mean())
    assert 3 in test[:, 1] and 3 not in result.thresholds


def hand_best_accuracy(scores, labels):
    """Oracle: exhaustive threshold enumeration over a fine grid."""
    candidates = np.concatenate([scores - 1e-9, scores + 1e-9,
                                 [scores.min() - 1.0, scores.max() + 1.0]])
    return max(float(((scores >= c) == (labels > 0)).mean()) for c in candidates)


def test_six_triple_hand_case_matches_enumeration():
    # one relation, valid == test, scores -|h - t| with entities on a line
    store = classification_store([0.0, 1.0, 2.0, 6.0, 7.0, 8.0])
    triples = np.array([[0, 0, 1], [1, 0, 2], [4, 0, 5], [0, 0, 3], [1, 0, 5], [2, 0, 4]])
    labels = np.array([1, 1, 1, -1, -1, -1])
    scores = score_batch(store.kind, store, triples)
    result = triple_classification(store.kind, store, triples, labels, triples, labels)
    assert result.accuracy == pytest.approx(hand_best_accuracy(scores, labels))
    assert result.accuracy == 1.0


def test_unseen_relation_falls_back_to_global_threshold():
    store = classification_store([0.0, 1.0, 5.0])
    valid = np.array([[0, 0, 1], [0, 0, 2]])
    valid_labels = np.array([1, -1])
    test = np.array([[0, 1, 1], [0, 1, 2]])  # relation 1 absent from validation
    test_labels = np.array([1, -1])
    result = triple_classification(store.kind, store, valid, valid_labels, test, test_labels)
    assert 1 not in result.thresholds
    assert result.accuracy == 1.0


def test_classification_requires_nonempty_sets():
    store = classification_store([0.0, 1.0])
    with pytest.raises(DataError):
        triple_classification(store.kind, store, np.zeros((0, 3), dtype=int),
                              np.zeros(0), np.array([[0, 0, 1]]), np.array([1]))
