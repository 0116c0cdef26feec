import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rede.corpus import Document, RankedList, _top_k
from rede.dense import build_dense_index, dense_search
from rede.errors import PreconditionViolation
from rede.fusion import FusionConfig, _leg_rows, _min_max, fuse, hybrid_search
from rede.sparse import build_sparse_index, sparse_search


def normalize_scores(entries: RankedList) -> RankedList:
    """The list with its scores min-max normalized by ``_min_max``, fusion's one rule."""
    scores = _min_max(np.array([s for _, s in entries.entries], dtype=np.float64))
    return RankedList(entries.query_id, list(zip(entries.doc_ids(), scores.tolist())))


class TestNormalize:
    def test_min_max(self):
        out = normalize_scores(RankedList("q", [("d1", 10.0), ("d2", 0.0)]))
        assert out.entries == [("d1", 1.0), ("d2", 0.0)]

    def test_all_equal_map_to_one(self):
        out = normalize_scores(RankedList("q", [("d1", 5.0), ("d2", 5.0)]))
        assert out.entries == [("d1", 1.0), ("d2", 1.0)]

    def test_empty(self):
        assert normalize_scores(RankedList("q", [])).entries == []


class TestFuse:
    def test_symmetric_tie_break(self):
        sparse = RankedList("q", [("d1", 1.0), ("d2", 0.0)])
        dense = RankedList("q", [("d2", 1.0), ("d1", 0.0)])
        out = fuse(sparse, dense, alpha=0.5, k=2)
        assert out.entries == [("d1", 0.5), ("d2", 0.5)]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, k):
        # a negative k must not quietly drop entries, nor k = 0 return an empty list
        sparse = RankedList("q", [("d1", 1.0), ("d2", 0.0)])
        dense = RankedList("q", [("d2", 1.0), ("d1", 0.0)])
        with pytest.raises(ValueError, match="k must be >= 1"):
            fuse(sparse, dense, 0.5, k)

    def test_missing_leg_scores_zero(self):
        sparse = RankedList("q", [("d1", 2.0), ("d2", 1.0)])
        dense = RankedList("q", [("d3", 1.0), ("d4", 0.0)])
        out = dict(fuse(sparse, dense, alpha=0.5, k=4).entries)
        assert out["d1"] == 0.5   # alpha * 1.0 + (1-alpha) * 0
        assert out["d3"] == 0.5
        assert out["d4"] == 0.0

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            docs = [f"d{i}" for i in range(n)]
            sparse = RankedList("q", sorted(
                ((d, float(rng.uniform(-5, 20))) for d in rng.permutation(docs)[: rng.integers(1, n + 1)]),
                key=lambda p: -p[1]))
            dense = RankedList("q", sorted(
                ((d, float(rng.uniform(-3, 3))) for d in rng.permutation(docs)[: rng.integers(1, n + 1)]),
                key=lambda p: -p[1]))
            alpha = float(rng.uniform(0, 1))
            for _, score in fuse(sparse, dense, alpha, n).entries:
                assert -1e-12 <= score <= 1 + 1e-12

    def test_monotone_in_one_leg(self):
        # pin normalization to identity with 0/1 sentinel docs, then raise d_mid
        dense = RankedList("q", [("hi", 1.0), ("mid", 0.4), ("lo", 0.0)])
        for bumped in (0.5, 0.7, 0.9):
            sparse_before = RankedList("q", [("one", 1.0), ("mid", 0.3), ("zero", 0.0)])
            sparse_after = RankedList("q", [("one", 1.0), ("mid", bumped), ("zero", 0.0)])
            rank_before = fuse(sparse_before, dense, 0.5, 10).doc_ids().index("mid")
            rank_after = fuse(sparse_after, dense, 0.5, 10).doc_ids().index("mid")
            assert rank_after <= rank_before


def tied_leg(rng, ids):
    """A ranked list over a random subset of ids with scores from {0, 1, 2}."""
    chosen = rng.permutation(ids)[: rng.integers(1, len(ids) + 1)]
    return RankedList("q", sorted(((str(d), float(rng.integers(0, 3))) for d in chosen), key=lambda p: -p[1]))


class TestFuseOrder:
    def test_matches_sorted_reference_at_every_k(self):
        # few distinct scores tie heavily; "d1000" < "d10000" < "d1001" as strings
        rng = np.random.default_rng(31)
        for _ in range(100):
            ids = [f"d{n}" for n in rng.choice(20000, size=int(rng.integers(1, 20)), replace=False)]
            ids = list(dict.fromkeys(ids + ["d10000", "d1001", "d1000"]))
            sparse, dense = tied_leg(rng, ids), tied_leg(rng, ids)
            alpha = [0.0, 0.5, 1.0, float(rng.uniform(0, 1))][int(rng.integers(0, 4))]
            sparse_norm = dict(normalize_scores(sparse).entries)
            dense_norm = dict(normalize_scores(dense).entries)
            fused = {d: alpha * sparse_norm.get(d, 0.0) + (1 - alpha) * dense_norm.get(d, 0.0)
                     for d in sparse_norm.keys() | dense_norm.keys()}
            expected = sorted(fused.items(), key=lambda p: (-p[1], p[0]))
            for k in range(1, len(fused) + 2):
                out = fuse(sparse, dense, alpha, k)
                assert out.query_id == "q"
                assert out.entries == expected[:k]


def parent_normalize(entries):
    """Min-max normalization as it was before fusion worked on rows, one document at a time:
    the reference. Where finite scores spread wider than the largest float64, both terms are
    halved, as the README's Fusion contract says; the parent divided inf by inf there."""
    if not entries.entries:
        return RankedList(entries.query_id, [])
    scores = [s for _, s in entries.entries]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return RankedList(entries.query_id, [(d, 1.0) for d, _ in entries.entries])
    if math.isinf(hi - lo) and math.isfinite(lo) and math.isfinite(hi):
        return RankedList(entries.query_id, [(d, (s / 2 - lo / 2) / (hi / 2 - lo / 2))
                                             for d, s in entries.entries])
    return RankedList(entries.query_id, [(d, (s - lo) / (hi - lo)) for d, s in entries.entries])


def parent_fuse(sparse_results, dense_results, alpha, k):
    """``fuse`` as it was before it worked on rows: dicts over doc ids, one float per doc."""
    sparse_norm = dict(parent_normalize(sparse_results).entries)
    dense_norm = dict(parent_normalize(dense_results).entries)
    doc_ids = sorted(sparse_norm.keys() | dense_norm.keys())
    fused = np.array([alpha * sparse_norm.get(doc_id, 0.0) + (1 - alpha) * dense_norm.get(doc_id, 0.0)
                      for doc_id in doc_ids], dtype=np.float64)
    result = _top_k(doc_ids, fused, np.arange(len(doc_ids)), k)
    result.query_id = sparse_results.query_id or dense_results.query_id
    return result


def bits(ranked):
    """Query id and entries with each score as its IEEE bytes, so NaN and -0.0 compare exactly."""
    return ranked.query_id, [(doc_id, struct.pack("<d", score)) for doc_id, score in ranked.entries]


# few distinct values tie heavily; the float32 draws stand in for dense scores
TIED_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
SCORES = TIED_SCORES | st.floats(width=32, allow_nan=False, allow_infinity=False)
ALPHAS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])  # -0.0: alpha * 0.0 is -0.0


class TestFuseOverRows:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 20000), min_size=1, max_size=25), st.data())
    def test_hits_and_plain_lists_match_the_parent(self, numbers, data):
        # ids like "d1000" < "d10000" < "d1001" sort as strings, not as numbers
        ids = sorted(f"d{n}" for n in numbers)
        n = len(ids)
        sparse_scores = np.array(data.draw(st.lists(SCORES, min_size=n, max_size=n)))
        dense_scores = np.array(data.draw(st.lists(SCORES, min_size=n, max_size=n)), dtype=np.float32)
        # sparse keeps a subset of rows, possibly none: an empty sparse leg
        sparse_rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sparse_k, dense_k = data.draw(st.integers(1, n + 1)), data.draw(st.integers(1, n + 1))

        def legs():
            sparse = _top_k(ids, sparse_scores, sparse_rows, sparse_k)
            dense = _top_k(ids, dense_scores, np.arange(n), dense_k)
            sparse.query_id = dense.query_id = "q"
            return sparse, dense

        plain_sparse, plain_dense = (RankedList("q", list(leg.entries)) for leg in legs())
        alpha = data.draw(ALPHAS)
        union = len(set(plain_sparse.doc_ids()) | set(plain_dense.doc_ids()))
        for k in range(1, union + 2):
            expected = bits(parent_fuse(plain_sparse, plain_dense, alpha, k))
            sparse, dense = legs()
            assert sparse.hits is not None and dense.hits is not None
            assert bits(fuse(sparse, dense, alpha, k)) == expected
            assert bits(fuse(plain_sparse, plain_dense, alpha, k)) == expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([f"d{i}" for i in (1, 2, 10, 100, 1000, 10000, 1001)]),
                              TIED_SCORES | st.floats() | st.just(float("nan"))),
                    max_size=7, unique_by=lambda p: p[0]).map(lambda e: RankedList("q", e)),
           st.lists(st.tuples(st.sampled_from(["d1", "d3", "d10", "d1000", "d20"]),
                              TIED_SCORES | st.floats() | st.just(float("nan"))),
                    max_size=5, unique_by=lambda p: p[0]).map(lambda e: RankedList("", e)),
           ALPHAS)
    def test_hand_built_lists_match_the_parent(self, sparse, dense, alpha):
        # in any order, NaN and inf anywhere: a list with one raises, any other matches the parent
        finite = all(math.isfinite(s) for _, s in sparse.entries + dense.entries)
        union = len(set(sparse.doc_ids()) | set(dense.doc_ids()))
        for k in range(1, union + 2):
            if finite:
                assert bits(fuse(sparse, dense, alpha, k)) == bits(parent_fuse(sparse, dense, alpha, k))
            else:
                with pytest.raises(PreconditionViolation, match="finite"):
                    fuse(sparse, dense, alpha, k)

    def test_normalize_matches_the_parent(self):
        for scores in ([-0.0, 0.0], [0.0, -0.0], [1e308, -1e308], [2.0, 2.0], []):
            entries = RankedList("q", [(f"d{i}", s) for i, s in enumerate(scores)])
            assert bits(normalize_scores(entries)) == bits(parent_normalize(entries))
            # the dense leg's float32 scores, which the parent read as Python floats
            with np.errstate(over="ignore"):
                single = np.array(scores, dtype=np.float32)
            if not np.isfinite(single).all():
                continue  # ±1e308 is ±inf in float32, which fusion rejects
            entries = RankedList("q", [(f"d{i}", s) for i, s in enumerate(single.tolist())])
            expected = np.array([s for _, s in parent_normalize(entries).entries])
            assert _min_max(single).tobytes() == expected.tobytes()
        # finite scores spread wider than the largest float64: the parent divided inf by inf
        # and gave NaN; both terms are now halved
        entries = RankedList("q", [("d0", 1e308), ("d1", 5.0), ("d2", -1e308)])
        assert normalize_scores(entries).entries == [("d0", 1.0), ("d1", 0.5), ("d2", 0.0)]
        fused = fuse(RankedList("q", [("a", 1e308), ("b", -1e308)]), RankedList("q", [("a", 1.0)]), 0.5, 2)
        assert fused.entries == [("a", 1.0), ("b", 0.0)]

    def test_lists_over_different_id_lists_are_renumbered(self):
        sparse = _top_k(["a", "b", "c"], np.array([1.0, 3.0, 2.0]), np.arange(3), 3)
        dense = _top_k(["b", "c", "d"], np.array([0.5, 0.25, 1.0]), np.arange(3), 3)
        sparse.query_id = "q"
        for k in range(1, 6):
            assert bits(fuse(sparse, dense, 0.25, k)) == bits(parent_fuse(sparse, dense, 0.25, k))

    def test_legs_over_equal_id_lists_keep_their_rows(self):
        # separately built indexes hold equal id lists that are two objects; their legs'
        # rows are used as they are, and the output is the renumbering path's
        rng = np.random.default_rng(37)
        for _ in range(25):
            sparse, dense, query, qvec = build_random_instance(rng)
            assert dense.ids == sparse.doc_ids and dense.ids is not sparse.doc_ids
            sparse_leg, dense_leg = sparse_search(sparse, query, 12), dense_search(dense, qvec, 12)
            assert _leg_rows(sparse_leg, dense_leg)[0] is sparse.id_array
            plain = RankedList("", list(sparse_leg.entries)), RankedList("", list(dense_leg.entries))
            for k in (1, 5, 12):
                fused = hybrid_search(sparse, dense, query, qvec, k, FusionConfig(pool_depth=12))
                assert fused.hits[0] is sparse.id_array
                assert bits(fused) == bits(fuse(*plain, 0.5, k)) == bits(parent_fuse(*plain, 0.5, k))

    def test_row_order_normalizes_as_entry_order(self):
        # a leg's rows are ascending, not in entry order; the first minimum and the first maximum
        # are the same rows either way, also where 0.0 and -0.0 tie at a leg's minimum or maximum
        ids = np.array([f"d{i}" for i in range(10)], dtype=object)

        def legs():
            # sparse, k=6: rows 4, 0, 6 beat the k-th score 0.0, which six rows tie; the first
            # three fill the rest, and the minimum is 0.0, then -0.0 twice
            sparse_scores = np.array([2.0, 0.0, -0.0, -0.0, 3.0, -0.0, 1.0, 0.0, -1.0, -0.0])
            # dense, k=5: -0.0 and 0.0 tie at the maximum, four rows tie at the k-th score -1.0
            dense_scores = np.array([-0.0, -2.0, 0.0, -1.0, -1.0, -1.0, 0.0, -3.0, -1.0, -5.0],
                                    dtype=np.float32)
            return _top_k(ids, sparse_scores, np.arange(10), 6), _top_k(ids, dense_scores, None, 5)

        sparse, dense = legs()
        assert sparse.hits[1].tolist() == [0, 1, 2, 3, 4, 6] and dense.hits[1].tolist() == [0, 2, 3, 4, 6]
        for swap in (False, True):
            for alpha in (0.0, -0.0, 0.25, 0.5, 1.0):  # -0.0: a fused score keeps a leg's -0.0
                for k in range(1, 10):
                    rows_path = legs()[::-1] if swap else legs()
                    assert all(leg.hits is not None for leg in rows_path)
                    fused = bits(fuse(*rows_path, alpha, k))
                    plain = [RankedList("", list(leg.entries)) for leg in rows_path]
                    assert fused == bits(fuse(*plain, alpha, k)) == bits(parent_fuse(*plain, alpha, k))

    @pytest.mark.parametrize("other", [["d0", "d1", "d2", "e3"], ["d0", "d1", "d2"]],
                             ids=["one id differs", "one id fewer"])
    def test_legs_over_different_id_arrays_are_renumbered(self, other):
        # an == of two id arrays is an array, whose truth would raise ValueError
        ids = np.array(["d0", "d1", "d2", "d3"], dtype=object)

        def legs():
            return (_top_k(ids, np.array([1.0, 3.0, 2.0, 0.5]), np.arange(4), 3),
                    _top_k(np.array(other, dtype=object), np.arange(len(other), dtype=np.float32), None, 3))

        plain = [RankedList("", list(leg.entries)) for leg in legs()]
        assert _leg_rows(*legs())[0] == sorted({"d0", "d1", "d2"} | set(other[-3:]))
        for k in range(1, 6):
            assert bits(fuse(*legs(), 0.5, k)) == bits(parent_fuse(*plain, 0.5, k))

    def test_fused_list_keeps_its_rows(self):
        ids = np.array(["a", "b", "c", "d"], dtype=object)  # an index's id array
        sparse = _top_k(ids, np.array([0.0, 3.0, 1.0, 2.0]), np.array([1, 2, 3]), 2)
        dense = _top_k(ids, np.array([1.0, 0.0, 0.5, 0.25], dtype=np.float32), np.arange(4), 2)
        out = fuse(sparse, dense, 0.5, 3)
        doc_ids, rows, scores = out.hits
        assert doc_ids is ids
        assert [ids[r] for r in rows] == out.doc_ids()
        assert scores.tolist() == [s for _, s in out.entries]

    def test_editing_a_read_of_entries_leaves_the_list_as_it_was(self):
        ids = np.array(["a", "b", "c"], dtype=object)
        sparse = _top_k(ids, np.array([1.0, 3.0, 2.0]), np.arange(3), 2)
        dense = _top_k(ids, np.array([3.0, 1.0, 2.0]), np.arange(3), 1)
        hits, fused = sparse.hits, fuse(sparse, dense, 0.5, 3)
        entries = sparse.entries
        entries.clear()
        entries.append(("c", 9.0))
        assert sparse.ranking() == (["b", "c"], [3.0, 2.0]) and sparse.doc_ids() == ["b", "c"]
        assert sparse == RankedList("", [("b", 3.0), ("c", 2.0)]) and sparse.entries == [("b", 3.0), ("c", 2.0)]
        assert sparse.hits is hits and _leg_rows(sparse, dense)[0] is ids  # still on the row path
        assert fuse(sparse, dense, 0.5, 3) == fused
        assert fused.entries == [("a", 0.5), ("b", 0.5), ("c", 0.0)]


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bad_leg", ["sparse", "dense"])
    def test_fuse_raises_for_a_non_finite_score_in_either_leg(self, bad, bad_leg):
        ids = ["a", "b", "c"]

        def legs():
            sparse_scores, dense_scores = np.array([2.0, 1.0, 3.0]), np.array([0.5, 1.0, 0.25], dtype=np.float32)
            (sparse_scores if bad_leg == "sparse" else dense_scores)[1] = bad
            return _top_k(ids, sparse_scores, np.arange(3), 3), _top_k(ids, dense_scores, np.arange(3), 3)

        hits = legs()
        assert all(leg.hits is not None for leg in hits)
        plain = [RankedList("q", list(leg.entries)) for leg in legs()]
        for sparse, dense in (hits, plain):
            with pytest.raises(PreconditionViolation, match="fusion needs finite scores"):
                fuse(sparse, dense, 0.5, 3)


# Any finite score, also scores spread wider than the largest float64
FINITE = TIED_SCORES | st.floats(allow_nan=False, allow_infinity=False)


class TestFusedBounds:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 20000), min_size=1, max_size=25), st.floats(0, 1), st.data())
    def test_fused_scores_lie_in_the_unit_interval(self, numbers, alpha, data):
        ids = sorted(f"d{n}" for n in numbers)
        n = len(ids)
        sparse_scores = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        dense_scores = np.array(data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                                   min_size=n, max_size=n)), dtype=np.float32)
        sparse_rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sparse = _top_k(ids, sparse_scores, sparse_rows, data.draw(st.integers(1, n + 1)))
        dense = _top_k(ids, dense_scores, np.arange(n), data.draw(st.integers(1, n + 1)))
        for legs in ((sparse, dense), (RankedList("q", sparse.entries), RankedList("q", dense.entries))):
            fused = fuse(*legs, alpha, 2 * n)
            assert all(0.0 <= score <= 1.0 for _, score in fused.entries)


def build_random_instance(rng, n_docs=12):
    vocab = [f"w{i}" for i in range(10)]
    corpus = {}
    for i in range(n_docs):
        corpus[f"d{i:02d}"] = Document(f"d{i:02d}", "", " ".join(rng.choice(vocab, size=12)))
    vectors = rng.normal(size=(n_docs, 6)).astype(np.float32)
    sparse = build_sparse_index(corpus)
    dense = build_dense_index(sorted(corpus), vectors)
    query = " ".join(rng.choice(vocab, size=3))
    qvec = rng.normal(size=6).astype(np.float32)
    return sparse, dense, query, qvec


class TestBoundaries:
    def test_alpha_one_matches_sparse_order(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            sparse, dense, query, qvec = build_random_instance(rng)
            depth = 12
            fused = hybrid_search(sparse, dense, query, qvec, depth,
                                  FusionConfig(alpha=1.0, pool_depth=depth))
            leg = sparse_search(sparse, query, depth)
            leg_ids = leg.doc_ids()
            restricted = [d for d in fused.doc_ids() if d in set(leg_ids)]
            assert restricted == leg_ids

    def test_alpha_zero_matches_dense_order(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            sparse, dense, query, qvec = build_random_instance(rng)
            depth = 12
            fused = hybrid_search(sparse, dense, query, qvec, depth,
                                  FusionConfig(alpha=0.0, pool_depth=depth))
            leg_ids = dense_search(dense, qvec, depth).doc_ids()
            restricted = [d for d in fused.doc_ids() if d in set(leg_ids)]
            assert restricted == leg_ids


class TestConfig:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            FusionConfig(alpha=1.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5, 1.5, True, "0.5", None])
    def test_fuse_refuses_the_alphas_the_config_refuses(self, alpha):
        # a NaN alpha fused to [('a', nan), ('b', nan)], a list its own validate() refuses
        with pytest.raises(ValueError, match="alpha must be a finite number in \\[0, 1\\]"):
            FusionConfig(alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be a finite number in \\[0, 1\\]"):
            fuse(RankedList("q", [("a", 1.0)]), RankedList("q", [("b", 1.0)]), alpha, 3)

    def test_pool_depth_default(self):
        rng = np.random.default_rng(31)
        sparse, dense, query, qvec = build_random_instance(rng)
        out = hybrid_search(sparse, dense, query, qvec, 3)  # depth max(3, 100) covers all
        assert len(out.entries) == 3
