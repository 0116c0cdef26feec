import numpy as np
import pytest

from rede.corpus import Document, RankedList
from rede.dense import build_dense_index, dense_search
from rede.fusion import FusionConfig, fuse, hybrid_search, normalize_scores
from rede.sparse import build_sparse_index, sparse_search


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

    def test_pool_depth_default(self):
        rng = np.random.default_rng(31)
        sparse, dense, query, qvec = build_random_instance(rng)
        out = hybrid_search(sparse, dense, query, qvec, 3)  # depth max(3, 100) covers all
        assert len(out.entries) == 3
