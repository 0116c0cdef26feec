import json
import sys
import threading
import time

import numpy as np
import pytest

from rede.dense import (
    HashingEncoder,
    HttpEncoder,
    build_dense_index,
    dense_search,
    fetch_embedding,
    load_bundle,
    write_embeddings,
)
from rede.errors import (
    BackendRejected,
    BackendTimeout,
    BackendUnavailable,
    DimMismatch,
    DuplicateDocId,
    MalformedRecord,
    NonFiniteVector,
    SizeMismatch,
    UnknownDocId,
)
from rede.synthetic import generate_benchmark


@pytest.fixture
def bundle(tmp_path):
    vectors = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], dtype=np.float32)
    manifest = write_embeddings(str(tmp_path), ["d1", "d2", "d3"], vectors)
    return manifest, vectors


class TestIngest:
    def test_round_trip_bitwise(self, bundle):
        manifest, vectors = bundle
        index = load_bundle(manifest)
        assert index.count == 3 and index.dim == 2
        assert index.vectors.tobytes() == vectors.tobytes()
        for i, doc_id in enumerate(["d1", "d2", "d3"]):
            assert fetch_embedding(index, doc_id).tobytes() == vectors[i].tobytes()

    def test_indexes_compare_and_hash_by_identity(self):
        # a value comparison would reach the vectors and raise "truth value ... is ambiguous"
        bench = generate_benchmark(seed=0, n_docs=50, n_queries=1)
        a = build_dense_index(bench.doc_ids, bench.doc_vectors)
        b = build_dense_index(bench.doc_ids, bench.doc_vectors)
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2

    def test_size_mismatch(self, tmp_path, bundle):
        manifest, _ = bundle
        vec_path = tmp_path / "embeddings.f32"
        vec_path.write_bytes(vec_path.read_bytes()[:-1])
        with pytest.raises(SizeMismatch):
            load_bundle(manifest, str(vec_path))

    def test_unsorted_bundle_held_in_doc_id_order(self, tmp_path):
        vectors = np.array([[3.0, 0.5], [1.0, 0.25], [2.0, 0.125]], dtype=np.float32)
        index = load_bundle(write_embeddings(str(tmp_path), ["d3", "d1", "d2"], vectors))
        assert index.ids == ["d1", "d2", "d3"]
        assert index.vectors.tobytes() == vectors[[1, 2, 0]].tobytes()
        for i, doc_id in enumerate(["d3", "d1", "d2"]):
            assert fetch_embedding(index, doc_id).tobytes() == vectors[i].tobytes()

    @pytest.mark.parametrize("edit", [
        lambda meta: "{not json",
        lambda meta: json.dumps([meta]),
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "dim"}),
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "count"}),
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "id_file"}),
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "vectors_file"}),
        lambda meta: json.dumps({**meta, "dim": "two"}),
        lambda meta: json.dumps({**meta, "dim": -2, "count": -3}),  # sizes multiply to the file's
        lambda meta: json.dumps({**meta, "count": 4}),
    ])
    def test_malformed_manifest_raises_typed_error(self, bundle, edit):
        manifest, _ = bundle
        with open(manifest) as f:
            meta = json.load(f)
        with open(manifest, "w") as f:
            f.write(edit(meta))
        with pytest.raises((MalformedRecord, SizeMismatch)):
            load_bundle(manifest)

    def test_bad_manifest_names_no_line(self, bundle):
        manifest, _ = bundle
        with open(manifest, "w") as f:
            f.write("[]")
        with pytest.raises(MalformedRecord, match="^bad manifest") as exc:
            load_bundle(manifest)
        assert exc.value.line_no is None

    def test_non_finite(self, tmp_path):
        vectors = np.array([[np.nan, 1.0]], dtype=np.float32)
        manifest = write_embeddings(str(tmp_path), ["d1"], vectors)
        with pytest.raises(NonFiniteVector):
            load_bundle(manifest)

    def test_duplicate_ids(self, tmp_path):
        vectors = np.zeros((2, 2), dtype=np.float32)
        manifest = write_embeddings(str(tmp_path), ["d1", "d1"], vectors)
        with pytest.raises(DuplicateDocId):
            load_bundle(manifest)

    def test_id_count_mismatch(self, tmp_path, bundle):
        manifest, _ = bundle
        with open(manifest) as f:
            meta = json.load(f)
        ids_path = tmp_path / meta["id_file"]
        ids_path.write_text("d1\nd2\n")
        with pytest.raises(SizeMismatch):
            load_bundle(manifest)


class TestFetch:
    def test_exact_row(self, bundle):
        index = load_bundle(bundle[0])
        np.testing.assert_array_equal(fetch_embedding(index, "d1"), [0.0, 1.0])

    def test_unknown(self, bundle):
        index = load_bundle(bundle[0])
        with pytest.raises(UnknownDocId):
            fetch_embedding(index, "dX")

    def test_fetch_twice_identical(self, bundle):
        index = load_bundle(bundle[0])
        a, b = fetch_embedding(index, "d2"), fetch_embedding(index, "d2")
        assert a.tobytes() == b.tobytes()


class TestSearch:
    def test_orthogonal(self):
        index = build_dense_index(["d1", "d2"], np.array([[1, 0], [0, 1]], dtype=np.float32))
        result = dense_search(index, np.array([1.0, 0.0], dtype=np.float32), 1)
        assert result.entries == [("d1", 1.0)]

    def test_zero_query_orders_by_doc_id(self):
        index = build_dense_index(
            ["d3", "d1", "d2"], np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        )
        result = dense_search(index, np.zeros(2, dtype=np.float32), 3)
        assert result.doc_ids() == ["d1", "d2", "d3"]
        assert all(score == 0.0 for _, score in result.entries)

    def test_tie_break(self):
        index = build_dense_index(["d2", "d1"], np.array([[1, 0], [0, 1]], dtype=np.float32))
        result = dense_search(index, np.array([1.0, 1.0], dtype=np.float32), 2)
        assert result.entries == [("d1", 1.0), ("d2", 1.0)]

    def test_dim_mismatch(self):
        index = build_dense_index(["d1"], np.ones((1, 2), dtype=np.float32))
        with pytest.raises(DimMismatch):
            dense_search(index, np.ones(3, dtype=np.float32), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises(self, bad):
        index = build_dense_index(["d1", "d2"], np.eye(2, dtype=np.float32))
        with pytest.raises(NonFiniteVector):
            dense_search(index, np.array([bad, 0.0], dtype=np.float32), 2)

    def test_prefix_property(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(30, 4)).astype(np.float32)
        index = build_dense_index([f"d{i}" for i in range(30)], vectors)
        for _ in range(10):
            q = rng.normal(size=4).astype(np.float32)
            full = dense_search(index, q, 30).entries
            for k in (1, 3, 7, 15):
                assert dense_search(index, q, k).entries == full[:k]

    def test_top_k_matches_brute_force_sort(self):
        # small integer vectors give exact, heavily tied scores; "d1000" < "d10000" < "d1001"
        rng = np.random.default_rng(23)
        for _ in range(80):
            ids = [f"d{n}" for n in rng.choice(20000, size=int(rng.integers(1, 30)), replace=False)]
            ids = list(dict.fromkeys(ids + ["d10000", "d1001", "d1000"]))
            rng.shuffle(ids)
            vectors = rng.integers(-2, 3, size=(len(ids), 3)).astype(np.float32)
            index = build_dense_index(ids, vectors)
            q = rng.integers(-2, 3, size=3).astype(np.float32)
            scored = [(d, float(np.dot(v, q))) for d, v in zip(ids, vectors)]
            expected = sorted(scored, key=lambda p: (-p[1], p[0]))
            for k in range(1, len(ids) + 2):
                assert dense_search(index, q, k).entries == expected[:k]

    def test_self_score_is_squared_norm(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(10, 3)).astype(np.float32)
        index = build_dense_index([f"d{i}" for i in range(10)], vectors)
        for i in range(10):
            result = dense_search(index, vectors[i], 10)
            scores = dict(result.entries)
            assert scores[f"d{i}"] == pytest.approx(float(vectors[i] @ vectors[i]), rel=1e-6)

    @pytest.mark.parametrize("rows, query", [
        ([[1e30, -1e30], [1.0, 0.0]], [1e30, 1e30]),  # inf - inf: NaN
        ([[3e38, 3e38], [1.0, 0.0]], [1.0, 1.0]),  # sum past float32 max: inf
    ])
    def test_overflowing_score_raises(self, rows, query):
        index = build_dense_index(["d1", "d2"], np.array(rows, dtype=np.float32))
        with pytest.raises(NonFiniteVector):
            dense_search(index, np.array(query, dtype=np.float32), 2)

    def test_float64_query_scores_as_its_float32_values(self):
        # the product runs in the index's float32, not in the query's float64
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(200, 16)).astype(np.float32)
        index = build_dense_index([f"d{i}" for i in range(200)], vectors)
        for _ in range(10):
            q = rng.normal(size=16).astype(np.float32)
            want, got = dense_search(index, q, 50), dense_search(index, q.astype(np.float64), 50)
            assert got.hits[2].dtype == want.hits[2].dtype == np.float32
            assert got.hits[1].tobytes() == want.hits[1].tobytes()
            assert got.hits[2].tobytes() == want.hits[2].tobytes()
            assert got.entries == want.entries

    def test_finite_float64_query_past_float32_range_raises(self):
        index = build_dense_index(["d1", "d2"], np.eye(2, dtype=np.float32))
        with pytest.raises(NonFiniteVector):
            dense_search(index, np.array([1e39, 0.0]), 2)

    def test_zero_row_index_has_no_hits(self):
        index = build_dense_index([], np.zeros((0, 3), dtype=np.float32))
        result = dense_search(index, np.ones(3, dtype=np.float32), 5)
        assert result.entries == [] and len(result.hits[1]) == 0


def run_threads(target, n):
    """Run target(i) on n threads started together; re-raise the first error."""
    start, errors = threading.Barrier(n), []

    def body(i):
        try:
            start.wait(timeout=10)
            target(i)
        except Exception as exc:  # re-raised in the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]


class TestConcurrentSearch:
    def test_one_caller_inside_the_product_at_a_time(self):
        inside, most = [0], [0]
        count = threading.Lock()

        class CountingVectors(np.ndarray):
            def __matmul__(self, other):
                with count:
                    inside[0] += 1
                    most[0] = max(most[0], inside[0])
                try:
                    time.sleep(0.002)  # a caller not held back by the lock would arrive meanwhile
                    return np.asarray(self) @ other
                finally:
                    with count:
                        inside[0] -= 1

        rng = np.random.default_rng(3)
        index = build_dense_index([f"d{i}" for i in range(50)],
                                  rng.normal(size=(50, 8)).astype(np.float32))
        expected = dense_search(index, np.ones(8, dtype=np.float32), 10).entries
        index.vectors = index.vectors.view(CountingVectors)
        results = [[] for _ in range(4)]

        def search(i):
            for _ in range(10):
                results[i].append(dense_search(index, np.ones(8, dtype=np.float32), 10).entries)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(search, 4)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert results == [[expected] * 10] * 4

    def test_concurrent_results_equal_sequential_bit_for_bit(self):
        # 20k x 64 is well above the size at which OpenBLAS threads a product over the CPUs
        rng = np.random.default_rng(11)
        index = build_dense_index([f"d{i}" for i in range(20000)],
                                  rng.normal(size=(20000, 64)).astype(np.float32))
        queries = rng.normal(size=(24, 64)).astype(np.float32)
        expected = [dense_search(index, q, 100) for q in queries]
        results: list = [None] * len(queries)

        def search(i):
            for j in range(i, len(queries), 4):
                results[j] = dense_search(index, queries[j], 100)

        run_threads(search, 4)
        for got, want in zip(results, expected):
            assert got.hits[0] is want.hits[0]
            assert got.hits[1].tobytes() == want.hits[1].tobytes()
            assert got.hits[2].tobytes() == want.hits[2].tobytes()
            assert got.entries == want.entries


class TestHashingEncoder:
    def test_single_token_bucket(self):
        # FNV-1a("a") mod 8 == 4; two occurrences L2-normalize to 1.0
        enc = HashingEncoder(dim=8)
        vec = enc.encode(["a a"])[0]
        expected = np.zeros(8, dtype=np.float32)
        expected[4] = 1.0
        np.testing.assert_array_equal(vec, expected)

    def test_empty_text_zero_vector(self):
        enc = HashingEncoder(dim=8)
        np.testing.assert_array_equal(enc.encode(["..."])[0], np.zeros(8, dtype=np.float32))

    def test_identical_texts_identical_vectors(self):
        enc = HashingEncoder(dim=16)
        a, b = enc.encode(["some text here", "some text here"])
        assert a.tobytes() == b.tobytes()

    def test_unit_norm(self):
        enc = HashingEncoder(dim=32)
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(50)]
        for _ in range(20):
            text = " ".join(rng.choice(words, size=rng.integers(1, 30)))
            assert np.linalg.norm(enc.encode([text])[0]) == pytest.approx(1.0, abs=1e-6)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            HashingEncoder(8).encode([])


class TestHttpEncoder:
    def test_round_trip(self, http_server):
        url, state = http_server
        state["handler"] = lambda body: (200, {"vectors": [[1.0, 2.0]] * len(body["texts"])})
        enc = HttpEncoder(url)
        out = enc.encode(["x", "y"])
        assert out.shape == (2, 2)
        assert enc.dim == 2

    def test_unavailable(self):
        enc = HttpEncoder("http://127.0.0.1:1/nothing", timeout=0.2)
        with pytest.raises(BackendUnavailable):
            enc.encode(["x"])

    def test_dim_drift_rejected(self, http_server):
        url, state = http_server
        state["handler"] = lambda body: (200, {"vectors": [[1.0, 2.0, 3.0]]})
        enc = HttpEncoder(url, dim=2)
        with pytest.raises(DimMismatch):
            enc.encode(["x"])

    def test_bad_reply_raises_typed_error(self, http_server):
        url, state = http_server
        for vectors, error in (([[float("nan"), 1.0]], NonFiniteVector),
                               ([[1.0, 2.0], [1.0]], BackendUnavailable),  # ragged
                               ({"x": 1.0}, BackendUnavailable)):
            state["handler"] = lambda body: (200, {"vectors": vectors})
            with pytest.raises(error):
                HttpEncoder(url).encode(["x", "y"][: len(vectors)])


def slow_reply(body):
    time.sleep(0.5)
    return 200, {"vectors": [[1.0, 2.0]]}


@pytest.mark.parametrize("handler, error, message", [
    (lambda body: (400, {}), BackendRejected, "rejected the request"),
    (slow_reply, BackendTimeout, "timed out"),
    (lambda body: (200, [[1.0, 2.0]]), BackendUnavailable, "replied with a JSON list"),
], ids=["400", "slow", "json-list"])
def test_http_errors_are_typed_as_the_gateways(http_server, handler, error, message):
    url, state = http_server
    state["handler"] = handler
    with pytest.raises(error, match=message):
        HttpEncoder(url, timeout=0.1).encode(["x"])
    assert len(state["requests"]) == 1  # no retries
