import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from rede.corpus import Document, Query
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
    PreconditionViolation,
    SizeMismatch,
    UnknownDocId,
    check_vectors,
)
from rede.pipeline import SearchEngine
from rede.synthetic import TableEncoder, generate_benchmark


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
            load_bundle(manifest)

    def test_unsorted_bundle_held_in_doc_id_order(self, tmp_path):
        vectors = np.array([[3.0, 0.5], [1.0, 0.25], [2.0, 0.125]], dtype=np.float32)
        index = load_bundle(_hand_written(tmp_path, ["d3", "d1", "d2"], vectors))
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
        lambda meta: json.dumps({**meta, "dim": 2.9}),  # int() would read 2
        lambda meta: json.dumps({**meta, "dim": 2.0}),
        lambda meta: json.dumps({**meta, "dim": "2", "count": "3"}),
    ])
    def test_malformed_manifest_raises_typed_error(self, bundle, edit):
        manifest, _ = bundle
        with open(manifest) as f:
            meta = json.load(f)
        with open(manifest, "w") as f:
            f.write(edit(meta))
        with pytest.raises((MalformedRecord, SizeMismatch)):
            load_bundle(manifest)

    @pytest.mark.parametrize("key", ["dim", "count"])
    def test_bool_size_is_malformed(self, tmp_path, key):
        # a JSON true was once read as 1, so this one-by-one bundle loaded
        manifest = write_embeddings(str(tmp_path), ["d1"], np.ones((1, 1), dtype=np.float32))
        with open(manifest) as f:
            meta = json.load(f)
        with open(manifest, "w") as f:
            json.dump({**meta, key: True}, f)
        with pytest.raises(MalformedRecord, match=f"{key} must be an integer, got True"):
            load_bundle(manifest)

    @pytest.mark.parametrize("ids, bad", [
        (["", "d2"], ""), (["  ", "d2"], "  "), (["\x1c", "d2"], "\x1c"), (["d1\nd2", "d3"], "d1\nd2"),
        (["d1", "d2\r"], "d2\r"), (["d1", "d2\rd3"], "d2\rd3"), (["\ufeffd2", "\ufeffd1"], "\ufeffd1"),
        (["d1", "d\ud800"], "d\ud800"),
    ], ids=["empty", "spaces", "separator", "newline", "trailing cr", "cr", "first with bom", "lone surrogate"])
    def test_id_the_id_file_cannot_give_back_is_refused_before_writing(self, tmp_path, ids, bad):
        # the id file is read one non-blank line per id, a leading BOM stripped: each of these was
        # written, then read back as another count of ids or another id; UTF-8 cannot encode a
        # lone surrogate, which left the vectors file and part of the id file written
        out = tmp_path / "bundle"
        with pytest.raises(PreconditionViolation, match=re.escape(f"doc id {bad!r} could not be read back")):
            write_embeddings(str(out), ids, np.zeros((2, 1), dtype=np.float32))
        assert not out.exists()

    @pytest.mark.parametrize("how", ["build", "bundle"])
    def test_zero_width_vectors_are_refused(self, tmp_path, how):
        # load_bundle refuses a manifest dim of 0: no index or bundle is made with one
        out = tmp_path / "bundle"
        with pytest.raises(SizeMismatch, match="^dim must be >= 1, got 0$"):
            _via(out, how, ["d1", "d2"], np.zeros((2, 0), dtype=np.float32))
        assert not out.exists()

    def test_ids_with_inner_spaces_and_rare_separators_read_back(self, tmp_path):
        ids = [" a", "b ", "c\td", "e\x0bf", "g\u2028h", "\x85i", "j\ufeff", "\ufeffk"]
        index = load_bundle(write_embeddings(str(tmp_path), ids, np.eye(len(ids), dtype=np.float32)))
        assert index.ids == sorted(ids)

    def test_bad_manifest_names_no_line(self, bundle):
        manifest, _ = bundle
        with open(manifest, "w") as f:
            f.write("[]")
        with pytest.raises(MalformedRecord, match="^bad manifest") as exc:
            load_bundle(manifest)
        assert exc.value.line_no is None

    def test_non_finite(self, tmp_path):
        vectors = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(NonFiniteVector):
            load_bundle(_hand_written(tmp_path, ["d1"], vectors))

    def test_duplicate_ids(self, tmp_path):
        vectors = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(DuplicateDocId):
            load_bundle(_hand_written(tmp_path, ["d1", "d1"], vectors))

    @pytest.mark.parametrize("ids, vectors, error", [
        (["d1", "d2"], np.array([[np.nan, 1.0], [0.0, 1.0]], dtype=np.float32), NonFiniteVector),
        (["d1", "d2"], np.array([[1e39, 1.0], [0.0, 1.0]]), NonFiniteVector),  # inf in float32
        (["d1", "d1"], np.zeros((2, 2), dtype=np.float32), DuplicateDocId),
        ([1, 2], np.zeros((2, 2), dtype=np.float32), PreconditionViolation),
    ], ids=["nan", "float64 past float32", "duplicate", "int ids"])
    def test_what_load_bundle_refuses_is_refused_before_writing(self, tmp_path, ids, vectors, error):
        # the first three were written, for load_bundle to refuse; int ids ended in an AttributeError
        out = tmp_path / "bundle"
        with pytest.raises(error):
            write_embeddings(str(out), ids, vectors)
        assert not out.exists()

    def test_bundle_holds_the_ids_ascending(self, tmp_path):
        vectors = np.array([[3.0, 0.5], [1.0, 0.25], [2.0, 0.125]], dtype=np.float32)
        write_embeddings(str(tmp_path), ["d3", "d1", "d2"], vectors)
        assert (tmp_path / "embeddings.ids.txt").read_text() == "d1\nd2\nd3\n"
        assert (tmp_path / "embeddings.f32").read_bytes() == vectors[[1, 2, 0]].astype("<f4").tobytes()

    def test_id_count_mismatch(self, tmp_path, bundle):
        manifest, _ = bundle
        with open(manifest) as f:
            meta = json.load(f)
        ids_path = tmp_path / meta["id_file"]
        ids_path.write_text("d1\nd2\n")
        with pytest.raises(SizeMismatch):
            load_bundle(manifest)


def _hand_written(out, ids: list, vectors: np.ndarray) -> str:
    """The manifest of a bundle of ids and vectors in that order, written without write_embeddings,
    which refuses what load_bundle refuses and writes its ids ascending."""
    out.mkdir(parents=True, exist_ok=True)
    vectors.astype("<f4").tofile(out / "embeddings.f32")
    (out / "embeddings.ids.txt").write_text("".join(f"{doc_id}\n" for doc_id in ids), encoding="utf-8")
    manifest = out / "embeddings.manifest.json"
    manifest.write_text(json.dumps({"dim": vectors.shape[1], "count": len(ids),
                                    "id_file": "embeddings.ids.txt", "vectors_file": "embeddings.f32"}))
    return str(manifest)


def _via(tmp_path, how: str, ids: list[str], vectors: np.ndarray):
    """The index that build_dense_index, load_bundle over a bundle write_embeddings wrote, or
    load_bundle over a hand-written bundle in the given order ("file") makes of ids and vectors."""
    if how == "build":
        return build_dense_index(ids, vectors)
    if how == "file":
        return load_bundle(_hand_written(tmp_path, ids, vectors))
    return load_bundle(write_embeddings(str(tmp_path), ids, vectors))


_IDS = [f"d{i:02d}" for i in range(30)]
_PERM = np.random.default_rng(3).permutation(len(_IDS))


class TestRowOrder:
    """A strictly ascending id list is kept in its order; any other order is sorted once."""

    @staticmethod
    def _vectors() -> np.ndarray:
        return np.random.default_rng(4).standard_normal((len(_IDS), 8)).astype(np.float32)

    @pytest.mark.parametrize("how", ["build", "bundle", "file"])
    def test_ascending_and_shuffled_ids_give_equal_indexes(self, tmp_path, how):
        vectors = self._vectors()
        ascending = _via(tmp_path / "a", how, list(_IDS), vectors)
        shuffled = _via(tmp_path / "s", how, [_IDS[i] for i in _PERM], vectors[_PERM])
        assert ascending.ids == shuffled.ids == _IDS
        assert ascending.vectors.tobytes() == shuffled.vectors.tobytes() == vectors.tobytes()
        assert ascending.id_to_row == shuffled.id_to_row == {d: i for i, d in enumerate(_IDS)}
        for i, doc_id in enumerate(_IDS):
            assert (fetch_embedding(ascending, doc_id).tobytes() == fetch_embedding(shuffled, doc_id).tobytes()
                    == vectors[i].tobytes())

    @pytest.mark.parametrize("shuffle", [False, True], ids=["ascending", "shuffled"])
    def test_index_shares_nothing_with_the_callers_list_or_array(self, shuffle):
        ids, vectors = list(_IDS), self._vectors()
        if shuffle:
            ids, vectors = [ids[i] for i in _PERM], vectors[_PERM]
        index = build_dense_index(ids, vectors)
        assert not np.shares_memory(index.vectors, vectors) and index.ids is not ids
        query = np.ones(8, dtype=np.float32)
        before = dense_search(index, query, 10)
        vectors[:] = -vectors
        ids.reverse()
        assert index.ids == _IDS
        assert dense_search(index, query, 10) == before

    # A list with an id twice is never strictly ascending, so both orders reach the sort,
    # after which the sorted list is still not strictly ascending.
    @pytest.mark.parametrize("ids", [["d1", "d2", "d2"], ["d2", "d1", "d2"]], ids=["ascending", "shuffled"])
    @pytest.mark.parametrize("how", ["build", "bundle", "file"])
    def test_duplicate_id_raises_in_either_order(self, tmp_path, how, ids):
        with pytest.raises(DuplicateDocId, match="d2"):
            _via(tmp_path, how, ids, np.zeros((3, 2), dtype=np.float32))

    # The finiteness check runs before the order is looked at, so it covers both paths.
    @pytest.mark.parametrize("ids", [["d1", "d2", "d3"], ["d3", "d1", "d2"]], ids=["ascending", "shuffled"])
    @pytest.mark.parametrize("how", ["build", "bundle", "file"])
    def test_non_finite_row_raises_in_either_order(self, tmp_path, how, ids):
        vectors = np.zeros((3, 2), dtype=np.float32)
        vectors[1, 0] = np.inf
        with pytest.raises(NonFiniteVector, match="row 1"):
            _via(tmp_path, how, ids, vectors)


class TestStringIds:
    @pytest.mark.parametrize("ids", [["a", 1], [1, 2], ["a", None], [b"a", b"b"]],
                             ids=["mixed", "ints", "none", "bytes"])
    def test_an_id_that_is_not_a_string_is_refused(self, ids):
        # ["a", 1] ended in an untyped TypeError from the sort; [1, 2] was indexed
        with pytest.raises(PreconditionViolation, match="is not a string"):
            build_dense_index(ids, np.zeros((2, 2), dtype=np.float32))

    def test_bisection_finds_every_row_of_a_shuffled_bundle(self, tmp_path):
        vectors = np.random.default_rng(4).standard_normal((len(_IDS), 8)).astype(np.float32)
        index = load_bundle(_hand_written(tmp_path, [_IDS[i] for i in _PERM], vectors[_PERM]))
        assert index.ids == _IDS
        for i, doc_id in enumerate(_IDS):
            assert fetch_embedding(index, doc_id).tobytes() == vectors[i].tobytes()

    @pytest.mark.parametrize("doc_id", ["c99", "d30", "d05a", "d", 5, None, b"d01", ["d01"], ("d01",)],
                             ids=["before the first", "after the last", "between two", "a prefix", "int",
                                  "None", "bytes", "list", "tuple"])
    def test_an_id_not_in_a_shuffled_bundle_is_unknown(self, tmp_path, doc_id):
        vectors = np.zeros((len(_IDS), 2), dtype=np.float32)
        index = load_bundle(_hand_written(tmp_path, [_IDS[i] for i in _PERM], vectors))
        with pytest.raises(UnknownDocId):
            fetch_embedding(index, doc_id)

    def test_id_to_row_is_built_on_first_read_and_agrees_with_fetch(self, tmp_path):
        vectors = np.random.default_rng(5).standard_normal((len(_IDS), 4)).astype(np.float32)
        index = load_bundle(_hand_written(tmp_path, [_IDS[i] for i in _PERM], vectors[_PERM]))
        assert "id_to_row" not in vars(index)
        assert index.id_to_row == {doc_id: row for row, doc_id in enumerate(_IDS)}
        assert index.id_to_row is index.id_to_row
        for doc_id, row in index.id_to_row.items():
            assert np.shares_memory(fetch_embedding(index, doc_id), index.vectors[row])
            assert fetch_embedding(index, doc_id).tobytes() == index.vectors[row].tobytes()


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
            assert got.hits[0] is want.hits[0] is index.id_array
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


def http_engine(http_server, vectors, dim: int = 2) -> SearchEngine:
    """A dense engine over one document, in a bundle of ``dim``, whose HttpEncoder's backend
    replies ``{"vectors": vectors}``."""
    url, state = http_server
    state["handler"] = lambda body: (200, {"vectors": vectors})
    index = build_dense_index(["d1"], np.ones((1, dim), dtype=np.float32))
    return SearchEngine({"d1": Document("d1", "", "alpha")}, None, index, HttpEncoder(url))


def search_alpha(engine: SearchEngine):
    return engine.search("dense", Query("q1", "alpha"))[0]


class TestHttpEncoder:
    def test_round_trip(self, http_server):
        # the reply is carried as the backend gave it; the engine reads it
        url, state = http_server
        state["handler"] = lambda body: (200, {"vectors": [[1.0, 2.0]] * len(body["texts"])})
        assert HttpEncoder(url).encode(["x", "y"]) == [[1.0, 2.0], [1.0, 2.0]]
        assert search_alpha(http_engine(http_server, [[1.0, 2.0]])).entries == [("d1", 3.0)]

    def test_takes_no_dim(self):
        # the engine reads every reply against its bundle's dim; a dim passed as before is refused
        with pytest.raises(TypeError):
            HttpEncoder("http://127.0.0.1:1/nothing", 2)

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan"), float("inf"), "x", None, 1e300,
                                         pytest.param(10**400, id="10**400")])
    def test_bad_timeout_rejected_at_construction(self, timeout):
        # unchecked, every encode would report the caller's mistake as BackendUnavailable
        message = f"timeout must be a finite number in (0, 86400], got {timeout!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HttpEncoder("http://127.0.0.1:1/nothing", timeout=timeout)

    def test_unavailable(self):
        enc = HttpEncoder("http://127.0.0.1:1/nothing", timeout=0.2)
        with pytest.raises(BackendUnavailable):
            enc.encode(["x"])

    def test_reply_without_vectors_is_unavailable(self, http_server):
        url, state = http_server
        state["handler"] = lambda body: (200, {"vector": [[1.0, 2.0]]})
        with pytest.raises(BackendUnavailable, match='replied without "vectors"'):
            HttpEncoder(url).encode(["x"])

    def test_dim_drift_rejected(self, http_server):
        with pytest.raises(DimMismatch):
            search_alpha(http_engine(http_server, [[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("vectors, error", [
        ([[float("nan"), 1.0]], NonFiniteVector),
        ([[1.0, 2.0], [1.0]], DimMismatch),  # ragged: was BackendUnavailable
        ({"x": 1.0}, NonFiniteVector),  # an object array: was BackendUnavailable
        ([["0.5", "1e3"]], NonFiniteVector),  # strings: were read as [[0.5, 1000.0]]
    ], ids=["nan", "ragged", "dict", "strings"])
    def test_bad_reply_raises_typed_error(self, http_server, vectors, error):
        with pytest.raises(error):
            search_alpha(http_engine(http_server, vectors))

    def test_integer_past_float_range_is_non_finite(self, http_server):
        # the reply's JSON integer reads as the float inf, not an OverflowError in the float32 cast
        with pytest.raises(NonFiniteVector):
            search_alpha(http_engine(http_server, [[int("1" * 400), 0.5]]))


@pytest.mark.parametrize("dim, message", [
    (0, "dim must be >= 1, got 0"), (1.5, "dim must be an integer, got 1.5"),
    (True, "dim must be an integer, got True"), (64.0, "dim must be an integer, got 64.0"),
])
def test_encoder_dim_is_a_count(dim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HashingEncoder(dim)


def slow_reply(body):
    time.sleep(0.5)
    return 200, {"vectors": [[1.0, 2.0]]}


@pytest.mark.parametrize("handler, timeout, error, message", [
    (lambda body: (400, {}), 30.0, BackendRejected, "rejected the request"),
    (slow_reply, 0.1, BackendTimeout, "timed out"),
    (lambda body: (200, [[1.0, 2.0]]), 30.0, BackendUnavailable, "replied with a JSON list"),
], ids=["400", "slow", "json-list"])
def test_http_errors_are_typed_as_the_gateways(http_server, handler, timeout, error, message):
    # only the slow case times out: a short timeout on the others reads a late reply as BackendTimeout
    url, state = http_server
    state["handler"] = handler
    with pytest.raises(error, match=message):
        HttpEncoder(url, timeout=timeout).encode(["x"])
    assert len(state["requests"]) == 1  # no retries


class TestCheckVectors:
    def test_exact_shape_passes_and_gives_the_array(self):
        arr = np.array([[1.0, 2.0]], dtype=np.float32)
        assert check_vectors("v", arr, (1, 2)) is arr
        from_list = check_vectors("v", [[1.0, 2.0], [3.0, -4.0]], (2, 2))
        assert isinstance(from_list, np.ndarray) and from_list.tolist() == [[1.0, 2.0], [3.0, -4.0]]
        assert check_vectors("v", [np.float32(0.5), np.float64(2.0)], (2,)).tolist() == [0.5, 2.0]
        assert check_vectors("v", np.float32(0.5), ()).shape == ()  # a numpy scalar has rank 0

    @pytest.mark.parametrize("values, shape", [
        ([1.0, 2.0], (1, 2)), ([[1.0, 2.0]], (2,)), (np.float32(1.0), (1,)),  # wrong rank
        ([[1.0, 2.0]], (2, 2)), ([[1.0, 2.0]], (1, 3)), ([np.float32(1.0)], (2,)),  # wrong sizes
    ])
    def test_wrong_shape_raises_dim_mismatch(self, values, shape):
        with pytest.raises(DimMismatch, match=re.escape(f"v has shape {np.shape(values)}, expected {shape}")):
            check_vectors("v", values, shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_non_finite_vector(self, bad):
        for values, shape in (([[1.0, bad]], (1, 2)), ([np.float32(bad)], (1,)), (np.float64(bad), ())):
            with pytest.raises(NonFiniteVector, match=re.escape("v holds a NaN or inf")):
                check_vectors("v", values, shape)


ONE_ROW_INDEX = build_dense_index(["d1"], [[1.0, 0.0]])


def _engine_encoder_reply(http_server, row):
    engine = SearchEngine({"d1": Document("d1", "", "alpha")}, None, ONE_ROW_INDEX,
                          TableEncoder({"alpha": row}, len(row)))
    return "encoder reply", (1, 2), lambda: engine.search("dense", Query("q1", "alpha"))


def _dense_search_query(http_server, row):
    return "query vector", (2,), lambda: dense_search(ONE_ROW_INDEX, np.array(row), 1)


def _http_encoder_reply(http_server, row):
    engine = http_engine(http_server, [row])
    return "encoder reply", (1, 2), lambda: search_alpha(engine)


@pytest.mark.parametrize("row, error, rest", [
    ([1.0, 0.0, 0.0], DimMismatch, "has shape {got}, expected {expected}"),
    ([np.nan, 0.0], NonFiniteVector, "holds a NaN or inf"),
    ([np.inf, 0.0], NonFiniteVector, "holds a NaN or inf"),
], ids=["wrong shape", "nan", "inf"])
@pytest.mark.parametrize("site", [_engine_encoder_reply, _dense_search_query, _http_encoder_reply],
                         ids=["engine encode", "dense_search", "HttpEncoder"])
def test_every_vector_boundary_gives_the_one_message(http_server, site, row, error, rest):
    what, expected, call = site(http_server, row)
    got = (*expected[:-1], len(row))
    with pytest.raises(error, match=f"^{re.escape(what)} {re.escape(rest.format(got=got, expected=expected))}$"):
        call()


@pytest.mark.parametrize("first", [5.0, [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]], [[[1.0, 2.0]]], [[]]],
                         ids=["0-d", "1-D", "two rows for one text", "3-D", "dim 0"])
def test_an_http_reply_not_of_the_bundle_dim_is_refused(http_server, first):
    engine = http_engine(http_server, first, dim=3)
    with pytest.raises(DimMismatch, match=re.escape("expected (1, 3)")):
        search_alpha(engine)
    _, state = http_server
    state["handler"] = lambda body: (200, {"vectors": [[1.0, 2.0, 3.0]]})
    assert search_alpha(engine).entries == [("d1", 6.0)]
