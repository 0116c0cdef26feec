import hashlib
import json
import math
import re
import struct
import tracemalloc
import warnings
from collections import Counter
from collections.abc import Mapping, MutableMapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rede.sparse
from rede.corpus import _ASCII_BYTES, Document, tokenize
from rede.dense import build_dense_index
from rede.errors import EmptyCorpus, MalformedRecord, SizeMismatch
from rede.judge import OracleJudge
from rede.pipeline import PipelineConfig, SearchEngine
from rede.sparse import (
    K1_MAX,
    SparseIndex,
    build_sparse_index,
    load_sparse_index,
    save_sparse_index,
    sparse_search,
)
from rede.sparse import _bm25
from rede.synthetic import generate_benchmark

from test_cli import DOCS, with_header


def brute_force_bm25(texts: dict[str, str], query_tokens, doc_id, k1, b):
    """Direct summation over the closed form, straight from the raw texts."""
    tokens = {d: tokenize(t) for d, t in texts.items()}
    n = len(tokens)
    avgdl = max(sum(len(v) for v in tokens.values()) / n, 1e-9)
    dl = len(tokens[doc_id])
    score = 0.0
    for term in query_tokens:
        tf = tokens[doc_id].count(term)
        if tf == 0:
            continue
        df = sum(1 for d in tokens if term in tokens[d])
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return score


def corpus_from(texts: dict[str, str]):
    return {doc_id: Document(doc_id, "", text) for doc_id, text in texts.items()}


TOY = {"d1": "a b a", "d2": "b c"}
# at a k1 near the largest float, this corpus's norms and scores pass float range
OVERFLOW = {"d1": "a b", "d2": "a a a c c c c c", "d3": "b"}


def assert_same_index(a, b):
    assert a.doc_ids == b.doc_ids
    assert a.doc_lengths.tolist() == b.doc_lengths.tolist()
    assert {t: p.tolist() for t, p in a.postings.items()} == {t: p.tolist() for t, p in b.postings.items()}
    assert (a.avg_doc_length, a.k1, a.b) == (b.avg_doc_length, b.k1, b.b)


class TestBuild:
    def test_statistics(self):
        # rows follow ascending doc id whatever the corpus order
        for texts in (TOY, dict(reversed(TOY.items()))):
            index = build_sparse_index(corpus_from(texts))
            assert index.doc_count == 2
            assert index.avg_doc_length == 2.5
            assert index.doc_ids == ["d1", "d2"]
            assert index.postings["a"].tolist() == [[0, 2]]
            assert index.postings["b"].tolist() == [[0, 1], [1, 1]]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_sparse_index({})

    def test_all_empty_docs(self):
        with pytest.raises(EmptyCorpus):
            build_sparse_index(corpus_from({"d1": "", "d2": "..."}))

    def test_single_empty_doc_tolerated(self):
        index = build_sparse_index(corpus_from({"d1": "", "d2": "a"}))
        assert index.doc_lengths.tolist() == [0, 1]
        assert index.avg_doc_length == 0.5

    def test_rebuild_identical(self):
        corpus = corpus_from(TOY)
        assert_same_index(build_sparse_index(corpus), build_sparse_index(corpus))

    def test_indexes_compare_and_hash_by_identity(self):
        # a value comparison would reach the numpy fields and raise "truth value ... is ambiguous"
        corpus = corpus_from(TOY)
        a, b = build_sparse_index(corpus), build_sparse_index(corpus)
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2

    def test_param_validation(self):
        with pytest.raises(ValueError):
            build_sparse_index(corpus_from(TOY), k1=-0.1)
        with pytest.raises(ValueError):
            build_sparse_index(corpus_from(TOY), b=1.5)
        # k1 is bounded where it enters, so no norm or score can pass float range
        assert build_sparse_index(corpus_from(TOY), k1=K1_MAX).k1 == K1_MAX
        for k1 in (math.nan, math.inf, np.nextafter(K1_MAX, math.inf), 1e308):
            with pytest.raises(ValueError, match=re.escape(
                    f"k1 must be a finite number in [0, {K1_MAX}], got {k1!r}")):
                build_sparse_index(corpus_from(TOY), k1=k1)

    @pytest.mark.parametrize("ids", [["d1", "d2"], []], ids=["lengths 0", "no rows"])
    def test_direct_index_refuses_an_average_length_that_is_not_positive(self, ids):
        # the average is derived from the lengths, so only lengths that sum to 0 make it 0
        with pytest.raises(ValueError, match=re.escape("avg_doc_length must be a finite number > 0, got 0.0")):
            SparseIndex(ids, np.zeros(len(ids), dtype=np.int32), {}, np.zeros(1, dtype=np.int64),
                        np.zeros((0, 2), dtype=np.int32))


class TestNarrowPostings:
    # rows take the narrowest unsigned type that holds N - 1, tfs the one that holds the largest tf
    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_rows_take_the_narrowest_type_holding_the_last_row(self, n, dtype):
        texts = {f"d{i:05d}": f"a w{i % 7}" + " b" * (i % 3) for i in range(n)}
        index = build_sparse_index(corpus_from(texts))
        assert (index.rows.dtype, index.tfs.dtype) == (dtype, np.uint8)
        assert index.rows.nbytes + index.tfs.nbytes == (np.dtype(dtype).itemsize + 1) * len(index.rows)
        for query in (["a"], ["b", "w3", "a", "b"], ["w6"]):
            assert _bm25(index, query).tobytes() == reference_bm25(index, query).tobytes()

    def test_a_direct_index_past_65536_rows_takes_uint32(self):
        n = 65537
        pairs = np.array([[0, 1], [n - 1, 2], [n - 1, 1]], dtype=np.int32)
        index = SparseIndex([f"d{i:05d}" for i in range(n)], np.ones(n, dtype=np.int32), {"a": 0, "b": 1},
                            np.array([0, 2, 3]), pairs)
        assert (index.rows.dtype, index.tfs.dtype) == (np.uint32, np.uint8)
        assert index.rows.tolist() == [0, n - 1, n - 1] and index.tfs.tolist() == [1, 2, 1]
        for query in (["a"], ["b", "a", "b"]):
            assert _bm25(index, query).tobytes() == reference_bm25(index, query).tobytes()

    @pytest.mark.parametrize("tf, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_tfs_take_the_narrowest_type_holding_the_largest_tf(self, tf, dtype):
        index = build_sparse_index(corpus_from({"d1": "a " * tf + "b", "d2": "a b c", "d3": "c"}))
        assert (index.rows.dtype, index.tfs.dtype) == (np.uint8, dtype)
        assert index.postings["a"].tolist() == [[0, tf], [1, 1]]
        for query in (["a"], ["a", "c", "a"], ["b"]):
            assert _bm25(index, query).tobytes() == reference_bm25(index, query).tobytes()

    def test_a_posting_takes_three_bytes_below_65537_documents(self):
        # uint16 rows and uint8 tfs, against 8 bytes for the file's int32 [row, tf] pairs
        index = build_sparse_index(generate_benchmark(seed=1, n_docs=1000, n_queries=1).corpus)
        assert index.rows.nbytes + index.tfs.nbytes == 3 * len(index.rows) > 0
        with pytest.raises(ValueError):
            index.rows[0] = 1
        with pytest.raises(ValueError):
            index.tfs[0] = 1

    @pytest.mark.parametrize("pairs, message", [
        ([(-1, 1), (1, 1)], "posting row out of range"),
        ([(0, 1), (2, 1)], "posting row out of range"),
        ([(0, 1), (1, 0)], "term frequency below 1"),
    ], ids=["row -1", "row N", "tf 0"])
    def test_a_direct_index_with_a_bad_posting_is_refused(self, pairs, message):
        # the unsigned casts would wrap these values silently: -1 to the last row, and so on
        with pytest.raises(MalformedRecord, match=message):
            SparseIndex(["d1", "d2"], np.array([1, 1], dtype=np.int32), {"a": 0}, np.array([0, 2]),
                        np.array(pairs, dtype=np.int32))


@pytest.mark.parametrize("k1", [1e308, 1.7e308])
@pytest.mark.parametrize("b", [0.0, 0.4, 1.0])
def test_bm25_past_float_range_raises_and_never_drops_a_document(k1, b):
    # unbounded, k1 = 1e308, b = 1 drops d2 from "a" (its norm is inf), k1 = 1.7e308, b = 0
    # ranks d2 at inf, and k1 = 1e308, b = 0 overflows on "c", whose score is finite
    with pytest.raises(ValueError, match=re.escape(f"k1 must be a finite number in [0, {K1_MAX}], got {k1!r}")):
        build_sparse_index(corpus_from(OVERFLOW), k1=k1, b=b)


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_the_largest_tf_and_length_at_k1_max_score_finite(tmp_path, b):
    # the worst case the file format allows: one document of int32's largest length and tf,
    # the other empty, so dl / avgdl is N = 2 and tf * (k1 + 1) is about 2e15
    big = 2**31 - 1
    path = tmp_path / "worst.idx"
    path.write_bytes(spidx(["d1", "d2"], ["a"], [1], [big, 0], [(0, big)], avgdl=big / 2, k1=K1_MAX, b=b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = load_sparse_index(str(path))
        for query in ["a", "a a a", "a b"]:
            entries = sparse_search(index, query, 10).entries
            assert [doc_id for doc_id, _ in entries] == ["d1"], (query, entries)
            assert all(0 < score < math.inf for _, score in entries), (query, entries)
    # the same file one float above the bound does not load
    path.write_bytes(spidx(["d1", "d2"], ["a"], [1], [big, 0], [(0, big)], avgdl=big / 2,
                           k1=np.nextafter(K1_MAX, math.inf), b=b))
    with pytest.raises(MalformedRecord, match="bad sparse index header: k1 must be"):
        load_sparse_index(str(path))


class TestScore:
    def test_hand_derived_value(self):
        # idf = ln(2), tf = 2, dl = 3, avgdl = 2.5, k1 = 0.9, b = 0.4
        index = build_sparse_index(corpus_from(TOY), k1=0.9, b=0.4)
        expected = math.log(2) * 2 * 1.9 / (2 + 0.9 * (1 - 0.4 + 0.4 * 3 / 2.5))
        d1 = _bm25(index, ["a"])[0]  # rows are doc ids ascending
        assert d1 == pytest.approx(expected, abs=1e-12)
        assert d1 == pytest.approx(0.8862581716446137, abs=1e-9)

    def test_no_matching_terms(self):
        index = build_sparse_index(corpus_from(TOY))
        assert _bm25(index, ["zzz"]).tolist() == [0.0, 0.0]

    def test_duplicate_query_terms_add_per_occurrence(self):
        index = build_sparse_index(corpus_from(TOY))
        one = _bm25(index, ["a"])[0]
        two = _bm25(index, ["a", "a"])[0]
        assert two == pytest.approx(2 * one, rel=1e-12)
        assert two == pytest.approx(brute_force_bm25(TOY, ["a", "a"], "d1", 0.9, 0.4), abs=1e-12)

    def test_monotone_in_tf(self):
        # same doc length and df, increasing tf of the query term
        texts = {"d1": "a b b c", "d2": "a a b c", "d3": "a a a c"}
        index = build_sparse_index(corpus_from(texts))
        scores = _bm25(index, ["a"])  # rows d1, d2, d3
        assert scores[0] < scores[1] < scores[2]

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(30):
            n_docs = int(rng.integers(1, 15))
            texts = {
                f"d{i}": " ".join(rng.choice(vocab, size=rng.integers(0, 25)))
                for i in range(n_docs)
            }
            if all(not t for t in texts.values()):
                continue
            k1, b = float(rng.uniform(0, 2)), float(rng.uniform(0, 1))
            index = build_sparse_index(corpus_from(texts), k1=k1, b=b)
            query = list(rng.choice(vocab, size=rng.integers(1, 6)))
            scores = _bm25(index, query)
            for row, doc_id in enumerate(index.doc_ids):
                expected = brute_force_bm25(texts, query, doc_id, k1, b)
                assert scores[row] == pytest.approx(expected, abs=1e-9)


class TestSearch:
    def test_toy_query(self):
        index = build_sparse_index(corpus_from(TOY), k1=0.9, b=0.4)
        result = sparse_search(index, "a", 2)
        assert result.doc_ids() == ["d1"]
        assert result.entries[0][1] == pytest.approx(0.8862581716446137, abs=1e-9)

    def test_no_match(self):
        index = build_sparse_index(corpus_from(TOY))
        assert sparse_search(index, "zzz", 5).entries == []

    @pytest.mark.parametrize("k, message", [(2.5, "k must be an integer, got 2.5"),
                                            (0, "k must be >= 1, got 0")])
    def test_k_must_be_an_integer_of_at_least_1(self, k, message):
        index = build_sparse_index(corpus_from(TOY))
        with pytest.raises(ValueError, match=re.escape(message)):
            sparse_search(index, "b", k)

    def test_k_exceeds_corpus(self):
        index = build_sparse_index(corpus_from(TOY))
        assert len(sparse_search(index, "b", 100).entries) == 2

    def test_tie_break_ascending_doc_id(self):
        index = build_sparse_index(corpus_from({"d2": "x y", "d1": "x y"}))
        assert sparse_search(index, "x", 2).doc_ids() == ["d1", "d2"]

    def test_prefix_property(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(8)]
        texts = {f"d{i}": " ".join(rng.choice(vocab, size=10)) for i in range(20)}
        index = build_sparse_index(corpus_from(texts))
        for _ in range(20):
            query = " ".join(rng.choice(vocab, size=3))
            full = sparse_search(index, query, 20).entries
            for k in range(1, len(full) + 1):
                assert sparse_search(index, query, k).entries == full[:k]

    def test_top_k_matches_brute_force_sort(self):
        # 1-3 word documents over 3 words tie heavily; "d1000" < "d10000" < "d1001"
        rng = np.random.default_rng(17)
        for _ in range(80):
            ids = [f"d{n}" for n in rng.choice(20000, size=int(rng.integers(1, 30)), replace=False)]
            ids = list(dict.fromkeys(ids + ["d10000", "d1001", "d1000"]))
            rng.shuffle(ids)
            texts = {d: " ".join(rng.choice(["a", "b", "c"], size=int(rng.integers(1, 4)))) for d in ids}
            index = build_sparse_index(corpus_from(texts))
            query = list(rng.choice(["a", "b", "c", "z"], size=int(rng.integers(1, 3))))
            scored = [(d, brute_force_bm25(texts, query, d, 0.9, 0.4)) for d in texts]
            expected = sorted([p for p in scored if p[1] > 0], key=lambda p: (-p[1], p[0]))
            for k in range(1, len(ids) + 2):
                assert sparse_search(index, " ".join(query), k).entries == expected[:k]

    def test_search_matches_score(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(6)]
        texts = {f"d{i}": " ".join(rng.choice(vocab, size=8)) for i in range(10)}
        index = build_sparse_index(corpus_from(texts))
        query = "w0 w1 w0"
        scores = _bm25(index, tokenize(query))
        for doc_id, score in sparse_search(index, query, 10).entries:
            assert score == pytest.approx(scores[index.doc_ids.index(doc_id)], abs=1e-12)


def spidx(ids, terms, df, lengths, pairs, avgdl=1.0, k1=0.9, b=0.4) -> bytes:
    """A version-2 sparse index file built by hand."""
    header = json.dumps({"ids": ids, "terms": terms, "df": df, "k1": k1, "b": b, "avgdl": avgdl}).encode()
    body = struct.pack(f"<{len(lengths) + 2 * len(pairs)}i", *lengths, *(v for pair in pairs for v in pair))
    return b"SPIDX" + struct.pack("<HQ", 2, len(header)) + header + body


class TestSerialization:
    def test_round_trip(self, tmp_path):
        index = build_sparse_index(corpus_from(TOY), k1=1.2, b=0.75)
        path = tmp_path / "sparse.idx"
        save_sparse_index(index, str(path))
        loaded = load_sparse_index(str(path))
        assert_same_index(loaded, index)
        assert (loaded.k1, loaded.b) == (1.2, 0.75)
        assert sparse_search(loaded, "a b", 5).entries == sparse_search(index, "a b", 5).entries

    @pytest.mark.parametrize("corrupt", [
        lambda data: b"XXXXX" + data[5:],  # bad magic
        lambda data: data[:5],  # cut after the magic
        lambda data: data[:9],  # short header
        lambda data: data[:5] + struct.pack("<H", 1) + data[7:],  # version 1
        lambda data: data[:5] + struct.pack("<H", 3) + data[7:],  # a later version
        lambda data: data.replace(b'{"ids"', b'{"ids', 1),  # bad header JSON
        lambda data: with_header(data, lambda h: {k: v for k, v in h.items() if k != "df"}),
        lambda data: with_header(data, lambda h: {**h, "k1": [1.2]}),  # wrong type
        lambda data: with_header(data, lambda h: {**h, "terms": h["terms"][:-1]}),  # one df too many
        lambda data: data[:-1],  # body not a multiple of 4 bytes
        lambda data: data[:-4],  # body one value short
        lambda data: data + bytes(8),  # body too long
        lambda data: data[:-8] + struct.pack("<ii", 2, 1),  # a posting row past the last document
        lambda data: with_header(data, lambda h: {**h, "terms": ["a"] * len(h["terms"])}),  # a term twice
        lambda data: with_header(data, lambda h: {**h, "avgdl": 0.0}),
        lambda data: with_header(data, lambda h: {**h, "avgdl": float("nan")}),
        lambda data: with_header(data, lambda h: {**h, "k1": -1.0}),
        lambda data: with_header(data, lambda h: {**h, "k1": float("nan")}),
        lambda data: with_header(data, lambda h: {**h, "k1": float("inf")}),
        lambda data: with_header(data, lambda h: {**h, "k1": 1.7e308, "b": 1.0}),
        lambda data: with_header(data, lambda h: {**h, "k1": K1_MAX * 2}),
        lambda data: with_header(data, lambda h: {**h, "avgdl": 1e-310}),
        lambda data: with_header(data, lambda h: {**h, "avgdl": np.nextafter(h["avgdl"], 0)}),
        lambda data: with_header(data, lambda h: {**h, "avgdl": np.nextafter(h["avgdl"], math.inf)}),
        lambda data: data[:7] + struct.pack("<Q", 2**63) + data[15:],  # header past the end of the file
    ])
    def test_malformed_file_raises_typed_error(self, tmp_path, corrupt):
        path = tmp_path / "sparse.idx"
        save_sparse_index(build_sparse_index(corpus_from(TOY), k1=1.2), str(path))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises((MalformedRecord, SizeMismatch)):
            load_sparse_index(str(path))

    @pytest.mark.parametrize("key, value", [
        ("k1", K1_MAX * 2),
        ("avgdl", 1e-310),  # its norms pass float range, which must not be blamed on k1
        ("avgdl", np.nextafter(2.5, 0)),  # TOY's mean length is 2.5
        ("avgdl", np.nextafter(2.5, 3)),
    ])
    def test_a_bad_k1_or_avgdl_names_its_key(self, tmp_path, key, value):
        path = tmp_path / "sparse.idx"
        save_sparse_index(build_sparse_index(corpus_from(TOY)), str(path))
        path.write_bytes(with_header(path.read_bytes(), lambda h: {**h, key: float(value)}))
        with pytest.raises(MalformedRecord, match=f"^bad sparse index header: {key} "):
            load_sparse_index(str(path))

    def test_file_level_fault_names_no_line(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an index")
        with pytest.raises(MalformedRecord, match="junk.idx is not a sparse index file") as exc:
            load_sparse_index(str(path))
        assert exc.value.line_no is None
        assert not str(exc.value).startswith("line")

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (0, 1)], "not strictly ascending"),  # a repeated row would be added twice
        ([(1, 1), (0, 1)], "not strictly ascending"),
        ([(0, 1), (1, 0)], "term frequency below 1"),
        ([(0, -1), (1, 1)], "term frequency below 1"),
    ], ids=["repeated row", "descending rows", "tf 0", "negative tf"])
    def test_postings_must_be_ascending_with_positive_tf(self, tmp_path, pairs, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(spidx(["d1", "d2"], ["a"], [2], [1, 1], pairs))
        with pytest.raises(MalformedRecord, match=message):
            load_sparse_index(str(path))

    def test_document_lengths_must_not_be_negative(self, tmp_path):
        # a length of -1 with avgdl 0.9 and b = 1 made tf + norm zero: an inf score
        path = tmp_path / "bad.idx"
        path.write_bytes(spidx(["d1", "d2"], ["a"], [2], [-1, 1], [(0, 1), (1, 1)], avgdl=0.9, b=1.0))
        with pytest.raises(MalformedRecord, match="document length below 0"):
            load_sparse_index(str(path))

    @pytest.mark.parametrize("ids", [["d2", "d1"], ["d1", "d1"]], ids=["out of order", "repeated"])
    def test_ids_must_be_strictly_ascending(self, tmp_path, ids):
        # row order is the tie order, so a file's ids must be ascending and distinct
        def write(path, doc_ids):
            header = json.dumps({"ids": doc_ids, "terms": ["a"], "df": [2],
                                 "k1": 0.9, "b": 0.4, "avgdl": 1.0}).encode()
            body = struct.pack("<6i", 1, 1, 0, 1, 1, 1)  # two lengths, then "a" in rows 0 and 1
            path.write_bytes(b"SPIDX" + struct.pack("<HQ", 2, len(header)) + header + body)

        write(tmp_path / "good.idx", ["d1", "d2"])
        assert load_sparse_index(str(tmp_path / "good.idx")).doc_ids == ["d1", "d2"]
        write(tmp_path / "bad.idx", ids)
        with pytest.raises(MalformedRecord, match="ids are not strictly ascending"):
            load_sparse_index(str(tmp_path / "bad.idx"))

    def test_version_1_file_must_be_rebuilt(self, tmp_path):
        payload = json.dumps({"postings": {"a": [["d1", 1]]}, "doc_lengths": {"d1": 1},
                              "avg_doc_length": 1.0, "doc_count": 1, "k1": 0.9, "b": 0.4}).encode()
        path = tmp_path / "v1.idx"
        path.write_bytes(b"SPIDX" + struct.pack("<HQ", 1, len(payload)) + payload)
        with pytest.raises(MalformedRecord, match="unsupported index version 1"):
            load_sparse_index(str(path))


def test_ascii_fast_path_writes_the_regex_tokenizers_bytes(tmp_path, monkeypatch):
    # ASCII documents take tokenize's translate-and-split path, the others its regex
    corpus = corpus_from({
        "a1": "BM25 ranks THE docs, v2.0; fast_path\ttabs\x1fand\x7fcontrols",
        "a2": "snake_case_words and kebab-case-words: x1 X1 x_1",
        "a3": "the quick brown fox (again) [x1]",
        "u1": "Café crème, CAFÉ_creme and cafe",
        "u2": "İstanbul and ISTANBUL_istanbul",
        "u3": "日本語のテキスト BM25 混在_text",
        "u4": "ǅemal straße STRASSE ẞ_x1",
    })
    assert [doc.text.isascii() for doc in corpus.values()] == [True] * 3 + [False] * 4
    fast, regex = tmp_path / "fast.idx", tmp_path / "regex.idx"
    save_sparse_index(build_sparse_index(corpus), str(fast))
    monkeypatch.setattr("rede.sparse.tokenize", lambda text: re.findall(r"[^\W_]+", text.lower()))
    save_sparse_index(build_sparse_index(corpus), str(regex))
    assert fast.read_bytes() == regex.read_bytes()


# -- the flat index against the per-document dict build and the per-term scoring ---------------

def reference_file(corpus, k1=0.9, b=0.4) -> bytes:
    """The index file as the per-document dict build wrote it: a Counter per document,
    every term's [row, tf] pairs extended in row order, terms in order of first sight."""
    doc_ids = sorted(corpus)
    lengths, flat = [], {}
    for row, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus[doc_id].search_text)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            flat.setdefault(term, []).extend((row, tf))
    header = json.dumps({"ids": doc_ids, "terms": list(flat), "df": [len(p) // 2 for p in flat.values()],
                         "k1": k1, "b": b, "avgdl": max(sum(lengths) / len(doc_ids), 1e-9)}).encode("utf-8")
    values = lengths + [v for p in flat.values() for v in p]
    return (b"SPIDX" + struct.pack("<HQ", 2, len(header)) + header
            + struct.pack(f"<{len(values)}i", *values))


def reference_bm25(index, query_tokens) -> np.ndarray:
    """BM25 of every row with one ``scores[rows] +=`` per distinct query term."""
    scores = np.zeros(index.doc_count)
    for term, count in Counter(query_tokens).items():
        posting = index.postings.get(term)
        if posting is None:
            continue
        rows, tf = posting[:, 0], posting[:, 1]
        norm = index.k1 * (1 - index.b + index.b * index.doc_lengths[rows] / index.avg_doc_length)
        idf = math.log(1 + (index.doc_count - len(rows) + 0.5) / (len(rows) + 0.5))  # README formula
        scores[rows] += count * (idf * tf * (index.k1 + 1) / (tf + norm))
    return scores


# repeated tokens, case folding and non-ASCII letters; separators split tokens and are not tokens
WORDS = st.sampled_from(["a", "A", "b", "bb", "é", "É", "straße", "日本", "x1", "ω", "z"])
TEXTS = st.lists(WORDS, max_size=8).flatmap(
    lambda words: st.lists(st.sampled_from([" ", ", ", "_", "-", "…"]),
                           min_size=len(words), max_size=len(words)).map(
        lambda seps: "".join(w + s for w, s in zip(words, seps))))
DOC_IDS = st.sampled_from(["d1", "d2", "d10", "d100", "d11", "e", "é"])
CORPORA = st.dictionaries(DOC_IDS, TEXTS, min_size=1, max_size=7).map(corpus_from)
# ASCII texts take the build's byte-table path: any of the 128 code points, words
# of both cases between separators (`_`, the whitespace bytes.split splits on, the
# \x1c-\x1f that only str.split splits on, \x7f), and separators alone; "" included
ASCII_WORDS = st.sampled_from(["a", "A", "b", "bB", "Bb", "x1", "X1", "42", "z"])
ASCII_SEPARATORS = st.sampled_from([" ", "_", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d",
                                    "\x1e", "\x1f", "\x7f", "\x00", "-", ".", "~"])
ASCII_TEXTS = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=12),
    st.lists(st.tuples(ASCII_WORDS, ASCII_SEPARATORS), max_size=8).map(
        lambda pairs: "".join(w + s for w, s in pairs)),
    st.lists(ASCII_SEPARATORS, max_size=4).map("".join),
)
ASCII_CORPORA = st.dictionaries(DOC_IDS, ASCII_TEXTS, min_size=1, max_size=7).map(corpus_from)
# Each document takes its own tokenizer path, the byte table if it is ASCII and `tokenize`
# otherwise, so in runs of 1 and 2 documents the two alternate inside and across runs. `ÿ` is
# U+00FF, a byte the table would keep (its UTF-8 is c3 bf); a lone surrogate is no token,
# only a separator.
NON_ASCII_TEXTS = st.sampled_from(["ÿ", "ÿes Ÿ_x1", "a ÿ b", "naïve A", "日本 BM25", "a\ud800b", "\udcff B"])
MIXED_CORPORA = st.tuples(st.dictionaries(DOC_IDS, ASCII_TEXTS | NON_ASCII_TEXTS, max_size=6),
                          DOC_IDS, NON_ASCII_TEXTS).map(
    lambda drawn: corpus_from({**drawn[0], drawn[1]: drawn[2]}))
ANY_CORPORA = st.one_of(CORPORA, ASCII_CORPORA, MIXED_CORPORA)
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# A build tokenizes and numbers _RUN_DOCS documents at a time, more than any corpus above
# holds; in runs of 1 and 2 documents the rows and the term numbering cross run boundaries.
RUN_DOCS = st.sampled_from([1, 2, rede.sparse._RUN_DOCS])
# In runs of 2 (d1 d2 | d3 d4 | d5): the first run ends with an empty document, the second
# tokenizes to nothing, and the last holds a term first seen there; with d5 ASCII or not.
RUN_EDGES = {"d1": "a b", "d2": "", "d3": "_", "d4": "- ~", "d5": "c A"}
RUN_EDGE_CORPORA = [corpus_from(RUN_EDGES), corpus_from({**RUN_EDGES, "d5": "c é A"})]


class TestFlatIndex:
    @settings(PROPERTY, max_examples=900)  # about 300 from each kind of corpus
    @given(ANY_CORPORA, st.floats(0, 3), st.floats(0, 1), RUN_DOCS)
    @example(RUN_EDGE_CORPORA[0], 0.9, 0.4, 2)
    @example(RUN_EDGE_CORPORA[1], 0.9, 0.4, 2)
    def test_saved_bytes_equal_the_per_document_build(self, tmp_path_factory, corpus, k1, b, run):
        with mock.patch.object(rede.sparse, "_RUN_DOCS", run):
            if not any(tokenize(doc.search_text) for doc in corpus.values()):
                with pytest.raises(EmptyCorpus):
                    build_sparse_index(corpus, k1=k1, b=b)
                return
            path = tmp_path_factory.getbasetemp() / "flat.idx"
            save_sparse_index(build_sparse_index(corpus, k1=k1, b=b), str(path))
            assert path.read_bytes() == reference_file(corpus, k1, b)
            loaded, built = load_sparse_index(str(path)), build_sparse_index(corpus)
            for column in ("rows", "tfs"):
                assert getattr(loaded, column).dtype == getattr(built, column).dtype
                assert getattr(loaded, column).tobytes() == getattr(built, column).tobytes()

    @PROPERTY
    @given(CORPORA, st.lists(WORDS | st.just("unknown"), max_size=6), st.floats(0, 3), st.floats(0, 1))
    @example(corpus=corpus_from(OVERFLOW), query=["a", "a", "b", "c", "unknown"], k1=K1_MAX, b=1.0)
    def test_scores_equal_the_per_term_sum_bit_for_bit(self, corpus, query, k1, b):
        # repeated query tokens count per occurrence; an unknown or absent term adds nothing
        if not any(tokenize(doc.search_text) for doc in corpus.values()):
            return
        index = build_sparse_index(corpus, k1=k1, b=b)
        tokens = tokenize(" ".join(query))
        assert _bm25(index, tokens).tobytes() == reference_bm25(index, tokens).tobytes()

    @settings(PROPERTY, max_examples=900)
    @given(ANY_CORPORA, RUN_DOCS)
    @example(RUN_EDGE_CORPORA[0], 2)
    @example(RUN_EDGE_CORPORA[1], 2)
    def test_postings_are_a_read_only_view_in_file_order(self, corpus, run):
        if not any(tokenize(doc.search_text) for doc in corpus.values()):
            return
        with mock.patch.object(rede.sparse, "_RUN_DOCS", run):
            index = build_sparse_index(corpus)
        postings = index.postings
        assert isinstance(postings, Mapping) and not isinstance(postings, MutableMapping)
        docs = [tokenize(corpus[doc_id].search_text) for doc_id in sorted(corpus)]
        assert list(postings) == list(index.terms) == list(dict.fromkeys(t for doc in docs for t in doc))
        for term, posting in postings.items():
            assert len(posting) == sum(term in doc for doc in docs)
            assert posting.tolist() == [[row, doc.count(term)] for row, doc in enumerate(docs) if term in doc]
        assert postings.get("unknown") is None and "unknown" not in postings
        with pytest.raises(TypeError):
            postings["unknown"] = np.zeros((1, 2), dtype=np.int32)
        with pytest.raises(ValueError):
            next(iter(postings.values()))[0, 1] = 7

    def test_search_never_builds_the_postings_map(self, tmp_path):
        # the map is for inspection only; built on load or search, it would add to the engine's memory
        bench = generate_benchmark(seed=5, n_docs=300, n_queries=4)
        path = tmp_path / "sparse.idx"
        save_sparse_index(build_sparse_index(bench.corpus), str(path))
        sparse = load_sparse_index(str(path))
        engine = SearchEngine(bench.corpus, sparse, build_dense_index(bench.doc_ids, bench.doc_vectors),
                              bench.encoder, judge=OracleJudge(bench.qrels),
                              config=PipelineConfig(initial_retriever="hybrid"))
        for method in ("hybrid", "rede"):
            for query in bench.queries:
                engine.search(method, query)
        assert "postings" not in vars(sparse)
        assert len(sparse.postings) == len(sparse.terms) and "postings" in vars(sparse)

    def test_terms_add_in_query_order(self):
        # float addition is not associative: on this corpus, adding "d b a" in reverse
        # order changes the last bit of a score
        index = build_sparse_index(corpus_from(
            {"d0": "d b d a", "d1": "c e a", "d2": "a d c e b", "d3": "d e a d e"}))
        forward = reference_bm25(index, ["d", "b", "a"])
        assert forward.tobytes() != reference_bm25(index, ["a", "b", "d"]).tobytes()
        assert _bm25(index, ["d", "b", "a"]).tobytes() == forward.tobytes()


def test_runs_of_documents_lower_the_traced_peak_of_a_build():
    # The point of building in runs: token objects and key arrays of one run at a time, not of
    # the whole corpus. Measured on this corpus (120k tokens): runs of 100 documents peak at
    # about 0.26 of one run over the whole corpus.
    corpus = generate_benchmark(seed=1, n_docs=3000, n_queries=1).corpus
    peaks = {}
    for run in (100, len(corpus)):
        with mock.patch.object(rede.sparse, "_RUN_DOCS", run):
            tracemalloc.start()
            try:
                build_sparse_index(corpus)
                peaks[run] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[100] < 0.5 * peaks[len(corpus)], peaks


def test_one_non_ascii_document_builds_per_document(tmp_path):
    corpus = corpus_from({"a1": "A b\x1fc_ÿ", "a2": "", "u": "xÿz ÿ B", "z": "\x7f b"})
    index = build_sparse_index(corpus)
    assert list(index.terms) == ["a", "b", "c", "ÿ", "xÿz"]
    assert index.doc_lengths.tolist() == [4, 0, 3, 1]
    path = tmp_path / "mixed.idx"
    save_sparse_index(index, str(path))
    assert path.read_bytes() == reference_file(corpus)


def test_each_document_picks_its_own_tokenizer_path(tmp_path):
    # runs of 2: d1 d2 | d3 d4 | d5 d6 | d7 d8; the first and third runs are all ASCII, the
    # others hold one non-ASCII text each, and only the non-ASCII texts go through the regex
    corpus = corpus_from({"d1": "alpha beta", "d2": "beta", "d3": "café alpha", "d4": "gamma beta",
                          "d5": "delta", "d6": "alpha gamma", "d7": "zeta Ωmega", "d8": "beta"})
    with (mock.patch.object(rede.sparse, "_RUN_DOCS", 2),
          mock.patch.object(rede.sparse, "tokenize", wraps=tokenize) as spy):
        index = build_sparse_index(corpus)
    assert [call.args for call in spy.call_args_list] == [("café alpha",), ("zeta Ωmega",)]
    path = tmp_path / "runs.idx"
    save_sparse_index(index, str(path))
    assert path.read_bytes() == reference_file(corpus)
    # "alpha" and "beta", first seen in an ASCII text, keep their numbers in the others
    assert index.terms == {"alpha": 0, "beta": 1, "café": 2, "gamma": 3, "delta": 4, "zeta": 5, "ωmega": 6}
    assert index.postings["alpha"].tolist() == [[0, 1], [2, 1], [5, 1]]
    assert index.postings["beta"].tolist() == [[0, 1], [1, 1], [3, 1], [7, 1]]


def test_byte_table_tokenize_and_regex_agree_on_every_ascii_code_point():
    for c in range(128):
        char = chr(c)
        expected = char.lower() if re.fullmatch(r"[^\W_]", char) else " "
        assert tokenize(char) == expected.split(), c
        assert bytes([c]).translate(_ASCII_BYTES) == expected.encode("ascii"), c
    high = bytes(range(128, 256))
    assert high.translate(_ASCII_BYTES) == high  # never met in ASCII text; bytes.translate takes 256


# sha256 of the index files written before terms were numbered in one pass, and, for the
# corpus with one non-ASCII document, before the tokenizer path was chosen per run of
# documents. The golden grid hashes search output only, and a change in term-numbering order
# changes the file without changing a ranking.
PINNED_INDEX_SHA256 = {
    "cli-workspace": "d063e2d525a58dd15cd91e410882b00add312ba849b4155983e534b313543bfa",
    "shortpost-2k": "38d3a833ec38dfc0a596b437054ac4cc1156fc6839c0fff7411a15c055239631",
    "shortpost-2k-cafe": "16d0678ac244296908a6355ac87b5a27cec7fbcfe844c1f61acc6a1dd48aae68",
}


def pinned_corpus(name: str):
    if name == "cli-workspace":
        return corpus_from(dict(DOCS))
    # perfbench's hybrid-shortpost-20k generator shape at 2k documents
    corpus = generate_benchmark(1, n_docs=2000, dim=64, n_clusters=200, vocab_per_cluster=60,
                                shared_vocab=83, shared_per_doc=1, n_queries=100).corpus
    if name == "shortpost-2k-cafe":  # " café" after the middle document's text
        middle = corpus[sorted(corpus)[len(corpus) // 2]]
        middle.text += " café"
    return corpus


@pytest.mark.parametrize("name", sorted(PINNED_INDEX_SHA256))
def test_index_file_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "pinned.idx"
    save_sparse_index(build_sparse_index(pinned_corpus(name)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_INDEX_SHA256[name]
