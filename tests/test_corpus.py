import json
import os
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rede.corpus import (
    Document,
    Query,
    RankedList,
    _top_k,
    load_corpus,
    load_qrels,
    load_queries,
    read_run_file,
    tokenize,
    write_run_file,
)
from rede.dense import load_bundle, write_embeddings
from rede.errors import (
    DuplicateDocId,
    DuplicateQueryId,
    MalformedRecord,
    NegativeRelevance,
    PreconditionViolation,
)


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer rule as one regex: lowercase, then maximal runs of alphanumeric codepoints."""
    return re.findall(r"[^\W_]+", text.lower())


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("BM25, okay?") == ["bm25", "okay"]

    def test_empty(self):
        assert tokenize("") == []

    def test_non_alnum_separators(self):
        assert tokenize("a-b a") == ["a", "b", "a"]

    def test_underscore_is_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_idempotent_on_joined_output(self):
        text = "The quick-brown FOX, v2.0; jumps_over!"
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_deterministic(self):
        text = "Zürich café 42"
        assert tokenize(text) == tokenize(text)

    @pytest.mark.parametrize("code", range(128))
    def test_each_ascii_char_between_two_letters(self, code):
        text = f"a{chr(code)}B"
        assert tokenize(text) == reference_tokenize(text)
        assert tokenize(text) == (["a" + chr(code).lower() + "b"] if chr(code).isalnum() else ["a", "b"])

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40))
    def test_ascii_text_matches_the_regex(self, text):
        assert text.isascii()
        assert tokenize(text) == reference_tokenize(text)

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(st.text(max_size=40))
    @example("Café_NOIR")
    @example("İstanbul x_y")
    @example("日本語 BM25")
    @example("ǅemal ẞ")
    @example("A\u00a0B")
    def test_any_text_matches_the_regex(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestLoadCorpus:
    def test_jsonl_direct_parse(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"_id":"d1","title":"T","text":"body"}\n')
        corpus = load_corpus(str(path))
        assert corpus["d1"] == Document("d1", "T", "body")

    def test_document_is_a_plain_record_without_a_dict(self):
        doc = Document("d", "T", "body")
        assert [f.name for f in fields(Document)] == ["doc_id", "title", "text"]
        assert doc == Document(doc_id="d", title="T", text="body") and doc != Document("d", "", "body")
        assert repr(doc) == "Document(doc_id='d', title='T', text='body')"
        assert not hasattr(doc, "__dict__")

    def test_search_text_concatenation(self):
        assert Document("d", "T", "body").search_text == "T. body"
        assert Document("d", "", "body").search_text == "body"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(str(path)) == {}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"_id":"d1","text":"x"}\n{"_id":"d1","text":"y"}\n')
        with pytest.raises(DuplicateDocId):
            load_corpus(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"_id":"d1"}\n')
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(str(path))
        assert exc.value.line_no == 1

    def test_tsv_two_and_three_columns(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("d1\tbody one\nd2\tTitle\tbody two\n")
        corpus = load_corpus(str(path))
        assert corpus["d1"] == Document("d1", "", "body one")
        assert corpus["d2"] == Document("d2", "Title", "body two")

    def test_order_independent(self, tmp_path):
        lines = [
            '{"_id":"d1","text":"alpha"}',
            '{"_id":"d2","text":"beta"}',
            '{"_id":"d3","text":"gamma"}',
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("\n".join(lines) + "\n")
        b.write_text("\n".join(reversed(lines)) + "\n")
        assert load_corpus(str(a)) == load_corpus(str(b))


class TestLoadQueries:
    def test_tsv(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\twhat is bm25\n")
        queries = load_queries(str(path))
        assert queries[0].query_id == "q1"
        assert queries[0].text == "what is bm25"

    def test_jsonl(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"_id":"q2","text":"covid"}\n')
        assert load_queries(str(path))[0].text == "covid"

    def test_blank_text(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\t   \n")
        with pytest.raises(MalformedRecord):
            load_queries(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(DuplicateQueryId):
            load_queries(str(path))

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q9\tnine\nq1\tone\nq5\tfive\n")
        assert [q.query_id for q in load_queries(str(path))] == ["q9", "q1", "q5"]


class TestLoadQrels:
    def test_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 2\n")
        assert load_qrels(str(path)) == {"q1": {"d3": 2}}

    def test_zero_relevance_kept(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 0\n")
        assert load_qrels(str(path)) == {"q1": {"d3": 0}}

    def test_negative_relevance(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d3 -1\n")
        with pytest.raises(NegativeRelevance):
            load_qrels(str(path))

    def test_iter_column_ignored(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 Q0 d1 1\nq1 7 d2 1\n")
        assert load_qrels(str(path)) == {"q1": {"d1": 1, "d2": 1}}

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(MalformedRecord):
            load_qrels(str(path))


def _load_bundle_ids(path: str):
    """load_bundle over a one-row bundle whose manifest names path as its id file."""
    manifest = write_embeddings(os.path.join(os.path.dirname(path), "emb"), ["d1"],
                                np.zeros((1, 2), dtype=np.float32))
    with open(manifest, encoding="utf-8") as f:
        meta = json.load(f)
    meta["id_file"] = path
    with open(manifest, "w", encoding="utf-8") as f:
        json.dump(meta, f)
    return load_bundle(manifest)


class TestRecords:
    @pytest.mark.parametrize(
        "reader", [load_corpus, load_queries, load_qrels, read_run_file, _load_bundle_ids]
    )
    def test_non_utf8_is_malformed(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\x80\x81")
        with pytest.raises(MalformedRecord, match="bad.txt is not UTF-8"):
            reader(str(path))

    @pytest.mark.parametrize("loader", [load_corpus, load_queries])
    @pytest.mark.parametrize("line", ["5", "null", "[1]", '"x"'])
    def test_jsonl_line_must_be_an_object(self, tmp_path, loader, line):
        path = tmp_path / "f.jsonl"
        path.write_text('{"_id":"a","text":"x"}\n' + line + "\n")
        with pytest.raises(MalformedRecord) as exc:
            loader(str(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("loader", [load_corpus, load_queries])
    @pytest.mark.parametrize("fields", [
        '"_id": null, "text": "x"',
        '"_id": 1.0, "text": "x"',
        '"_id": true, "text": "x"',
        '"_id": ["a"], "text": "x"',
        '"_id": "a", "text": null',
        '"_id": "a", "text": ["x"]',
        '"_id": "a", "text": 5',
        '"_id": "a", "title": 5, "text": "x"',
        '"_id": "a", "title": false, "text": "x"',
        '"_id": "a", "title": ["t"], "text": "x"',
    ])
    def test_jsonl_field_of_wrong_type_is_malformed(self, tmp_path, loader, fields):
        path = tmp_path / "f.jsonl"
        path.write_text('{"_id": "b", "text": "y"}\n{' + fields + "}\n")
        with pytest.raises(MalformedRecord, match="^line 2: ") as exc:
            loader(str(path))
        assert exc.value.line_no == 2

    def test_jsonl_integer_id_and_null_title(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"_id": 7, "title": null, "text": "x"}\n{"_id": "d8", "title": "T", "text": "y"}\n')
        assert load_corpus(str(path)) == {"7": Document("7", "", "x"), "d8": Document("d8", "T", "y")}
        assert load_queries(str(path)) == [Query("7", "x"), Query("d8", "y")]

    def test_whole_file_fault_names_no_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\x80\x81")
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(str(path))
        assert exc.value.line_no is None
        assert str(exc.value).startswith(f"{path} is not UTF-8")

    @pytest.mark.parametrize("loader, jsonl, tsv", [
        (load_corpus,
         '{"_id":"d1","title":"T1","text":"one"}\n{"_id":"d2","title":"T2","text":"two"}\n',
         "d1\tT1\tone\nd2\tT2\ttwo\n"),
        (load_corpus,
         '{"_id":"d1","text":"one"}\n{"_id":"d2","text":"two"}\n',
         "d1\tone\nd2\ttwo\n"),
        (load_queries,
         '{"_id":"q2","text":"two"}\n{"_id":"q1","text":"one"}\n',
         "q2\ttwo\nq1\tone\n"),
    ])
    def test_jsonl_and_tsv_load_equal(self, tmp_path, loader, jsonl, tsv):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text(jsonl)
        b.write_text(tsv)
        assert loader(str(a)) == loader(str(b))

    def test_format_read_from_first_record(self, tmp_path):
        path = tmp_path / "q"
        path.write_text('\n{"_id":"q1","text":"x"}\n')
        assert load_queries(str(path)) == [Query("q1", "x")]
        path.write_text("q1\t{not json}\n")
        assert load_queries(str(path)) == [Query("q1", "{not json}")]

    def test_tsv_id_starting_with_brace_reads_as_jsonl(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("{d1\tbody\n")
        with pytest.raises(MalformedRecord, match="invalid JSON"):
            load_corpus(str(path))

    @pytest.mark.parametrize("loader, text", [
        (load_corpus, '{"_id":"d1","title":"T","text":"a"}\n\n{"_id":"d2","text":"b"}\n'),
        (load_corpus, "d1\tT\ta\n\nd2\tb\n"),
        (load_queries, "q1\tone\nq2\ttwo\n"),
        (load_qrels, "q1 0 d1 1\nq1 0 d2 0\n"),
        (read_run_file, "q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.25 t\n"),
    ])
    def test_crlf_loads_as_lf(self, tmp_path, loader, text):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert loader(str(crlf)) == loader(str(lf))

    @pytest.mark.parametrize("loader, text", [
        (load_corpus, '{"_id":"d1","text":"a"}\n'),
        (load_corpus, "d1\ta\n"),
        (load_qrels, "q1 0 d1 1\n"),
    ])
    def test_byte_order_mark_skipped(self, tmp_path, loader, text):
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert loader(str(bom)) == loader(str(plain))


def reference_load(loader, path: str):
    """What ``loader`` (load_corpus or load_queries) gives for a JSONL file whose first
    record starts with '{', each line decoded by ``json.loads`` and type-checked with
    ``isinstance``."""
    corpus, queries = {}, []
    with open(path, encoding="utf-8-sig") as f:
        for line_no, line in enumerate(f, 1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or "_id" not in obj or "text" not in obj:
                raise MalformedRecord(line_no, "expected a JSON object with '_id' and 'text'")
            record_id, title, text = obj["_id"], obj.get("title"), obj["text"]
            if isinstance(record_id, bool) or not isinstance(record_id, (str, int)):
                raise MalformedRecord(line_no, "'_id' must be a JSON string or integer")
            if not isinstance(text, str):
                raise MalformedRecord(line_no, "'text' must be a JSON string")
            if title is not None and not isinstance(title, str):
                raise MalformedRecord(line_no, "'title' must be a JSON string or null")
            record_id = str(record_id)
            if loader is load_corpus:
                if not record_id:
                    raise MalformedRecord(line_no, "empty doc_id")
                if record_id in corpus:
                    raise DuplicateDocId(record_id)
                corpus[record_id] = Document(record_id, title or "", text)
                continue
            if not record_id:
                raise MalformedRecord(line_no, "empty query_id")
            if not text.strip():
                raise MalformedRecord(line_no, "blank query text")
            if record_id in {q.query_id for q in queries}:
                raise DuplicateQueryId(record_id)
            queries.append(Query(record_id, text))
    return corpus if loader is load_corpus else queries


def _outcome(load, *args):
    try:
        return "value", load(*args)
    except Exception as exc:  # the exception's type and message are the outcome
        return type(exc), str(exc)


_TEXT = st.sampled_from(["", "  ", "alpha beta", "naïve 𝔘nicode", 'say "hi"\n', "\u2028\x00\\"])
_ID = st.sampled_from(["d1", "d2", "d3", "1"]) | st.integers(0, 9)
_ODD = st.sampled_from(["", None, True, 1.5, float("nan"), float("inf"), -float("inf"), ["x"], {}])
_RECORD = st.fixed_dictionaries({"_id": _ID, "text": _TEXT}, optional={"title": st.none() | _TEXT})
_ODD_RECORD = st.fixed_dictionaries({"_id": _ID | _ODD, "text": _TEXT | _ODD},
                                    optional={"title": _TEXT | _ODD})
_OBJECT_LINE = st.builds(json.dumps, _RECORD | _RECORD | _ODD_RECORD, ensure_ascii=st.booleans())
# JSON whitespace, whitespace JSON does not allow, a byte order mark, data after the object
_BEFORE = st.sampled_from(["", "", "", " ", "\t ", "\x0c", "\u00a0", "\ufeff"])
_AFTER = st.sampled_from(["", "", "", " ", "\t", " 5", "{}", "]"])
_LINE = st.one_of(
    st.tuples(_BEFORE, _OBJECT_LINE, _AFTER).map("".join),
    st.sampled_from(["5", "null", "[1]", '"x"', "NaN", "-Infinity", "{", "{}", "", "  ", "\ufeff{}"]),
)


class TestJsonlDecode:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.builds(json.dumps, _RECORD), st.lists(_LINE, max_size=6))
    def test_loaders_decode_as_json_loads_does(self, tmp_path_factory, first, lines):
        path = str(tmp_path_factory.getbasetemp() / "decode.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join([first, *lines]) + "\n")
        for loader in (load_corpus, load_queries):
            assert _outcome(loader, path) == _outcome(reference_load, loader, path)

    def test_whole_file_is_never_held(self, tmp_path):
        # the file is read one line at a time: a whole-file read and split would raise the
        # peak above what the corpus keeps by about the file's size
        path = tmp_path / "c.jsonl"
        text = " ".join(f"word{i}" for i in range(100))
        path.write_text("".join(json.dumps({"_id": f"d{n:05d}", "title": "T", "text": text}) + "\n"
                                for n in range(3_000)))
        size = path.stat().st_size
        assert size > 2_000_000
        tracemalloc.start()
        try:
            corpus = load_corpus(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 3_000
        assert peak - retained < size / 2


SPECIAL_SCORES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]


def score_bits(entries):
    """Entries with each score as its IEEE bytes, so NaN and the sign of zero compare exactly."""
    return [(doc_id, struct.pack("<d", score)) for doc_id, score in entries]


def full_sort_top_k(doc_ids, scores, rows, k):
    """The full stable sort on descending score that ``_top_k`` must equal."""
    best = rows[np.argsort(-scores[rows], kind="stable")][:k]
    return [(doc_ids[i], float(scores[i])) for i in best.tolist()]


class TestTopK:
    def test_matches_full_stable_sort(self):
        # pools of a few values tie heavily; NaN sorts last, -0.0 ties 0.0
        rng = np.random.default_rng(29)
        pools = [SPECIAL_SCORES, [0.5, 0.25, 0.0, -0.0], list(np.round(rng.normal(size=8), 1)) + [np.nan]]
        for trial in range(240):
            n = int(rng.integers(0, 40))
            scores = rng.choice(pools[trial % 3], size=n)
            if trial % 4 == 3:
                scores = scores.astype(np.float32)
            doc_ids = sorted(f"d{i}" for i in rng.choice(20000, size=n, replace=False))
            # None ranks every row, as np.arange(n) does
            rows = [np.arange(n), None][trial % 5] if trial % 5 < 2 else np.flatnonzero(rng.random(n) < 0.6)
            for k in range(1, n + 3):
                expected = full_sort_top_k(doc_ids, scores, np.arange(n) if rows is None else rows, k)
                assert score_bits(_top_k(doc_ids, scores, rows, k).entries) == score_bits(expected)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SPECIAL_SCORES) | st.floats(width=32), max_size=30), st.data())
    def test_property_matches_full_stable_sort(self, values, data):
        scores = np.array(values, dtype=data.draw(st.sampled_from([np.float64, np.float32])))
        n = len(values)
        doc_ids = np.array([f"d{i:02d}" for i in range(n)], dtype=object)  # an index's id array
        # rows=None ranks every row, as the row list np.arange(n) does
        rows = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.flatnonzero))
        listed = np.arange(n) if rows is None else rows
        k = data.draw(st.integers(1, n + 2))
        ranked = _top_k(doc_ids, scores, rows, k)
        expected = full_sort_top_k(doc_ids, scores, listed, k)
        assert score_bits(ranked.entries) == score_bits(expected)
        by_list = _top_k(doc_ids, scores, listed, k)
        assert ranked.hits[0] is doc_ids
        assert (ranked.hits[1][1:] > ranked.hits[1][:-1]).all()  # selected, not sorted: rows ascending
        for got, want in zip(ranked.hits[1:], by_list.hits[1:]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 20000), max_size=30), st.data())
    def test_lazy_entries_match_a_sort_on_score_then_doc_id(self, numbers, data):
        # ids like "d1000" < "d10000" < "d1001" sort as strings, not as numbers
        doc_ids = np.array(sorted(f"d{n}" for n in numbers), dtype=object)  # an index's id array
        n = len(doc_ids)
        scores = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf])
                                             | st.floats(allow_nan=False), min_size=n, max_size=n)))
        rows = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.flatnonzero))
        k = data.draw(st.integers(1, n + 2))
        ranked = _top_k(doc_ids, scores, rows, k)
        assert ranked._entries is None  # nothing built until the entries are read
        listed = range(n) if rows is None else rows.tolist()
        expected = sorted(((doc_ids[i], float(scores[i])) for i in listed),
                          key=lambda pair: (-pair[1], pair[0]))[:k]
        assert score_bits(ranked.entries) == score_bits(expected)
        assert ranked.entries is ranked.entries  # built once, then kept
        assert ranked.hits[0] is doc_ids


class TestRankedList:
    def test_hits_left_out_of_equality_and_repr(self):
        ranked = _top_k(["a", "b", "c"], np.array([1.0, 3.0, 2.0]), np.arange(3), 2)
        plain = RankedList("", [("b", 3.0), ("c", 2.0)])
        assert ranked == plain and plain == ranked
        assert repr(ranked) == repr(plain) == "RankedList(query_id='', entries=[('b', 3.0), ('c', 2.0)])"
        assert ranked != RankedList("q", [("b", 3.0), ("c", 2.0)])

    def test_default_entries_are_an_empty_list(self):
        first, second = RankedList("q"), RankedList("q")
        first.entries.append(("d1", 1.0))
        assert second.entries == [] and first.hits is None


class TestRunFile:
    def test_format(self, tmp_path):
        path = tmp_path / "run.trec"
        write_run_file(str(path), [RankedList("q1", [("d2", 0.9), ("d5", 0.4)])], "rede")
        assert path.read_text() == "q1 Q0 d2 1 0.900000 rede\nq1 Q0 d5 2 0.400000 rede\n"

    def test_empty_entries_no_lines(self, tmp_path):
        path = tmp_path / "run.trec"
        write_run_file(str(path), [RankedList("q1", [])], "t")
        assert path.read_text() == ""

    def test_unsorted_scores_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        with pytest.raises(PreconditionViolation):
            write_run_file(str(path), [RankedList("q1", [("d1", 0.1), ("d2", 0.9)])], "t")

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        with pytest.raises(PreconditionViolation):
            write_run_file(str(path), [RankedList("q1", [("d1", 0.9), ("d1", 0.1)])], "t")

    def test_nan_score_rejected(self):
        # NaN compares false both ways, so the order check alone would pass these lists
        for entries in ([("d1", 0.2), ("d2", float("nan")), ("d3", 0.9)], [("d1", float("nan"))]):
            with pytest.raises(PreconditionViolation, match="NaN"):
                RankedList("q1", entries).validate()

    def test_round_trip_six_decimals(self, tmp_path):
        runs = [
            RankedList("q1", [("d1", 1.2345678), ("d2", 0.0000014)]),
            RankedList("q2", [("d9", 3.0)]),
        ]
        path = tmp_path / "run.trec"
        write_run_file(str(path), runs, "t")
        loaded = read_run_file(str(path))
        assert [r.query_id for r in loaded] == ["q1", "q2"]
        for orig, back in zip(runs, loaded):
            for (doc_a, score_a), (doc_b, score_b) in zip(orig.entries, back.entries):
                assert doc_a == doc_b
                assert score_b == pytest.approx(score_a, abs=5e-7)
        # a second write of what was loaded is byte-identical
        path2 = tmp_path / "run2.trec"
        write_run_file(str(path2), loaded, "t")
        assert path2.read_text() == path.read_text()

    def test_split_query_block_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 0.9 t\nq2 Q0 d1 1 0.8 t\nq1 Q0 d2 2 0.5 t\n")
        with pytest.raises(MalformedRecord, match="'q1' are not contiguous") as exc:
            read_run_file(str(path))
        assert exc.value.line_no == 3

    def test_bad_tag_rejected_before_writing(self, tmp_path):
        path = tmp_path / "run.trec"
        for tag in ("my run", "", "tab\there"):
            with pytest.raises(ValueError, match="run tag"):
                write_run_file(str(path), [RankedList("q1", [("d1", 0.5)])], tag)
        assert not path.exists()

    @pytest.mark.parametrize("query_id, doc_id", [("q 1", "d1"), ("", "d1"), ("q1", "d\n1"),
                                                  ("q1", "")])
    def test_bad_id_rejected_before_writing(self, tmp_path, query_id, doc_id):
        path = tmp_path / "run.trec"
        with pytest.raises(PreconditionViolation, match="whitespace"):
            write_run_file(str(path), [RankedList(query_id, [(doc_id, 0.5)])], "t")
        assert not path.exists()
