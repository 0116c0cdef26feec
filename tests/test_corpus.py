import pytest

from rede.corpus import (
    Document,
    RankedList,
    load_corpus,
    load_qrels,
    load_queries,
    read_run_file,
    tokenize,
    write_run_file,
)
from rede.errors import (
    DuplicateDocId,
    DuplicateQueryId,
    MalformedRecord,
    NegativeRelevance,
    PreconditionViolation,
)


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


class TestLoadCorpus:
    def test_jsonl_direct_parse(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"_id":"d1","title":"T","text":"body"}\n')
        corpus = load_corpus(str(path))
        assert corpus["d1"] == Document("d1", "T", "body")

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
        corpus = load_corpus(str(path), "tsv")
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
        queries = load_queries(str(path), "tsv")
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
            load_queries(str(path), "tsv")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(DuplicateQueryId):
            load_queries(str(path), "tsv")

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q9\tnine\nq1\tone\nq5\tfive\n")
        assert [q.query_id for q in load_queries(str(path), "tsv")] == ["q9", "q1", "q5"]


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
