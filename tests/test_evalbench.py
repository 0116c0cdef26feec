import json
import math
import time

import numpy as np
import pytest

from rede.corpus import Query, RankedList
from rede.errors import EmptyRun, PreconditionViolation
from rede.evalbench import (
    evaluate_run,
    export_distill_dataset,
    measure_latency,
    ndcg_at_k,
)
from rede.judge import OracleJudge
from rede.pipeline import SearchTrace, mean_update

from test_pipeline import DOC_VECTORS, QUERY, QUERY_VEC, toy_engine


def ranked(*doc_ids):
    return RankedList("q1", [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)])


class TestNdcg:
    def test_perfect_single_relevant(self):
        assert ndcg_at_k(ranked("d1", "d2"), {"d1": 1}, 10) == 1.0

    def test_single_relevant_at_rank_two(self):
        value = ndcg_at_k(ranked("d9", "d1"), {"d1": 1}, 10)
        assert value == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert value == pytest.approx(0.6309297535714575, abs=1e-9)

    def test_no_positive_qrels(self):
        assert ndcg_at_k(ranked("d1"), {"d1": 0}, 10) == 0.0
        assert ndcg_at_k(ranked("d1"), {}, 10) == 0.0

    def test_empty_ranking_scores_zero(self):
        # a query that returned no results contributes 0 despite positives existing
        assert ndcg_at_k(RankedList("q", []), {"d1": 1}, 10) == 0.0

    def test_graded_ideal_ordering(self):
        # ranking has rel-1 doc first; ideal puts rel-3 first
        qrels = {"a": 1, "b": 3}
        got = ndcg_at_k(ranked("a", "b"), qrels, 10)
        dcg = 1 / math.log2(2) + 3 / math.log2(3)
        idcg = 3 / math.log2(2) + 1 / math.log2(3)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)

    def test_exponential_gain_flag(self):
        qrels = {"a": 1, "b": 3}
        got = ndcg_at_k(ranked("a", "b"), qrels, 10, gain="exp")
        dcg = 1 / math.log2(2) + 7 / math.log2(3)
        idcg = 7 / math.log2(2) + 1 / math.log2(3)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)

    @pytest.mark.parametrize("qrels", [{"a": 1024}, {"a": 1100}, {"a": 1023, "b": 1023, "c": 1023}],
                             ids=["1024", "1100", "sum past range"])
    def test_exponential_gain_past_float_range_is_refused(self, qrels):
        top = max(qrels.values())
        with pytest.raises(PreconditionViolation, match=f"relevance {top} puts the exp-gain ideal DCG"):
            ndcg_at_k(ranked("a", "b", "c"), qrels, 10, gain="exp")
        assert ndcg_at_k(ranked("a", "b", "c"), qrels, 10) == 1.0  # linear gain is unchanged

    @pytest.mark.parametrize("rel", [10**309, 2**1024 - 2**970], ids=["309 digits", "rounds past range"])
    def test_linear_gain_past_float_range_is_refused(self, rel):
        with pytest.raises(PreconditionViolation, match=f"relevance {rel} puts the linear-gain ideal DCG"):
            ndcg_at_k(ranked("a"), {"a": rel}, 10)
        assert ndcg_at_k(ranked("a"), {"a": 2**1024 - 2**971}, 10) == 1.0  # the largest float

    @pytest.mark.parametrize("k, message", [(2.5, "k must be an integer, got 2.5"),
                                            (0, "k must be >= 1, got 0")])
    def test_k_must_be_an_integer_of_at_least_1(self, k, message):
        with pytest.raises(ValueError, match=message):
            ndcg_at_k(ranked("a"), {"a": 1}, k)

    def test_invariant_to_order_below_k(self):
        qrels = {"d1": 1, "d5": 1}
        a = ndcg_at_k(ranked("d1", "d2", "d3", "d4", "d5"), qrels, 2)
        b = ndcg_at_k(ranked("d1", "d2", "d5", "d4", "d3"), qrels, 2)
        assert a == b

    def test_swap_up_never_decreases(self):
        rng = np.random.default_rng(42)
        docs = [f"d{i}" for i in range(12)]
        for _ in range(200):
            rels = {d: int(rng.integers(0, 3)) for d in docs}
            if not any(rels.values()):
                continue
            order = list(rng.permutation(docs))
            i = int(rng.integers(1, len(order)))
            if rels[order[i]] <= rels[order[i - 1]]:
                continue  # only swap a more-relevant doc upward
            before = ndcg_at_k(ranked(*order), rels, 10)
            order[i - 1], order[i] = order[i], order[i - 1]
            after = ndcg_at_k(ranked(*order), rels, 10)
            assert after >= before - 1e-12

    def test_reads_an_unread_result_without_building_its_pairs(self):
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever="hybrid")
        qrels = {"d2": 1, "d4": 2}
        (unread, _), (read, _) = engine.search("hybrid", QUERY), engine.search("hybrid", QUERY)
        read.entries  # this one is scored through its pairs
        values = [ndcg_at_k(unread, qrels, k) for k in (1, 2, 10)]
        assert values == [ndcg_at_k(read, qrels, k) for k in (1, 2, 10)] and 0 < values[-1] < 1
        assert unread._entries is None


class TestEvaluateRun:
    def test_mean(self):
        runs = [
            RankedList("q1", [("d1", 1.0)]),
            RankedList("q2", [("d9", 1.0)]),
        ]
        qrels = {"q1": {"d1": 1}, "q2": {"d2": 1}}
        report = evaluate_run(runs, qrels, k=10)
        assert report.per_query == {"q1": 1.0, "q2": 0.0}
        assert report.mean == 0.5

    def test_query_missing_from_qrels_excluded(self):
        runs = [RankedList("q1", [("d1", 1.0)]), RankedList("qX", [("d1", 1.0)])]
        report = evaluate_run(runs, {"q1": {"d1": 1}}, k=10)
        assert "qX" not in report.per_query
        assert report.mean == 1.0

    def test_empty_run(self):
        with pytest.raises(EmptyRun):
            evaluate_run([], {"q1": {"d1": 1}}, k=10)

    def test_no_result_query_contributes_zero(self):
        runs = [RankedList("q1", [("d1", 1.0)]), RankedList("q2", [])]
        qrels = {"q1": {"d1": 1}, "q2": {"d5": 1}}
        report = evaluate_run(runs, qrels, k=10)
        assert report.per_query == {"q1": 1.0, "q2": 0.0}
        assert report.mean == 0.5

    def test_complete_scores_missing_queries_zero(self):
        runs = [RankedList("q1", [("d1", 1.0)])]
        qrels = {"q1": {"d1": 1}, "q-dropped": {"d5": 1}}
        plain = evaluate_run(runs, qrels, k=10)
        full = evaluate_run(runs, qrels, k=10, complete=True)
        assert plain.mean == 1.0
        assert full.per_query["q-dropped"] == 0.0
        assert full.mean == 0.5

    def test_mean_permutation_invariant(self):
        runs = [RankedList(f"q{i}", [(f"d{i}", 1.0)]) for i in range(5)]
        qrels = {f"q{i}": {f"d{i}": 1} for i in range(5)}
        forward = evaluate_run(runs, qrels).mean
        backward = evaluate_run(list(reversed(runs)), qrels).mean
        assert forward == backward


class TestMeasureLatency:
    @staticmethod
    def fn_with(delay_s, judge_calls=2, generation_calls=0):
        def fn(query):
            time.sleep(delay_s)
            trace = SearchTrace(query.query_id, RankedList(query.query_id, []),
                                judge_calls=judge_calls, generation_calls=generation_calls)
            return RankedList(query.query_id, []), trace
        return fn

    def queries(self, n):
        return [Query(f"q{i}", f"text {i}") for i in range(n)]

    def test_counts_and_samples(self):
        report = measure_latency(self.fn_with(0.0, judge_calls=3, generation_calls=1),
                                 self.queries(3))
        assert len(report.per_query_ms) == 3
        assert report.judge_calls == 9
        assert report.generation_calls == 3

    def test_warmup_excluded(self):
        report = measure_latency(self.fn_with(0.0), self.queries(4), warmup=1)
        assert len(report.per_query_ms) == 3
        assert report.judge_calls == 6  # warmup trace not counted

    @pytest.mark.parametrize("warmup, message", [(0.5, "warmup must be an integer, got 0.5"),
                                                 (-1, "warmup must be >= 0, got -1")])
    def test_warmup_must_be_an_integer_of_at_least_0(self, warmup, message):
        with pytest.raises(ValueError, match=message):
            measure_latency(self.fn_with(0.0), self.queries(2), warmup=warmup)

    @pytest.mark.parametrize("n, warmup", [(1, 1), (2, 5), (0, 0)])
    def test_warmup_that_leaves_nothing_to_measure_is_refused(self, n, warmup):
        calls = []
        with pytest.raises(ValueError, match=f"warmup {warmup} leaves none of the {n} queries to measure"):
            measure_latency(lambda q: calls.append(q), self.queries(n), warmup=warmup)
        assert calls == []  # refused before any query runs

    def test_percentile_ordering(self):
        report = measure_latency(self.fn_with(0.001), self.queries(8))
        assert min(report.per_query_ms) <= report.p50_ms <= report.p95_ms <= max(report.per_query_ms)

    def test_counts_match_gateway_counter(self):
        from rede.gateway import MockGateway
        from rede.judge import LlmJudge
        from test_pipeline import JUDGE_ALL_RELEVANT

        gateway = MockGateway(JUDGE_ALL_RELEVANT)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway)
        report = measure_latency(lambda q: engine.search("rede", q), [QUERY, QUERY])
        assert report.judge_calls == gateway.counter.logprob_calls == 12
        assert report.generation_calls == gateway.counter.text_calls == 0


class TestDistillExport:
    def test_export_filters_and_matches_recompute(self, tmp_path):
        # q1 finds feedback docs; q-empty does not and must be skipped
        qrels = {"q1": {"d2": 1, "d3": 1}}
        engine = toy_engine(OracleJudge(qrels))
        engine.encoder.table["nothing relevant here"] = np.asarray([0.0, 1.0], dtype=np.float32)
        queries = [QUERY, Query("q-empty", "nothing relevant here")]
        out = tmp_path / "distill.jsonl"
        count = export_distill_dataset(engine, queries, str(out))
        assert count == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["query_id"] for r in records] == ["q1"]
        expected = mean_update(QUERY_VEC, [DOC_VECTORS["d2"], DOC_VECTORS["d3"]])
        np.testing.assert_allclose(records[0]["target"], expected, atol=1e-6)
        assert records[0]["text"] == QUERY.text

    def test_empty_query_list(self, tmp_path):
        engine = toy_engine(OracleJudge({}))
        out = tmp_path / "distill.jsonl"
        assert export_distill_dataset(engine, [], str(out)) == 0
        assert out.read_text() == ""
