import gc
import json
import math
import random
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import rede.corpus
import rede.dense
import rede.fusion
import rede.pipeline

from rede.corpus import Document, Query, RankedList, load_corpus, write_run_file
from rede.dense import build_dense_index, dense_search, fetch_embedding, load_bundle, write_embeddings
from rede.errors import (
    AllSamplesEmpty,
    ConfigError,
    DimMismatch,
    EmptyRelevantSet,
    IndexMismatch,
    JudgeUnavailable,
    NonFiniteVector,
    PreconditionViolation,
)
from rede.gateway import MockGateway
from rede.hyde import HydeConfig
from rede.judge import LexicalJudge, LlmJudge, OracleJudge, RelevanceJudgment, map_in_order
from rede.pipeline import (
    DEFAULT_POLICIES,
    INITIAL_RETRIEVERS,
    METHODS,
    PipelineConfig,
    SearchEngine,
    mean_update,
    required_components,
    rerank_by_judge,
)
from rede.sparse import build_sparse_index, load_sparse_index, save_sparse_index
from rede.synthetic import TableEncoder, generate_benchmark


def vec(*xs):
    return np.asarray(xs, dtype=np.float32)


class TestUpdates:
    def test_feedback_mean(self):
        out = mean_update(vec(1, 0), [vec(0, 1), vec(1, 1)])
        np.testing.assert_allclose(out, [2 / 3, 2 / 3], atol=1e-7)

    def test_fixed_point(self):
        q = vec(0.3, -0.7)
        np.testing.assert_array_equal(mean_update(q, [q]), q)

    def test_permutation_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            q = rng.normal(size=6).astype(np.float32)
            vectors = [rng.normal(size=6).astype(np.float32) for _ in range(12)]
            base = mean_update(q, vectors)
            shuffled = list(vectors)
            rng.shuffle(shuffled)
            assert mean_update(q, shuffled).tobytes() == base.tobytes()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda dim: st.lists(
        st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
        min_size=2, max_size=12)), st.data())
    def test_permutation_exact_property(self, rows, data):
        q, *vectors = [np.array(row, dtype=np.float32) for row in rows]
        order = data.draw(st.permutations(range(len(vectors))))
        shuffled = [vectors[i] for i in order]
        assert mean_update(q, shuffled).tobytes() == mean_update(q, vectors).tobytes()

    # no shrink phase: shrinking a counterexample to an order of rounding runs for minutes
    @settings(derandomize=True, database=None, max_examples=200, deadline=None, phases=[Phase.generate])
    @given(st.data())
    def test_permutation_exact_with_cancelling_columns(self, data):
        # entries from 2**-60 to 2**84, and negated copies that cancel the large ones: a plain
        # sum's rounding then depends on the order of the vectors
        dim = data.draw(st.integers(1, 6))
        entry = st.builds(math.ldexp, st.integers(-(2**24 - 1), 2**24 - 1), st.integers(-60, 60))
        rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=2, max_size=12))
        q, *vectors = [np.array(row, dtype=np.float32) for row in rows]
        vectors += [-v for v in vectors[:data.draw(st.integers(0, len(vectors)))]]
        order = data.draw(st.permutations(range(len(vectors))))
        shuffled = [vectors[i] for i in order]
        assert mean_update(q, shuffled).tobytes() == mean_update(q, vectors).tobytes()

    def test_matches_per_column_fsum(self):
        # the reference sums numpy column slices; mean_update sums Python floats
        rng = np.random.default_rng(8)
        for _ in range(200):
            scale = 10.0 ** rng.choice([-30, 0, 30])
            q = (rng.normal(size=5) * scale).astype(np.float32)
            vectors = [(rng.normal(size=5) * scale).astype(np.float32) for _ in range(rng.integers(1, 21))]
            stacked = np.vstack([q] + vectors).astype(np.float64)
            totals = np.array([math.fsum(stacked[:, d]) for d in range(stacked.shape[1])])
            expected = (totals / stacked.shape[0]).astype(np.float32)
            assert mean_update(q, vectors).tobytes() == expected.tobytes()

    def test_cancelling_vectors_keep_the_small_one(self):
        # a plain float64 sum loses the 1.0 beside 1e30 and gives [0.]; fsum keeps it
        assert mean_update(vec(0.0), [vec(1e30), vec(1.0), vec(-1e30)]).tolist() == [0.25]

    def test_empty_raises(self):
        with pytest.raises(EmptyRelevantSet):
            mean_update(vec(1, 0), [])

    @pytest.mark.parametrize("query, vectors", [
        (np.zeros(2, np.float32), [np.array([1e39, 0.0]), np.array([-1e39, 0.0])]),  # fsum(inf, -inf)
        (np.array([1e39, 0.0]), [vec(1, 0)]),  # a query past float32's range
        (vec(1, 0), [vec(np.nan, 0)]),
    ], ids=["opposite", "query", "nan"])
    def test_a_vector_not_finite_in_float32_raises_non_finite_vector(self, query, vectors):
        with pytest.raises(NonFiniteVector, match="mean update input holds a NaN or inf"):
            mean_update(query, vectors)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            mean_update(vec(1, 0), [vec(1, 0, 0)])

    def test_hypothetical_mean(self):
        np.testing.assert_allclose(mean_update(vec(0, 2), [vec(2, 0)]), [1, 1], atol=1e-7)

    def test_eight_identical_hypotheticals(self):
        q, v = vec(1, 0, 0), vec(0, 1, 0)
        out = mean_update(q, [v] * 8)
        np.testing.assert_allclose(out, (q + 8 * v) / 9, atol=1e-7)

    def test_avg_prf_midpoint(self):
        out = mean_update(vec(0, 0), [vec(2, 4)])
        np.testing.assert_allclose(out, [1, 2], atol=1e-7)

    def test_avg_prf_fixed_point(self):
        q = vec(0.5, 0.5)
        np.testing.assert_array_equal(mean_update(q, [q, q, q]), q)

    def test_norm_bounded_by_max_input(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            q = rng.normal(size=4).astype(np.float32)
            vectors = [rng.normal(size=4).astype(np.float32) for _ in range(rng.integers(1, 9))]
            out = mean_update(q, vectors)
            max_norm = max(np.linalg.norm(v) for v in [q] + vectors)
            assert np.linalg.norm(out) <= max_norm + 1e-6


class TestRerankByJudge:
    def judgments(self, pairs):
        return [RelevanceJudgment("q", d, p, p > 0.5) for d, p in pairs]

    def test_reorder(self):
        cands = RankedList("q", [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)])
        out = rerank_by_judge(cands, self.judgments([("d1", 0.3), ("d2", 0.9), ("d3", 0.9)]))
        assert out.doc_ids() == ["d2", "d3", "d1"]
        assert out.entries[0][1] == 0.9

    def test_stable_when_all_equal(self):
        cands = RankedList("q", [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)])
        out = rerank_by_judge(cands, self.judgments([("d1", 0.5), ("d2", 0.5), ("d3", 0.5)]))
        assert out.doc_ids() == ["d1", "d2", "d3"]

    def test_unjudged_candidate_scores_zero(self):
        # d2 has no judgment: p = 0.0, after d3 and in first-stage order among the p = 0 docs
        cands = RankedList("q", [("d1", 4.0), ("d2", 3.0), ("d3", 2.0), ("d4", 1.0)])
        out = rerank_by_judge(cands, self.judgments([("d1", 0.0), ("d3", 0.8), ("d4", 0.0)]))
        assert out.entries == [("d3", 0.8), ("d1", 0.0), ("d2", 0.0), ("d4", 0.0)]


# ---------------------------------------------------------------------------
# A hand-built world: 6 docs with 2-dim embeddings, planted query vector.
# ---------------------------------------------------------------------------

DOC_VECTORS = {
    "d1": vec(1.0, 0.0),
    "d2": vec(0.9, 0.1),
    "d3": vec(0.8, 0.3),
    "d4": vec(0.0, 1.0),
    "d5": vec(0.2, 0.9),
    "d6": vec(0.5, 0.5),
}
DOC_TEXTS = {
    "d1": "alpha alpha beta",
    "d2": "alpha beta gamma",
    "d3": "alpha gamma gamma",
    "d4": "delta epsilon zeta",
    "d5": "delta zeta zeta",
    "d6": "beta delta",
}
QUERY = Query("q1", "alpha beta probe")
QUERY_VEC = vec(1.0, 0.0)


def toy_engine(judge, gateway=None, **cfg_kwargs):
    corpus = {d: Document(d, "", DOC_TEXTS[d]) for d in DOC_TEXTS}
    ids = sorted(DOC_VECTORS)
    dense = build_dense_index(ids, np.stack([DOC_VECTORS[d] for d in ids]))
    sparse = build_sparse_index(corpus)
    encoder = TableEncoder({QUERY.text: QUERY_VEC}, 2)
    defaults = dict(initial_retriever="dense", k_initial=6, output_depth=6)
    defaults.update(cfg_kwargs)
    return SearchEngine(
        corpus, sparse, dense, encoder, judge=judge, gateway=gateway,
        config=PipelineConfig(**defaults),
        hyde_config=HydeConfig(n_samples=4, context_docs=0),
    )


def brute_force_ranking(query_vec, feedback_vectors):
    """Mean of vectors then exhaustive inner products, in plain float arithmetic."""
    stack = [np.asarray(query_vec, dtype=np.float64)] + [
        np.asarray(v, dtype=np.float64) for v in feedback_vectors
    ]
    mean = sum(stack) / len(stack)
    scored = sorted(
        ((doc_id, float(np.dot(np.asarray(v, np.float64), mean))) for doc_id, v in DOC_VECTORS.items()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [doc_id for doc_id, _ in scored]


class BrokenJudge:
    def p_relevant(self, query, doc_id, doc_text):
        raise JudgeUnavailable("down")


class TestFeedbackSearch:
    def test_oracle_feedback_matches_brute_force(self):
        qrels = {"q1": {"d2": 1, "d3": 2}}
        engine = toy_engine(OracleJudge(qrels))
        result, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "rede"
        assert trace.path_reason == ""
        assert trace.kstar == 2
        assert result.doc_ids() == brute_force_ranking(QUERY_VEC, [DOC_VECTORS["d2"], DOC_VECTORS["d3"]])

    def test_empty_feedback_encoder_default(self):
        engine = toy_engine(OracleJudge({"q1": {}}))
        result, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "default_encoder"
        plain = dense_search(engine.dense_index, QUERY_VEC, 6)
        assert result.entries == plain.entries

    def test_empty_feedback_none_policy(self):
        engine = toy_engine(OracleJudge({}), default_policy="none")
        result, trace = engine.search("rede", QUERY)
        assert result.entries == []
        assert trace.path_taken == "none"
        assert trace.refined_vector is None

    def test_judge_failure_falls_through_to_default(self):
        engine = toy_engine(BrokenJudge())
        result, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "default_encoder"
        assert trace.path_reason == "judge_unavailable"
        assert result.doc_ids() == dense_search(engine.dense_index, QUERY_VEC, 6).doc_ids()

    def test_none_relevant_falls_through_to_default(self):
        engine = toy_engine(OracleJudge({"q1": {}}))
        result, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "default_encoder"
        assert trace.path_reason == "judge_none_relevant"
        assert trace.to_dict()["path_reason"] == "judge_none_relevant"
        assert result.doc_ids() == dense_search(engine.dense_index, QUERY_VEC, 6).doc_ids()

    @pytest.mark.parametrize("judge, method, policy, path, reason", [
        (OracleJudge({"q1": {"d2": 1}}), "rede", "encoder_only", "rede", ""),
        (OracleJudge({"q1": {}}), "rede", "none", "none", "judge_none_relevant"),
        (BrokenJudge(), "rede", "none", "none", "judge_unavailable"),
        (OracleJudge({"q1": {}}), "rerank", "encoder_only", "rerank", ""),
        (OracleJudge({"q1": {}}), "avgprf", "encoder_only", "avg_prf", ""),
        (OracleJudge({"q1": {}}), "dense", "encoder_only", "dense", ""),
    ])
    def test_path_reason(self, judge, method, policy, path, reason):
        _, trace = toy_engine(judge, default_policy=policy).search(method, QUERY)
        assert (trace.path_taken, trace.path_reason) == (path, reason)

    @pytest.mark.parametrize("method, policy, path", [
        ("rede", "encoder_only", "default_encoder"),
        ("rede", "none", "none"),
        ("rede-hyde-default", "encoder_only", "default_hyde_prf"),
        ("avgprf", "encoder_only", "default_encoder"),
    ])
    def test_empty_first_stage_reason(self, method, policy, path):
        # a sparse first stage matching no query term leaves nothing to judge or average
        query = Query("q1", "nothing matches")
        gateway = MockGateway([{"match_substring": "", "text": "a hypothetical passage"}])
        engine = toy_engine(LlmJudge(gateway), gateway=gateway, initial_retriever="sparse",
                            default_policy=policy)
        engine.encoder.table.update({query.text: QUERY_VEC, "a hypothetical passage": vec(0.4, 0.4)})
        _, trace = engine.search(method, query)
        assert trace.candidates.entries == [] and trace.judge_calls == 0
        assert (trace.path_taken, trace.path_reason) == (path, "no_candidates")

    def test_max_kstar_cap(self):
        qrels = {"q1": {d: 1 for d in DOC_VECTORS}}
        engine = toy_engine(OracleJudge(qrels), max_kstar=2)
        _, trace = engine.search("rede", QUERY)
        assert trace.kstar == 2

    def test_path_iff_kstar(self):
        for qrels, expected_path in (
            ({"q1": {"d2": 1}}, "rede"),
            ({"q1": {}}, "default_encoder"),
        ):
            _, trace = toy_engine(OracleJudge(qrels)).search("rede", QUERY)
            assert (trace.path_taken == "rede") == (trace.kstar >= 1)
            assert trace.path_taken == expected_path

    def test_requires_judge(self):
        engine = toy_engine(None)
        with pytest.raises(ConfigError):
            engine.search("rede", QUERY)


class ScriptedJudge:
    """p per doc id; "fail" raises JudgeUnavailable."""

    def __init__(self, probs):
        self.probs = probs

    def p_relevant(self, query, doc_id, doc_text):
        p = self.probs.get(doc_id, 0.0)
        if p == "fail":
            raise JudgeUnavailable("scripted failure")
        return p


def feedback_docs(monkeypatch, engine):
    """Run rede; return the feedback doc ids in the order their embeddings were fetched."""
    fetched, fetch = [], rede.pipeline.fetch_embedding

    def recording_fetch(index, doc_id):
        fetched.append(doc_id)
        return fetch(index, doc_id)

    with monkeypatch.context() as m:
        m.setattr(rede.pipeline, "fetch_embedding", recording_fetch)
        _, trace = engine.search("rede", QUERY)
    assert trace.kstar == len(fetched)
    return fetched


class TestSelectFeedbackDocs:
    """rede's feedback is the first min(#relevant, max_kstar) docs of the rerank order."""

    PROBS = {"d1": 0.6, "d2": 0.95, "d3": 0.7, "d4": 0.9, "d5": 0.2, "d6": 0.5}

    def test_under_cap(self, monkeypatch):
        engine = toy_engine(ScriptedJudge(self.PROBS), max_kstar=6)
        assert feedback_docs(monkeypatch, engine) == ["d2", "d4", "d3", "d1"]

    def test_over_cap_keeps_highest_p(self, monkeypatch):
        engine = toy_engine(ScriptedJudge(self.PROBS), max_kstar=2)
        assert feedback_docs(monkeypatch, engine) == ["d2", "d4"]

    def test_empty(self, monkeypatch):
        engine = toy_engine(ScriptedJudge({"d1": 0.5, "d2": 0.1}))
        assert feedback_docs(monkeypatch, engine) == []


class TestJudgmentOrderProperty:
    def test_seeded_random_judgments(self, monkeypatch):
        rng = random.Random(4)
        n = 12
        ids = [f"d{i:02d}" for i in range(n)]
        vectors = np.asarray([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in ids], dtype=np.float32)
        corpus = {d: Document(d, "", f"word{i}") for i, d in enumerate(ids)}
        dense = build_dense_index(ids, vectors)
        encoder = TableEncoder({QUERY.text: QUERY_VEC}, 2)
        levels = [0.0, 0.2, 0.5, 0.51, 0.8, 0.8, 1.0, 1.0, "fail", math.nan, 1.5]  # heavy ties
        for _ in range(300):
            probs = {d: rng.choice(levels) for d in ids}
            max_kstar = rng.randint(1, n)
            engine = SearchEngine(
                corpus, None, dense, encoder, judge=ScriptedJudge(probs),
                config=PipelineConfig(initial_retriever="dense", k_initial=n, max_kstar=max_kstar,
                                      output_depth=n),
            )
            candidates = dense_search(dense, QUERY_VEC, n).doc_ids()
            judged = {d for d in candidates if isinstance(probs[d], float) and 0 <= probs[d] <= 1}
            p = {d: probs[d] if d in judged else 0.0 for d in candidates}  # failed or rejected: 0.0
            expected = sorted(candidates, key=lambda d: (-p[d], candidates.index(d)))
            if not judged:
                with pytest.raises(JudgeUnavailable):
                    engine.search("rerank", QUERY)
            else:
                result, _ = engine.search("rerank", QUERY)
                result.validate()
                assert result.entries == [(d, p[d]) for d in expected]
            relevant = [d for d in expected if p[d] > 0.5]
            assert feedback_docs(monkeypatch, engine) == relevant[:max_kstar]


# judge prompts are recognized by the default template's instruction text,
# so a later catch-all entry can serve generation prompts
_JUDGE_MARKER = 'Output "1" if the passage'
JUDGE_ALL_RELEVANT = [
    {"match_substring": _JUDGE_MARKER, "text": "1",
     "first_token_logprobs": {"1": -0.05, "0": -3.2}}
]
JUDGE_NONE_RELEVANT = [
    {"match_substring": _JUDGE_MARKER, "text": "0",
     "first_token_logprobs": {"1": -3.2, "0": -0.05}},
]


class TestCallAccounting:
    def test_rede_path_counts(self):
        gateway = MockGateway(JUDGE_ALL_RELEVANT)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway)
        _, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "rede"
        assert (trace.judge_calls, trace.generation_calls) == (6, 0)
        assert gateway.counter.total == 6

    def test_default_hyde_prf_counts(self):
        script = JUDGE_NONE_RELEVANT + [{"match_substring": "", "text": "a hypothetical passage"}]
        gateway = MockGateway(script)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway)
        engine.encoder.table["a hypothetical passage"] = vec(0.4, 0.4)
        _, trace = engine.search("rede", QUERY, default_policy="hyde_prf")
        assert trace.path_taken == "default_hyde_prf"
        assert trace.path_reason == "judge_none_relevant"
        assert (trace.judge_calls, trace.generation_calls) == (6, 4)
        assert gateway.counter.logprob_calls == 6
        assert gateway.counter.text_calls == 4

    def test_hyde_prf_method_counts(self):
        gateway = MockGateway([{"match_substring": "", "text": "a hypothetical passage"}])
        engine = toy_engine(None, gateway=gateway)
        engine.encoder.table["a hypothetical passage"] = vec(0.4, 0.4)
        _, trace = engine.search("hyde-prf", QUERY)
        assert (trace.judge_calls, trace.generation_calls) == (0, 4)


class CountingLock:
    """Stands in for ``rede.dense._PRODUCT_LOCK``: every inner product is taken under it."""

    def __init__(self):
        self.products, self._lock = 0, threading.Lock()

    def __enter__(self):
        self._lock.acquire()
        self.products += 1

    def __exit__(self, *exc):
        self._lock.release()


@pytest.fixture
def product_lock(monkeypatch):
    lock = CountingLock()
    monkeypatch.setattr(rede.dense, "_PRODUCT_LOCK", lock)
    return lock


class TestOneProductPerQueryVector:
    @pytest.mark.parametrize("retriever", ["dense", "hybrid"])
    def test_default_encoder_search_reuses_the_first_stage_product(self, product_lock, retriever):
        engine = toy_engine(OracleJudge({"q1": {}}), initial_retriever=retriever)
        result, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "default_encoder"
        assert product_lock.products == 1
        assert result.entries == dense_search(engine.dense_index, QUERY_VEC, 6).entries

    def test_refined_vector_search_computes_its_own_product(self, product_lock):
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}))
        _, trace = engine.search("rede", QUERY)
        assert trace.path_taken == "rede"
        assert product_lock.products == 2

    def test_the_memo_ends_with_the_query(self, product_lock):
        engine = toy_engine(OracleJudge({"q1": {}}))
        first, _ = engine.search("rede", QUERY)
        second, _ = engine.search("rede", QUERY)
        assert product_lock.products == 2
        assert first.entries == second.entries

    def test_a_library_search_keeps_no_state(self, product_lock):
        index = toy_engine(None).dense_index
        assert dense_search(index, QUERY_VEC, 6).entries == dense_search(index, QUERY_VEC, 6).entries
        assert product_lock.products == 2


class TestBaselineIdentities:
    def test_always_relevant_equals_avg_prf_bitwise(self):
        engine = toy_engine(LexicalJudge(threshold=0.0))
        rede_out, rede_trace = engine.search("rede", QUERY)
        avg_out, avg_trace = engine.search("avgprf", QUERY)
        assert rede_trace.kstar == 6
        assert rede_out.entries == avg_out.entries
        assert rede_trace.refined_vector.tobytes() == avg_trace.refined_vector.tobytes()

    def test_default_hyde_prf_equals_hyde_prf_method(self):
        hypo = "a hypothetical passage"
        script = JUDGE_NONE_RELEVANT + [{"match_substring": "", "text": hypo}]
        gateway = MockGateway(script)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway)
        engine.encoder.table[hypo] = vec(0.7, 0.2)
        via_default, trace = engine.search("rede", QUERY, default_policy="hyde_prf")
        assert trace.path_taken == "default_hyde_prf"
        direct, _ = engine.search("hyde-prf", QUERY)
        assert via_default.entries == direct.entries

    def test_hyde_search_matches_brute_force(self):
        hypo = "a hypothetical passage"
        gateway = MockGateway([{"match_substring": "", "text": hypo}])
        engine = toy_engine(None, gateway=gateway)
        hypo_vec = vec(0.7, 0.2)
        engine.encoder.table[hypo] = hypo_vec
        result, trace = engine.search("hyde", QUERY)
        assert trace.path_taken == "hyde"
        assert result.doc_ids() == brute_force_ranking(QUERY_VEC, [hypo_vec] * 4)


class TestConcurrency:
    def test_parallel_fanout_matches_serial(self):
        gateway_serial = MockGateway(JUDGE_ALL_RELEVANT)
        gateway_parallel = MockGateway(JUDGE_ALL_RELEVANT)
        serial = toy_engine(LlmJudge(gateway_serial), gateway=gateway_serial)
        parallel = toy_engine(LlmJudge(gateway_parallel), gateway=gateway_parallel,
                              llm_max_workers=8)
        out_s, trace_s = serial.search("rede", QUERY)
        out_p, trace_p = parallel.search("rede", QUERY)
        assert out_s.entries == out_p.entries
        assert trace_s.kstar == trace_p.kstar

    @pytest.mark.parametrize("script, calls", [
        (JUDGE_ALL_RELEVANT, (5, 0)),
        (JUDGE_NONE_RELEVANT + [{"match_substring": "", "text": "a hypothetical passage"}], (5, 4)),
    ])
    def test_concurrent_queries_count_their_own_calls(self, script, calls):
        gateway = MockGateway(script, logprob_delay_s=0.002, text_delay_s=0.002)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway, k_initial=5, llm_max_workers=4)
        engine.encoder.table["a hypothetical passage"] = vec(0.4, 0.4)
        queries = [Query(f"q{i}", QUERY.text) for i in range(20)]
        traces = [trace for _, trace in map_in_order(
            lambda q: engine.search("rede", q, default_policy="hyde_prf"), queries, 4)]
        assert [(t.judge_calls, t.generation_calls) for t in traces] == [calls] * 20
        assert sum(t.llm_calls for t in traces) == gateway.counter.total == 20 * sum(calls)


class TestRerankSearch:
    def test_one_failed_judge_call_keeps_the_query(self):
        class HalfBroken:
            def p_relevant(self, query, doc_id, doc_text):
                if doc_id == "d4":
                    raise JudgeUnavailable("token-less reply")
                return 1.0 if doc_id == "d5" else 0.0

        result, trace = toy_engine(HalfBroken()).search("rerank", QUERY)
        candidate_order = trace.candidates.doc_ids()
        assert result.doc_ids() == ["d5"] + [d for d in candidate_order if d != "d5"]
        assert "d4" not in [j.doc_id for j in trace.judgments]

    def test_reply_without_logprobs_keeps_the_query(self):
        # d3's reply has no logprobs and d5's an empty map: both are skipped and score p = 0.0
        script = []
        for d, text in DOC_TEXTS.items():
            relevant = d in ("d1", "d2")
            script.append({"match_substring": f"Document: {text}\n", "text": "1",
                           "first_token_logprobs": {"1": -0.05, "0": -3.2} if relevant
                           else {"1": -3.2, "0": -0.05}})
        del script[2]["first_token_logprobs"]  # d3
        script[4]["first_token_logprobs"] = {}  # d5
        gateway = MockGateway(script)
        engine = toy_engine(LlmJudge(gateway), gateway=gateway)
        result, trace = engine.search("rerank", QUERY)
        result.validate()
        assert {"d3", "d5"}.isdisjoint(j.doc_id for j in trace.judgments)
        order = trace.candidates.doc_ids()
        assert result.doc_ids() == ([d for d in order if d in ("d1", "d2")]
                                    + [d for d in order if d in ("d4", "d6")]
                                    + [d for d in order if d in ("d3", "d5")])
        assert [score for d, score in result.entries if d in ("d3", "d5")] == [0.0, 0.0]
        assert gateway.counter.attempts == 6  # a logprob-less reply is not retried
        out, trace = engine.search("rede", QUERY)
        out.validate()
        assert trace.path_taken == "rede" and trace.kstar == 2

    def test_custom_judge_nan_is_skipped(self):
        class NanJudge:
            def p_relevant(self, query, doc_id, doc_text):
                return {"d1": 0.2, "d2": math.nan, "d3": 0.9, "d4": 0.5}.get(doc_id, 0.1)

        result, trace = toy_engine(NanJudge()).search("rerank", QUERY)
        result.validate()
        assert all(0.0 <= score <= 1.0 for _, score in result.entries)
        assert "d2" not in [j.doc_id for j in trace.judgments]
        assert dict(result.entries)["d2"] == 0.0

    def test_all_judge_calls_failed_raises(self):
        class Broken:
            def p_relevant(self, query, doc_id, doc_text):
                raise JudgeUnavailable("down")

        with pytest.raises(JudgeUnavailable):
            toy_engine(Broken()).search("rerank", QUERY)

    def test_rerank_orders_by_p(self):
        qrels = {"q1": {"d4": 1, "d5": 1}}
        engine = toy_engine(OracleJudge(qrels))
        result, trace = engine.search("rerank", QUERY)
        assert trace.path_taken == "rerank"
        # relevant docs (p=1) first in original candidate order, then the rest
        candidate_order = trace.candidates.doc_ids()
        relevant = [d for d in candidate_order if d in ("d4", "d5")]
        others = [d for d in candidate_order if d not in ("d4", "d5")]
        assert result.doc_ids() == relevant + others


# required_components(method, retriever, policy) for every method, pinned so that an edit of the
# method table cannot change what a method needs: one row of cells per initial retriever (sparse,
# dense, hybrid), one cell per default policy (encoder_only, hyde_prf, none), one letter per
# component in the order returned: S sparse_index, D dense_index, E encoder, J judge, G gateway
REQUIRED = {
    "bm25": (("S", "S", "S"), ("S", "S", "S"), ("S", "S", "S")),
    "dense": (("DE", "DE", "DE"), ("DE", "DE", "DE"), ("DE", "DE", "DE")),
    "hybrid": (("SDE", "SDE", "SDE"), ("SDE", "SDE", "SDE"), ("SDE", "SDE", "SDE")),
    "avgprf": (("SDE", "SDE", "SDE"), ("DE", "DE", "DE"), ("SDE", "SDE", "SDE")),
    "hyde": (("DEG", "DEG", "DEG"), ("DEG", "DEG", "DEG"), ("DEG", "DEG", "DEG")),
    "hyde-prf": (("SDEG", "SDEG", "SDEG"), ("DEG", "DEG", "DEG"), ("SDEG", "SDEG", "SDEG")),
    "rede": (("SDEJ", "SDEJG", "SDEJ"), ("DEJ", "DEJG", "DEJ"), ("SDEJ", "SDEJG", "SDEJ")),
    "rede-hyde-default": (("SDEJG", "SDEJG", "SDEJG"), ("DEJG", "DEJG", "DEJG"),
                          ("SDEJG", "SDEJG", "SDEJG")),
    "rerank": (("SJ", "SJ", "SJ"), ("DEJ", "DEJ", "DEJ"), ("SDEJ", "SDEJ", "SDEJ")),
}
_COMPONENT = {"S": "sparse_index", "D": "dense_index", "E": "encoder", "J": "judge", "G": "gateway"}


class TestRequiredComponents:
    def test_every_combination_is_pinned(self):
        assert tuple(REQUIRED) == METHODS
        for method, rows in REQUIRED.items():
            for retriever, cells in zip(INITIAL_RETRIEVERS, rows, strict=True):
                for policy, cell in zip(DEFAULT_POLICIES, cells, strict=True):
                    assert required_components(method, retriever, policy) == [
                        _COMPONENT[c] for c in cell], (method, retriever, policy)

    @pytest.mark.parametrize("method, missing", [
        ("bm25", "sparse_index"),
        ("dense", "dense_index"),
        ("hybrid", "sparse_index"),
        ("hybrid", "dense_index"),
        ("rede", "dense_index"),
        ("avgprf", "dense_index"),
        ("dense", "encoder"),
        ("hybrid", "encoder"),
        ("rede", "encoder"),
        ("rede", "judge"),
        ("rerank", "judge"),
        ("rerank", "sparse_index"),
        ("hyde", "gateway"),
        ("hyde-prf", "gateway"),
        ("rede-hyde-default", "gateway"),
    ])
    def test_missing_component_raises_config_error(self, method, missing):
        # a sparse first stage, so dense_index is needed only where a method reads embeddings
        gateway = MockGateway([{"match_substring": "", "text": "a hypothetical passage"}])
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), gateway=gateway,
                            initial_retriever="sparse")
        setattr(engine, missing, None)
        with pytest.raises(ConfigError, match=f"requires an? {missing.replace('_', ' ')}"):
            engine.search(method, QUERY)
        assert gateway.counter.total == 0  # checked before any stage runs

    def test_gateway_needed_only_where_text_is_generated(self):
        engine = toy_engine(OracleJudge({"q1": {}}), initial_retriever="sparse")  # no gateway
        for method in ("bm25", "dense", "hybrid", "avgprf", "rede", "rerank"):
            engine.search(method, QUERY)
        with pytest.raises(ConfigError, match="gateway"):
            engine.search("rede", QUERY, default_policy="hyde_prf")
        engine.dense_index = None  # a rerank over a sparse first stage reads no embeddings
        assert engine.search("rerank", QUERY)[1].path_taken == "rerank"


class TestNonFiniteQueryVector:
    @pytest.mark.parametrize("retriever, method", [
        ("dense", "dense"), ("dense", "hybrid"), ("dense", "avgprf"), ("hybrid", "avgprf"),
        ("sparse", "avgprf"), ("hybrid", "rede"), ("sparse", "rede"), ("hybrid", "rerank"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raises_typed_error(self, retriever, method, bad):
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever=retriever)
        engine.encoder = TableEncoder({QUERY.text: vec(bad, 0.0)}, 2)
        with pytest.raises(NonFiniteVector):
            engine.search(method, QUERY)

    @pytest.mark.parametrize("method", ["dense", "hybrid"])
    def test_overflowing_inner_product_raises_typed_error(self, method):
        # every vector is finite, but the float32 matmul overflows to inf and inf - inf
        ids = ["d1", "d2"]
        corpus = {d: Document(d, "", "alpha beta") for d in ids}
        dense = build_dense_index(ids, np.array([[1e30, -1e30], [1.0, 0.0]], dtype=np.float32))
        engine = SearchEngine(corpus, build_sparse_index(corpus), dense,
                              TableEncoder({QUERY.text: vec(1e30, 1e30)}, 2),
                              config=PipelineConfig(initial_retriever="dense", output_depth=2))
        with pytest.raises(NonFiniteVector):
            engine.search(method, QUERY)


class TestBlankQuery:
    @pytest.mark.parametrize("method", rede.pipeline.METHODS)
    @pytest.mark.parametrize("text", ["", "  "])
    def test_blank_text_raises_precondition_violation(self, method, text):
        # the rule load_queries applies to files; every vector and reply exists, so only
        # the check itself can stop these searches
        gateway = MockGateway(JUDGE_ALL_RELEVANT + [{"match_substring": "", "text": "a hypothetical passage"}])
        engine = toy_engine(LlmJudge(gateway), gateway=gateway, initial_retriever="hybrid")
        engine.encoder.table.update({text: QUERY_VEC, "a hypothetical passage": vec(0.4, 0.4)})
        with pytest.raises(PreconditionViolation, match="blank query text"):
            engine.search(method, Query("q1", text))
        assert gateway.counter.total == 0  # checked before any stage runs


@pytest.mark.parametrize("text", [None, 5])
def test_hyde_sample_that_is_not_a_string_is_retried_once_then_dropped(text, text_sequence_gateway):
    gateway = MockGateway([{"match_substring": "", "text": text}])
    engine = toy_engine(OracleJudge({}), gateway=gateway)
    with pytest.raises(AllSamplesEmpty, match="all 4 samples were empty or not text for query q1"):
        engine.search("hyde", QUERY)
    assert gateway.counter.total == 8  # each sample retried once
    # of the 4 samples, 0 is kept on its retry, 1 kept, 2 dropped, 3 kept on its retry
    engine.gateway = text_sequence_gateway([text, "first", "second", text, text, text, "third"])
    samples = {"first": vec(0.0, 1.0), "second": vec(0.5, 0.5), "third": vec(0.9, 0.1)}
    encoded = []

    class RecordingEncoder(TableEncoder):
        def encode(self, texts):
            encoded.append(texts)
            return super().encode(texts)

    engine.encoder = RecordingEncoder({QUERY.text: QUERY_VEC, **samples}, 2)
    _, trace = engine.search("hyde", QUERY)
    assert encoded[-1] == ["first", "second", "third"]
    assert trace.refined_vector.tobytes() == mean_update(QUERY_VEC, list(samples.values())).tobytes()


class ScriptedEncoder:
    """Encodes the query as QUERY_VEC, or as query_reply, and any other batch as sample_reply."""

    def __init__(self, sample_reply, query_reply=None):
        self.sample_reply = np.asarray(sample_reply, dtype=np.float32)
        self.query_reply = np.array([QUERY_VEC]) if query_reply is None else query_reply  # as given

    def encode(self, texts):
        return self.query_reply if texts == [QUERY.text] else self.sample_reply


def hyde_engine(encoder):
    script = JUDGE_NONE_RELEVANT + [{"match_substring": "", "text": "a hypothetical passage"}]
    gateway = MockGateway(script)
    engine = toy_engine(LlmJudge(gateway), gateway=gateway)
    engine.encoder = encoder
    return engine


HYDE_SEARCHES = [("hyde", None), ("hyde-prf", None), ("rede", "hyde_prf")]


class TestEncoderBoundary:
    @pytest.mark.parametrize("method, policy", HYDE_SEARCHES)
    def test_opposite_infinite_samples_raise_typed_error(self, method, policy):
        # +inf and -inf in one dimension made mean_update's fsum raise an untyped ValueError
        engine = hyde_engine(ScriptedEncoder([[np.inf, 0.0], [-np.inf, 0.0]] * 2))
        with pytest.raises(NonFiniteVector):
            engine.search(method, QUERY, default_policy=policy)

    @pytest.mark.parametrize("method, policy", HYDE_SEARCHES)
    def test_float64_samples_past_float32_range_raise_typed_error(self, method, policy):
        # finite in float64, ±inf in the float32 the engine computes in: mean_update's fsum
        # of +inf and -inf raised an untyped ValueError
        encoder = ScriptedEncoder([[0.5, 0.5]] * 4)
        encoder.sample_reply = np.array([[1e39, 0.0], [-1e39, 0.0], [0.5, 0.5], [0.5, 0.5]])
        engine = hyde_engine(encoder)
        with pytest.raises(NonFiniteVector, match="encoder reply holds a NaN or inf"):
            engine.search(method, QUERY, default_policy=policy)

    @pytest.mark.parametrize("method, policy", HYDE_SEARCHES)
    @pytest.mark.parametrize("reply", [
        [[0.5, 0.5]] * 3,  # one vector short: a sample would be dropped from the mean
        [[0.5, 0.5, 0.0]] * 4,  # not the index's dim
        [0.5, 0.5, 0.5, 0.5],  # not one vector per text
    ], ids=["short", "wrong dim", "flat"])
    def test_sample_reply_of_the_wrong_shape_raises_dim_mismatch(self, method, policy, reply):
        engine = hyde_engine(ScriptedEncoder(reply))
        with pytest.raises(DimMismatch):
            engine.search(method, QUERY, default_policy=policy)

    @pytest.mark.parametrize("method", ["dense", "hybrid", "avgprf", "rede", "hyde"])
    @pytest.mark.parametrize("reply", [[[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]],
                             ids=["wrong dim", "two vectors", "flat"])
    def test_query_reply_of_the_wrong_shape_raises_dim_mismatch(self, method, reply):
        engine = hyde_engine(ScriptedEncoder([[0.5, 0.5]] * 4, query_reply=reply))
        with pytest.raises(DimMismatch):
            engine.search(method, QUERY)

    def test_good_replies_pass_unchanged(self):
        engine = hyde_engine(ScriptedEncoder([[0.7, 0.2]] * 4))
        result, trace = engine.search("hyde", QUERY)
        assert result.doc_ids() == brute_force_ranking(QUERY_VEC, [vec(0.7, 0.2)] * 4)
        assert trace.refined_vector.tobytes() == mean_update(QUERY_VEC, [vec(0.7, 0.2)] * 4).tobytes()


# Values a cast to float would take without a word: a complex by its real part, a numeric string
# as its number; an object array ended in np.isfinite's TypeError, and at the two builders a
# complex list in a TypeError from the cast.
NOT_REAL = {
    "complex": np.array([1 + 2j, 0.5]),
    "complex list": [1 + 2j, 0.5],
    "strings": np.array(["1.0", "0.5"]),
    "bytes": np.array([b"1.0", b"0.5"]),
    "objects": np.array([1.0, None], dtype=object),
    "one string": "abc",
}


# each vector boundary, and the name its errors give the vector
BOUNDARIES = {"encoder reply": "encoder reply", "query vector": "query vector",
              "mean update input": "mean update input", "mean update query": "mean update input",
              "build_dense_index": "document vectors", "write_embeddings": "document vectors"}


def _boundary_call(boundary, values, out):
    """A call that hands values to the named vector boundary; write_embeddings writes to out."""
    if boundary == "encoder reply":
        engine = hyde_engine(ScriptedEncoder([[0.5, 0.5]] * 4, query_reply=[values]))
        return lambda: engine.search("dense", QUERY)
    return {"query vector": lambda: dense_search(build_dense_index(["d1", "d2"], np.eye(2)), values, 2),
            "mean update input": lambda: mean_update(np.ones(2), [values]),
            "mean update query": lambda: mean_update(values, [vec(1, 0)]),
            "build_dense_index": lambda: build_dense_index(["d1", "d2"], values),
            "write_embeddings": lambda: write_embeddings(str(out), ["d1", "d2"], values)}[boundary]


@pytest.mark.parametrize("name", NOT_REAL)
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_a_vector_not_of_real_numbers_raises_non_finite_vector(tmp_path, boundary, name):
    values, out = NOT_REAL[name], tmp_path / "bundle"
    what = BOUNDARIES[boundary]
    with pytest.raises(NonFiniteVector, match=re.escape(f"{what} has dtype {np.asarray(values).dtype}")):
        _boundary_call(boundary, values, out)()
    assert not out.exists()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_a_ragged_vector_raises_dim_mismatch(tmp_path, boundary):
    # numpy's untyped ValueError ("inhomogeneous shape") at every boundary
    out = tmp_path / "bundle"
    with pytest.raises(DimMismatch, match=f"^{re.escape(BOUNDARIES[boundary])} is ragged"):
        _boundary_call(boundary, [[0.5], [0.5, 0.5]], out)()
    assert not out.exists()


class Float64Encoder:
    """The wrapped encoder's vectors, exactly, as float64."""

    def __init__(self, encoder):
        self.encoder = encoder

    def encode(self, texts):
        return self.encoder.encode(texts).astype(np.float64)


class TestFloat64Encoder:
    @pytest.mark.parametrize("method", ["dense", "hybrid", "rede"])
    def test_run_and_traces_equal_the_float32_encoders(self, tmp_path, method):
        # the product runs in the index's float32, so the encoder's dtype changes no bit
        bench = generate_benchmark(seed=5, n_docs=300, n_queries=8)
        sparse, dense = build_sparse_index(bench.corpus), build_dense_index(bench.doc_ids, bench.doc_vectors)
        outputs = []
        for encoder in (bench.encoder, Float64Encoder(bench.encoder)):
            engine = SearchEngine(bench.corpus, sparse, dense, encoder, judge=OracleJudge(bench.qrels),
                                  config=PipelineConfig(initial_retriever="hybrid", k_initial=30,
                                                        output_depth=100))
            results = [engine.search(method, q) for q in bench.queries]
            run = tmp_path / "run.trec"
            write_run_file(str(run), [r for r, _ in results], method)
            # json.dumps writes each float's repr: the exact value, the sign of zero included
            outputs.append((run.read_text(), json.dumps([r.entries for r, _ in results]),
                            json.dumps([{k: v for k, v in t.to_dict().items() if k != "wall_times"}
                                        for _, t in results])))
        assert outputs[1] == outputs[0]


def counted_argsorts(monkeypatch) -> list[int]:
    """Give rede.corpus a numpy whose every argsort appends its input's length to the list returned."""
    sorts = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(a, *args, **kwargs):
            sorts.append(len(a))
            return np.argsort(a, *args, **kwargs)

    monkeypatch.setattr(rede.corpus, "np", CountingNumpy())
    return sorts


class TestEngineRowSpace:
    def test_hybrid_candidates_take_the_row_path(self, monkeypatch):
        # indexes built apart hold equal but distinct id lists; the engine makes them one
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever="hybrid")
        shared = []

        def spy(sparse_results, dense_results, alpha, k, fuse=rede.fusion.fuse):
            shared.append(sparse_results.hits[0] is dense_results.hits[0] is engine.dense_index.id_array)
            return fuse(sparse_results, dense_results, alpha, k)

        monkeypatch.setattr(rede.fusion, "fuse", spy)
        _, trace = engine.search("rerank", QUERY)
        run, _ = engine.search("hybrid", QUERY)
        assert shared == [True, True]
        for ranked in (trace.candidates, run):
            assert ranked.hits[0] is engine.sparse_index.id_array is engine.dense_index.id_array
        assert engine.sparse_index.doc_ids is engine.dense_index.ids

    def test_hybrid_legs_never_build_their_pairs(self, monkeypatch):
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever="hybrid")
        legs = []

        def spy(sparse_results, dense_results, alpha, k, fuse=rede.fusion.fuse):
            legs.extend((sparse_results, dense_results))
            return fuse(sparse_results, dense_results, alpha, k)

        monkeypatch.setattr(rede.fusion, "fuse", spy)
        for method in ("hybrid", "rede"):
            engine.search(method, QUERY)
        assert len(legs) == 4
        assert all(leg.hits is not None and leg._entries is None for leg in legs)

    def test_only_the_lists_search_returns_are_sorted(self, monkeypatch):
        # the hybrid legs are selected, rows ascending, over the engine's one id array and fused
        # as rows; only the lists search returns (candidates, results) are ordered, inside search
        bench = generate_benchmark(seed=5, n_docs=300, n_queries=6)
        engine = SearchEngine(bench.corpus, build_sparse_index(bench.corpus),
                              build_dense_index(bench.doc_ids, bench.doc_vectors), bench.encoder,
                              judge=OracleJudge(bench.qrels),
                              config=PipelineConfig(initial_retriever="hybrid", k_initial=30, output_depth=100))
        legs = []

        def spy(sparse_results, dense_results, alpha, k, fuse=rede.fusion.fuse):
            legs.extend((sparse_results, dense_results))
            return fuse(sparse_results, dense_results, alpha, k)

        sorts = counted_argsorts(monkeypatch)
        monkeypatch.setattr(rede.fusion, "fuse", spy)
        for method, lists in (("hybrid", 1), ("rede", 2)):
            for query in bench.queries:
                sorts.clear()
                engine.search(method, query)
                assert len(sorts) == lists, (method, query.query_id, sorts)
        assert len(legs) == 4 * len(bench.queries)
        for leg in legs:
            ids, rows, _ = leg.hits
            assert len(rows) == 100 and (rows[1:] > rows[:-1]).all()  # pool depth 100 of 300 rows
            assert ids is engine.sparse_index.id_array is engine.dense_index.id_array

    @pytest.mark.parametrize("retriever, method", [("hybrid", m) for m in ("bm25", "dense", "hybrid")]
                             + [(r, m) for r in INITIAL_RETRIEVERS for m in ("rede", "rerank")])
    def test_search_orders_its_own_lists(self, monkeypatch, retriever, method):
        # a caller timing search pays for its results' sorts inside the call; the pairs wait for a read
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever=retriever)
        run, trace = engine.search(method, QUERY)
        sorts = counted_argsorts(monkeypatch)
        lists = [(ranked, ranked._ranking) for ranked in (run, trace.candidates)]
        for ranked, (ids, scores) in lists:
            assert ranked._entries is None and ids
            assert all(type(d) is str for d in ids) and all(type(x) is float for x in scores)
        for ranked, (ids, scores) in lists:
            assert ranked.entries == list(zip(ids, scores))
        assert sorts == []

    @pytest.mark.parametrize("method", ["hybrid", "rede"])
    def test_a_held_result_adds_few_tracked_objects(self, method):
        # a held 1,000-deep result keeps two plain lists, not 1,000 tracked (doc_id, score) tuples,
        # whose allocation sets off garbage collections
        bench = generate_benchmark(seed=5, n_docs=1500, n_queries=4)
        engine = SearchEngine(bench.corpus, build_sparse_index(bench.corpus),
                              build_dense_index(bench.doc_ids, bench.doc_vectors), bench.encoder,
                              judge=OracleJudge(bench.qrels),
                              config=PipelineConfig(initial_retriever="hybrid", output_depth=1000))
        # a query the judge finds relevant documents for; anything built once per engine is built here
        query = next(q for q in bench.queries if engine.search(method, q)[1].path_taken == method)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            held = engine.search(method, query)
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert len(held[0].doc_ids()) == 1000 and held[1].path_taken == method
        assert added < 100, added

    @pytest.mark.parametrize("case", ["extra bundle id", "missing id", "renamed bundle id",
                                      "sparse ids differ", "sparse ids out of order"])
    def test_index_ids_must_be_the_corpus_ids(self, case):
        corpus = {d: Document(d, "", DOC_TEXTS[d]) for d in DOC_TEXTS}
        ids = sorted(DOC_VECTORS)
        vectors = np.stack([DOC_VECTORS[d] for d in ids])
        sparse = build_sparse_index(corpus)
        if case == "extra bundle id":
            dense, diagnostic = build_dense_index(ids + ["zz"], np.vstack([vectors, vec(0, 1)])), "'zz'"
        elif case == "missing id":
            dense, diagnostic = build_dense_index(ids[:-1], vectors[:-1]), "'d6'"
        elif case == "renamed bundle id":
            dense, diagnostic = build_dense_index(ids[:-1] + ["zz"], vectors), "'zz'"
        elif case == "sparse ids differ":
            dense, diagnostic = build_dense_index(ids, vectors), "sparse index"
            sparse = build_sparse_index({d: doc for d, doc in corpus.items() if d != "d3"})
        else:
            dense, diagnostic = build_dense_index(ids, vectors), "ascending"
            # the index is frozen, and its pairs are an init-only field that replace must be given
            sparse = replace(sparse, doc_ids=sparse.doc_ids[::-1],
                             pairs=np.stack((sparse.rows, sparse.tfs), axis=1))
        with pytest.raises(IndexMismatch, match=diagnostic):
            SearchEngine(corpus, sparse, dense, TableEncoder({}, 2))


def _read_path_engine(tmp_path, bench, **kwargs):
    """The engine over files written from bench and read back by the read path."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps({"_id": d, "title": doc.title, "text": doc.text}) + "\n"
                                   for d, doc in bench.corpus.items()))
    save_sparse_index(build_sparse_index(bench.corpus), str(tmp_path / "sparse.idx"))
    manifest = write_embeddings(str(tmp_path / "emb"), bench.doc_ids, bench.doc_vectors)
    corpus = load_corpus(str(corpus_path))
    return SearchEngine(corpus, load_sparse_index(str(tmp_path / "sparse.idx")), load_bundle(manifest),
                        bench.encoder, **kwargs)


class TestNoPerDocumentMaps:
    """The engine keeps its corpus and builds no map with an entry per document: a query reads
    its candidates' texts from the corpus and finds its feedback rows by bisection."""

    def test_no_method_builds_a_per_document_map(self, tmp_path):
        bench = generate_benchmark(seed=5, n_docs=300, n_queries=4)
        for i, doc_id in enumerate(bench.doc_ids[::7]):
            bench.corpus[doc_id].title = f"title {i}"
        hypo = "a hypothetical passage"
        bench.encoder.table[hypo] = vec(*([0.25] * 16))
        gateway = MockGateway([{"match_substring": "", "text": hypo}])
        engine = _read_path_engine(
            tmp_path, bench, judge=OracleJudge(bench.qrels), gateway=gateway,
            config=PipelineConfig(initial_retriever="hybrid", k_initial=20, output_depth=50),
            hyde_config=HydeConfig(n_samples=2))
        paths = {}
        for method in METHODS:
            result, trace = engine.search(method, bench.queries[0])
            result.validate()
            paths[method] = (trace.path_taken, trace.kstar)
        assert paths["rede"][0] == "rede" and paths["rede"][1] > 0  # feedback rows were fetched
        assert gateway.counter.total > 0  # the hyde rows generated over the candidates' texts
        assert "doc_texts" not in vars(engine)
        assert "id_to_row" not in vars(engine.dense_index)

    def test_engine_construction_retains_no_memory_per_document(self):
        def retained(n_docs):
            bench = generate_benchmark(seed=5, n_docs=n_docs, n_queries=2)
            sparse = build_sparse_index(bench.corpus)
            dense = build_dense_index(bench.doc_ids, bench.doc_vectors)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                engine = SearchEngine(bench.corpus, sparse, dense, bench.encoder)
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert engine.corpus is bench.corpus
            return after - before

        assert retained(4000) - retained(1000) < 4096

    def test_the_inspection_maps_agree_with_the_read_path(self, tmp_path):
        # perfbench reads both maps: doc_texts for the modelled judge, id_to_row for stored rows
        bench = generate_benchmark(seed=6, n_docs=60, n_queries=2)
        for doc_id in bench.doc_ids[::3]:
            bench.corpus[doc_id].title = "a title"
        engine = _read_path_engine(tmp_path, bench)
        dense = engine.dense_index
        assert "doc_texts" not in vars(engine) and "id_to_row" not in vars(dense)
        assert engine.doc_texts == {d: doc.search_text for d, doc in engine.corpus.items()}
        assert engine.doc_texts is engine.doc_texts
        assert engine.doc_texts[bench.doc_ids[0]] == f"a title. {bench.corpus[bench.doc_ids[0]].text}"
        assert dense.id_to_row == {d: row for row, d in enumerate(bench.doc_ids)}
        for doc_id, row in dense.id_to_row.items():
            assert np.shares_memory(fetch_embedding(dense, doc_id), dense.vectors[row])


class TestTraces:
    def test_wall_times_present(self):
        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}))
        _, trace = engine.search("rede", QUERY)
        for stage in ("encode", "initial_retrieval", "judge", "update", "final_search", "total"):
            assert stage in trace.wall_times
            assert trace.wall_times[stage] >= 0

    def test_query_encoded_only_where_a_dense_search_reads_it(self):
        class CountingEncoder(TableEncoder):
            calls = 0

            def encode(self, texts):
                self.calls += 1
                return super().encode(texts)

        for retriever, method, calls in (("sparse", "rerank", 0), ("sparse", "bm25", 0),
                                         ("sparse", "rede", 1), ("dense", "rerank", 1),
                                         ("hybrid", "rerank", 1)):
            engine = toy_engine(OracleJudge({"q1": {"d2": 1}}), initial_retriever=retriever)
            engine.encoder = CountingEncoder({QUERY.text: QUERY_VEC}, 2)
            _, trace = engine.search(method, QUERY)
            assert engine.encoder.calls == calls
            assert ("encode" in trace.wall_times) == (calls == 1)

    def test_to_dict_round_trips_json(self):
        import json

        engine = toy_engine(OracleJudge({"q1": {"d2": 1}}))
        _, trace = engine.search("rede", QUERY)
        obj = json.loads(json.dumps(trace.to_dict()))
        assert obj["path_taken"] == "rede"
        assert obj["path_reason"] == ""
        assert obj["kstar"] == 1
        assert len(obj["refined_vector"]) == 2

    def test_pipeline_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(initial_retriever="wrong")
        with pytest.raises(ConfigError):
            PipelineConfig(k_initial=5, max_kstar=9)
        with pytest.raises(ConfigError):
            PipelineConfig(default_policy="sometimes")

    @pytest.mark.parametrize("key", ["k_initial", "max_kstar", "output_depth", "llm_max_workers"])
    def test_pipeline_counts_must_be_integers(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be an integer, got 2.5"):
            PipelineConfig(**{key: 2.5})
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got 0"):
            PipelineConfig(**{key: 0})

    def test_search_checks_a_policy_override_as_the_config_does(self):
        gateway = MockGateway([{"match_substring": "", "text": "a hypothetical passage"}])
        engine = toy_engine(OracleJudge({"q1": {}}), gateway=gateway)
        with pytest.raises(ConfigError, match="default_policy must be one of"):
            engine.search("rede", QUERY, default_policy="sometimes")
        assert gateway.counter.total == 0
        assert engine.search("rede", QUERY, default_policy="none")[1].path_taken == "none"
        assert engine.config.default_policy == "encoder_only"  # the override lasts one call
