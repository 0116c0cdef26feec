"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line (visible with ``pytest -s``); the test id
itself is the criterion id. Oracles here are deliberately independent:
brute-force scripts in plain Python that recompute rankings, scores, and
metrics from first principles.
"""

import json
import math
import time

import numpy as np

from rede.corpus import Document, Query, RankedList, tokenize
from rede.dense import HashingEncoder, build_dense_index, dense_search
from rede.evalbench import evaluate_run, export_distill_dataset, measure_latency, ndcg_at_k
from rede.fusion import FusionConfig, hybrid_search
from rede.gateway import MockGateway
from rede.hyde import HydeConfig
from rede.judge import LexicalJudge, LlmJudge, OracleJudge
from rede.pipeline import PipelineConfig, SearchEngine, mean_update
from rede.sparse import _bm25, build_sparse_index, sparse_search
from rede.synthetic import TableEncoder, generate_benchmark


def ok(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


# mock-script entries: judge prompts carry the default template's wording
JUDGE_YES = {"match_substring": 'Output "1" if the passage', "text": "1",
             "first_token_logprobs": {"1": -0.05, "0": -3.0}}
JUDGE_NO = {"match_substring": 'Output "1" if the passage', "text": "0",
            "first_token_logprobs": {"1": -3.0, "0": -0.05}}


# ---------------------------------------------------------------------------
# 1. feedback-update ranking equals an independent brute-force script
# ---------------------------------------------------------------------------

def test_c01_feedback_search_matches_brute_force():
    start = time.perf_counter()
    doc_vectors = {
        "d1": [1.0, 0.0], "d2": [0.9, 0.1], "d3": [0.8, 0.3],
        "d4": [0.0, 1.0], "d5": [0.2, 0.9], "d6": [0.5, 0.5],
    }
    doc_texts = {
        "d1": "alpha alpha beta", "d2": "alpha beta gamma", "d3": "alpha gamma gamma",
        "d4": "delta epsilon zeta", "d5": "delta zeta zeta", "d6": "beta delta",
    }
    corpus = {d: Document(d, "", doc_texts[d]) for d in doc_texts}
    ids = sorted(doc_vectors)
    dense = build_dense_index(ids, np.array([doc_vectors[d] for d in ids], dtype=np.float32))
    query = Query("q1", "alpha beta probe")
    qvec = np.array([1.0, 0.0], dtype=np.float32)
    qrels = {"q1": {"d2": 1, "d3": 2}}

    engine = SearchEngine(
        corpus, build_sparse_index(corpus), dense, TableEncoder({query.text: qvec}, 2),
        judge=OracleJudge(qrels),
        config=PipelineConfig(initial_retriever="dense", k_initial=6, output_depth=6),
    )
    result, trace = engine.search("rede", query)
    assert trace.path_taken == "rede" and trace.kstar == 2

    # brute force: mean of vectors, exhaustive inner products, plain Python
    feedback = [doc_vectors["d2"], doc_vectors["d3"]]
    rows = [[float(x) for x in qvec]] + feedback
    mean = [sum(row[d] for row in rows) / len(rows) for d in range(2)]
    scored = sorted(
        ((doc, sum(a * b for a, b in zip(doc_vectors[doc], mean))) for doc in doc_vectors),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert result.doc_ids() == [doc for doc, _ in scored]
    assert time.perf_counter() - start < 1.0
    ok("1 feedback-update ranking == brute force, < 1 s")


# ---------------------------------------------------------------------------
# 2. hypothetical-update ranking equals (f(q) + N f(t)) / (N + 1) brute force
# ---------------------------------------------------------------------------

def test_c02_hypothetical_search_matches_brute_force():
    start = time.perf_counter()
    encoder = HashingEncoder(dim=8)
    texts = {
        "d1": "submarine sonar navigation deep sea",
        "d2": "sonar ping underwater acoustics",
        "d3": "mountain trail hiking boots",
        "d4": "deep learning gradient descent",
        "d5": "sea navigation charts compass",
        "d6": "compass needle magnetic field",
    }
    corpus = {d: Document(d, "", t) for d, t in texts.items()}
    ids = sorted(texts)
    doc_vecs = encoder.encode([texts[d] for d in ids])
    dense = build_dense_index(ids, doc_vecs)
    fixed_text = "submarines navigate using sonar and charts"
    n_samples = 8
    gateway = MockGateway([{"match_substring": "", "text": fixed_text}])
    query = Query("q1", "how do submarines navigate")
    engine = SearchEngine(
        corpus, build_sparse_index(corpus), dense, encoder, gateway=gateway,
        config=PipelineConfig(initial_retriever="dense", k_initial=6, output_depth=6),
        hyde_config=HydeConfig(n_samples=n_samples),
    )
    result, trace = engine.search("hyde", query)
    assert trace.generation_calls == n_samples

    f_q = [float(x) for x in encoder.encode([query.text])[0]]
    f_t = [float(x) for x in encoder.encode([fixed_text])[0]]
    refined = [(f_q[d] + n_samples * f_t[d]) / (n_samples + 1) for d in range(8)]
    by_doc = {d: [float(x) for x in doc_vecs[i]] for i, d in enumerate(ids)}
    scored = sorted(
        ((doc, sum(a * b for a, b in zip(by_doc[doc], refined))) for doc in ids),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert result.doc_ids() == [doc for doc, _ in scored]
    assert time.perf_counter() - start < 1.0
    ok("2 hypothetical-update ranking == brute force, < 1 s")


# ---------------------------------------------------------------------------
# 3. BM25: hand-derived closed form and randomized direct-summation oracle
# ---------------------------------------------------------------------------

def brute_bm25(texts, query_tokens, doc_id, k1, b):
    toks = {d: tokenize(t) for d, t in texts.items()}
    n = len(toks)
    avgdl = max(sum(map(len, toks.values())) / n, 1e-9)
    dl = len(toks[doc_id])
    total = 0.0
    for term in query_tokens:
        tf = toks[doc_id].count(term)
        if tf == 0:
            continue
        df = sum(1 for d in toks if term in toks[d])
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return total


def test_c03_bm25_closed_form_and_oracle():
    texts = {"d1": "a b a", "d2": "b c"}
    corpus = {d: Document(d, "", t) for d, t in texts.items()}
    index = build_sparse_index(corpus, k1=0.9, b=0.4)
    # closed form with idf = ln 2, tf = 2, dl = 3, avgdl = 2.5
    hand = math.log(2) * 2 * (0.9 + 1) / (2 + 0.9 * (1 - 0.4 + 0.4 * 3 / 2.5))
    assert abs(hand - 0.8862581716446137) < 1e-12
    assert abs(_bm25(index, ["a"])[index.doc_ids.index("d1")] - hand) < 1e-5

    rng = np.random.default_rng(1234)
    vocab = [f"w{i}" for i in range(15)]
    checked = 0
    while checked < 100:
        n_docs = int(rng.integers(1, 21))
        rand_texts = {
            f"d{i}": " ".join(rng.choice(vocab, size=rng.integers(0, 30))) for i in range(n_docs)
        }
        if all(not t.strip() for t in rand_texts.values()):
            continue
        rand_corpus = {d: Document(d, "", t) for d, t in rand_texts.items()}
        k1, b = float(rng.uniform(0, 2)), float(rng.uniform(0, 1))
        rand_index = build_sparse_index(rand_corpus, k1=k1, b=b)
        query = list(rng.choice(vocab, size=rng.integers(1, 6)))
        scores = _bm25(rand_index, query)
        for row, doc_id in enumerate(rand_index.doc_ids):
            expected = brute_bm25(rand_texts, query, doc_id, k1, b)
            assert abs(scores[row] - expected) <= 1e-9
        checked += 1
    ok("3 BM25 closed form (1e-5) + 100 random corpora vs oracle (1e-9)")


# ---------------------------------------------------------------------------
# 4. NDCG fixtures and swap monotonicity
# ---------------------------------------------------------------------------

def test_c04_ndcg_values_and_monotonicity():
    top = RankedList("qa", [("r", 2.0), ("x", 1.0)])
    second = RankedList("qb", [("x", 2.0), ("r", 1.0)])
    empty = RankedList("qc", [("x", 2.0)])
    assert abs(ndcg_at_k(top, {"r": 1}, 10) - 1.0) < 1e-6
    assert abs(ndcg_at_k(second, {"r": 1}, 10) - 1 / math.log2(3)) < 1e-6
    assert abs(ndcg_at_k(empty, {"nope": 0}, 10) - 0.0) < 1e-6

    rng = np.random.default_rng(77)
    docs = [f"d{i}" for i in range(15)]
    swaps = 0
    while swaps < 1000:
        rels = {d: int(rng.integers(0, 4)) for d in docs}
        if not any(rels.values()):
            continue
        order = list(rng.permutation(docs))
        i = int(rng.integers(1, len(order)))
        if rels[order[i]] <= rels[order[i - 1]]:
            continue
        ranked = RankedList("q", [(d, float(len(order) - j)) for j, d in enumerate(order)])
        before = ndcg_at_k(ranked, rels, 10)
        order[i - 1], order[i] = order[i], order[i - 1]
        swapped = RankedList("q", [(d, float(len(order) - j)) for j, d in enumerate(order)])
        after = ndcg_at_k(swapped, rels, 10)
        assert after >= before - 1e-12
        swaps += 1
    ok("4 NDCG fixtures (1e-6) + 1000 upward swaps never decrease")


# ---------------------------------------------------------------------------
# 5. always-relevant judge with full cap reproduces average-PRF bit-for-bit
# ---------------------------------------------------------------------------

def test_c05_always_relevant_equals_avg_prf():
    bench = generate_benchmark(seed=101, n_queries=50)
    engine = SearchEngine(
        bench.corpus,
        build_sparse_index(bench.corpus),
        build_dense_index(bench.doc_ids, bench.doc_vectors),
        bench.encoder,
        judge=LexicalJudge(threshold=0.0),  # marks everything relevant
        config=PipelineConfig(k_initial=20, max_kstar=20, output_depth=100),
    )
    for query in bench.queries:
        rede_out, trace = engine.search("rede", query)
        avg_out, _ = engine.search("avgprf", query)
        assert trace.kstar == len(trace.candidates.entries)
        assert rede_out.entries == avg_out.entries  # identical floats, identical order
    ok("5 always-relevant feedback == average-PRF bit-for-bit on 50 queries")


# ---------------------------------------------------------------------------
# 6. empty-feedback defaults: encoder fallback and generation fallback
# ---------------------------------------------------------------------------

def test_c06_default_path_identities():
    encoder = HashingEncoder(dim=16)
    rng = np.random.default_rng(5)
    vocab = [f"word{i}" for i in range(40)]
    texts = {f"d{i:02d}": " ".join(rng.choice(vocab, size=12)) for i in range(30)}
    corpus = {d: Document(d, "", t) for d, t in texts.items()}
    ids = sorted(texts)
    dense = build_dense_index(ids, encoder.encode([texts[d] for d in ids]))
    sparse = build_sparse_index(corpus)
    queries = [Query(f"q{i}", " ".join(rng.choice(vocab, size=3))) for i in range(5)]

    gateway = MockGateway([JUDGE_NO, {"match_substring": "", "text": "a plausible passage"}])
    cfg = dict(initial_retriever="hybrid", k_initial=10, output_depth=30)

    # oracle judge with empty qrels: every feedback round comes back empty
    engine_enc = SearchEngine(corpus, sparse, dense, encoder, judge=OracleJudge({}),
                              config=PipelineConfig(**cfg))
    for query in queries:
        out, trace = engine_enc.search("rede", query, default_policy="encoder_only")
        assert trace.path_taken == "default_encoder"
        plain = dense_search(dense, encoder.encode([query.text])[0], 30)
        assert out.entries == plain.entries

    engine_gen = SearchEngine(corpus, sparse, dense, encoder, judge=LlmJudge(gateway),
                              gateway=gateway, config=PipelineConfig(**cfg),
                              hyde_config=HydeConfig(n_samples=8))
    for query in queries:
        via_default, trace = engine_gen.search("rede", query, default_policy="hyde_prf")
        assert trace.path_taken == "default_hyde_prf"
        direct, _ = engine_gen.search("hyde-prf", query)
        assert via_default.entries == direct.entries
    ok("6 empty-feedback defaults: encoder fallback and generation fallback exact")


# ---------------------------------------------------------------------------
# 7. latency mechanism: delays and call counts per path
# ---------------------------------------------------------------------------

def test_c07_latency_mechanism():
    # calls run one after another, so a query's mean latency is at least the sum of its
    # nominal delays (less 10%) and at most 10% over the time its sends were measured to
    # take: load on the host that stretches the sleeps raises the upper bound with them
    d_judge, d_generate = 0.025, 0.050
    encoder = HashingEncoder(dim=16)
    rng = np.random.default_rng(11)
    vocab = [f"word{i}" for i in range(30)]
    texts = {f"d{i:02d}": " ".join(rng.choice(vocab, size=10)) for i in range(40)}
    corpus = {d: Document(d, "", t) for d, t in texts.items()}
    ids = sorted(texts)
    dense = build_dense_index(ids, encoder.encode([texts[d] for d in ids]))
    sparse = build_sparse_index(corpus)
    queries = [Query(f"q{i}", " ".join(rng.choice(vocab, size=3))) for i in range(3)]

    gateway = MockGateway(
        [JUDGE_YES, {"match_substring": "", "text": "a generated passage"}],
        logprob_delay_s=d_judge, text_delay_s=d_generate,
    )
    sent_s = []
    send = gateway.send

    def timed_send(request):
        t0 = time.perf_counter()
        try:
            return send(request)
        finally:
            sent_s.append(time.perf_counter() - t0)

    gateway.send = timed_send
    cfg = PipelineConfig(initial_retriever="hybrid", k_initial=20, output_depth=40)
    engine = SearchEngine(corpus, sparse, dense, encoder, judge=LlmJudge(gateway),
                          gateway=gateway, config=cfg, hyde_config=HydeConfig(n_samples=8))

    rede_report = measure_latency(lambda q: engine.search("rede", q), queries)
    assert rede_report.judge_calls == 20 * len(queries)
    assert rede_report.generation_calls == 0
    expected_ms, sent_ms = 20 * d_judge * 1000, sum(sent_s) * 1000 / len(queries)
    assert expected_ms - 0.10 * expected_ms <= rede_report.mean_ms <= 1.10 * sent_ms

    gateway.counter.reset()
    sent_s.clear()
    prf_report = measure_latency(lambda q: engine.search("hyde-prf", q), queries)
    assert prf_report.judge_calls == 0
    assert prf_report.generation_calls == 8 * len(queries)
    expected_ms, sent_ms = 8 * d_generate * 1000, sum(sent_s) * 1000 / len(queries)
    assert expected_ms - 0.10 * expected_ms <= prf_report.mean_ms <= 1.10 * sent_ms
    ok("7 latency: feedback path 20 judge calls ~ 20*d, generation path 8 calls ~ 8*d, "
       "at most 10% over the measured sends")


# ---------------------------------------------------------------------------
# 8. planted-cluster benchmark: oracle feedback beats the hybrid baseline
# ---------------------------------------------------------------------------

def test_c08_feedback_beats_hybrid_on_planted_clusters():
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        bench = generate_benchmark(seed=seed)
        engine = SearchEngine(
            bench.corpus,
            build_sparse_index(bench.corpus),
            build_dense_index(bench.doc_ids, bench.doc_vectors),
            bench.encoder,
            judge=OracleJudge(bench.qrels),
            config=PipelineConfig(k_initial=20, output_depth=100),
        )
        hybrid_runs = [engine.search("hybrid", q)[0] for q in bench.queries]
        rede_runs = [engine.search("rede", q)[0] for q in bench.queries]
        hybrid_score = evaluate_run(hybrid_runs, bench.qrels, 10).mean
        rede_score = evaluate_run(rede_runs, bench.qrels, 10).mean
        if rede_score >= hybrid_score:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 18, f"feedback won only {wins}/20 seeds"
    assert elapsed < 30.0
    ok(f"8 oracle feedback >= hybrid on {wins}/20 seeds in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 9. fusion boundary weights reproduce single-leg orderings exactly
# ---------------------------------------------------------------------------

def test_c09_fusion_boundaries():
    rng = np.random.default_rng(99)
    vocab = [f"w{i}" for i in range(10)]
    for trial in range(100):
        n_docs = int(rng.integers(3, 15))
        texts = {f"d{i:02d}": " ".join(rng.choice(vocab, size=rng.integers(1, 15)))
                 for i in range(n_docs)}
        corpus = {d: Document(d, "", t) for d, t in texts.items()}
        vectors = rng.normal(size=(n_docs, 5)).astype(np.float32)
        sparse = build_sparse_index(corpus)
        dense = build_dense_index(sorted(texts), vectors)
        query = " ".join(rng.choice(vocab, size=3))
        qvec = rng.normal(size=5).astype(np.float32)
        alpha = 1.0 if trial % 2 == 0 else 0.0
        fused = hybrid_search(sparse, dense, query, qvec, n_docs,
                              FusionConfig(alpha=alpha, pool_depth=n_docs))
        if alpha == 1.0:
            leg_ids = sparse_search(sparse, query, n_docs).doc_ids()
        else:
            leg_ids = dense_search(dense, qvec, n_docs).doc_ids()
        restricted = [d for d in fused.doc_ids() if d in set(leg_ids)]
        assert restricted == leg_ids
    ok("9 fusion at weight 1/0 reproduces sparse/dense ordering on 100 instances")


# ---------------------------------------------------------------------------
# 10. distill export: targets recompute exactly, empty-feedback queries absent
# ---------------------------------------------------------------------------

def test_c10_distill_export(tmp_path):
    bench = generate_benchmark(seed=7, n_queries=10)
    # three extra queries with no relevant docs anywhere: must be skipped
    extra = []
    for i in range(3):
        text = f"unplanted query {i}"
        bench.encoder.table[text] = np.zeros(16, dtype=np.float32)
        extra.append(Query(f"qx{i}", text))
    queries = bench.queries + extra
    dense = build_dense_index(bench.doc_ids, bench.doc_vectors)
    engine = SearchEngine(
        bench.corpus, build_sparse_index(bench.corpus), dense, bench.encoder,
        judge=OracleJudge(bench.qrels),
        config=PipelineConfig(k_initial=20, output_depth=100),
    )
    out = tmp_path / "distill.jsonl"
    count = export_distill_dataset(engine, queries, str(out))
    records = {r["query_id"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert count == len(records)
    assert not any(q.query_id in records for q in extra)

    for query in queries:
        _, trace = engine.search("rede", query, default_policy="none")
        if trace.path_taken != "rede":
            assert query.query_id not in records
            continue
        assert query.query_id in records
        ranked_ids = trace.candidates.doc_ids()
        order = {d: i for i, d in enumerate(ranked_ids)}
        relevant = sorted(
            (j for j in trace.judgments if j.label),
            key=lambda j: (-j.p_relevant, order[j.doc_id]),
        )[: engine.config.max_kstar]
        embeddings = [dense.vectors[dense.id_to_row[j.doc_id]] for j in relevant]
        qvec = bench.encoder.encode([query.text])[0]
        expected = mean_update(qvec, embeddings)
        np.testing.assert_allclose(records[query.query_id]["target"], expected, atol=1e-6)
    ok("10 distill targets recompute to 1e-6; empty-feedback queries absent")
