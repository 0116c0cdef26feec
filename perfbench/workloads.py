"""Workload definitions for the seeded benchmark.

Every workload is built by ``rede.synthetic.generate_benchmark`` from the
run's seed; ``generator`` holds its keyword arguments. ``n_queries`` is the
size of the query pool that the closed loop cycles through, answering every
query at least once; the LLM workload's pool is the largest because its
latency depends on the share of queries that fall back to HyDE, which
varies with the sampled queries.

Corpus sizes are set by a budget of about 35 s per run on a 2-CPU machine:
at 100k documents one run of the oracle workload took over 100 s
(generation ~10 s, build ~12 s, each load ~8 s, ~280 ms per query). The
long-posting workload therefore uses 10k documents in 2 clusters, which
keeps each cluster word's posting list as long as at 100k documents in the
default 20 clusters (median ~3.1k).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict
    method: str
    clients: int
    cpu_bound: bool  # query time is CPU time, so it is quoted at the reference speed
    expected_spans: tuple[str, ...]  # the traced run fails if one never fires
    judge: str | None = None  # "oracle", "llm" or None
    llm_max_workers: int = 1


_FIRST_STAGE_SPANS = (
    "query", "encoder.query", "fusion.hybrid", "sparse.search", "dense.pool_search", "fusion.fuse",
)
_FEEDBACK_SPANS = _FIRST_STAGE_SPANS + ("judge.candidates", "judge.p_relevant", "dense.final_search")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rede-oracle-10k",
            why="CPU-bound rede query path with a free oracle judge, 1 client; long posting "
                "lists (median ~3.1k) make the BM25 posting walk most of each query",
            generator=dict(n_docs=10_000, dim=64, n_clusters=2, encoder_noise=0.5,
                           n_queries=150),
            method="rede",
            judge="oracle",
            clients=1,
            cpu_bound=True,
            expected_spans=_FEEDBACK_SPANS,
        ),
        Workload(
            name="rede-llm-5k",
            why="LLM-bound rede-hyde-default, modelled LLM at 4 ms per judge call and 20 ms "
                "per sample; 30-43% of queries fall back to HyDE-PRF; 1 client",
            generator=dict(n_docs=5_000, dim=64, n_clusters=10, encoder_noise=0.5,
                           n_queries=200),
            method="rede-hyde-default",
            judge="llm",
            llm_max_workers=4,
            # With 2 clients this workload sits near saturation of the interpreter lock, so
            # its latency swung with the host's load (ten seeds: IQR/median 0.21 on p50;
            # a one-CPU busy loop beside it: +20% p50, against +5% with 1 client). Calls
            # under concurrent queries are attributed in the traced run's own 2-client step.
            clients=1,
            cpu_bound=False,
            expected_spans=_FEEDBACK_SPANS + (
                "judge.complete", "hyde.generate", "hyde.complete", "hyde.encode",
            ),
        ),
        Workload(
            name="hybrid-shortpost-20k",
            why="hybrid first stage over a BEIR-like vocabulary with short posting lists "
                "(median ~48, max ~280); dense top-k sort and fusion dominate; 2 clients",
            generator=dict(n_docs=20_000, dim=64, n_clusters=200, vocab_per_cluster=60,
                           shared_vocab=83, shared_per_doc=1, n_queries=100),
            method="hybrid",
            clients=2,
            cpu_bound=True,
            expected_spans=_FIRST_STAGE_SPANS,
        ),
    )
}

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "sparse.search_ms, sparse.postings_per_query":
        "query_p50_ms, qps on rede-oracle-10k (most of the query); little elsewhere",
    "sparse.build_s, sparse.save_s, sparse.load_s, sparse.file_mb, corpus.load_s, dense.load_s":
        "index_build_s, setup_s, engine_rss_mb on all; largest on the bigger corpora",
    "dense.pool_search_ms, dense.final_search_ms":
        "query_p50_ms on hybrid-shortpost-20k (dominant) and rede-oracle-10k",
    "fusion.hybrid_ms, fusion.fuse_ms, fusion.pool_size":
        "query_p50_ms on hybrid-shortpost-20k",
    "judge.*": "query_p50_ms, qps on rede-llm-5k",
    "gateway.*": "query_p50_ms, llm_calls_per_query on rede-llm-5k",
    "hyde.*": "query_p95_ms on rede-llm-5k",
    "pipeline.<stage>_ms": "the metric its layer moves, on all",
}
