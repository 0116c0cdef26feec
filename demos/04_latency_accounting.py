"""
Per-query latency and LLM-call accounting
=========================================

The mock gateway charges a fixed delay per call (separately for
judge-style logprob calls and generation calls), which makes the cost
structure of each method observable: the feedback path issues one
single-token judge call per candidate and zero generation calls, while
the context-generation path issues n_samples long generations.
"""

import numpy as np

from rede import (
    HydeConfig,
    LlmJudge,
    MockGateway,
    PipelineConfig,
    SearchEngine,
    build_dense_index,
    build_sparse_index,
    generate_benchmark,
    measure_latency,
)

D_JUDGE_MS, D_GENERATE_MS = 5, 40  # pretend costs: 1 token vs 512 tokens

bench = generate_benchmark(seed=0, n_queries=5)
gateway = MockGateway(
    [
        {"match_substring": 'Output "1" if the passage', "text": "1",
         "first_token_logprobs": {"1": -0.1, "0": -2.5}},
        {"match_substring": "", "text": "a sampled hypothetical passage"},
    ],
    logprob_delay_s=D_JUDGE_MS / 1000,
    text_delay_s=D_GENERATE_MS / 1000,
)
# hypothetical texts need a planted vector in the table-backed encoder
bench.encoder.table["a sampled hypothetical passage"] = np.zeros(16, dtype=np.float32)

engine = SearchEngine(
    bench.corpus,
    build_sparse_index(bench.corpus),
    build_dense_index(bench.doc_ids, bench.doc_vectors),
    bench.encoder,
    judge=LlmJudge(gateway),
    gateway=gateway,
    config=PipelineConfig(k_initial=20, output_depth=100),
    hyde_config=HydeConfig(n_samples=8),
)

for method in ("hybrid", "rede", "hyde", "hyde-prf"):
    report = measure_latency(lambda q: engine.search(method, q), bench.queries)
    print(
        f"{method:10s} mean {report.mean_ms:8.1f} ms  p95 {report.p95_ms:8.1f} ms  "
        f"judge calls {report.judge_calls:3d}  generation calls {report.generation_calls:3d}"
    )

print("\nexpected per query: rede = 20 judge calls * 5 ms; hyde-prf = 8 generations * 40 ms")
