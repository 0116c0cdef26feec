"""Zero-shot dense retrieval with LLM relevance feedback.

A hybrid BM25+dense first stage retrieves candidates, a pointwise judge
marks the relevant ones, and the query embedding is refined as the mean
of the query vector and the stored embeddings of the judged-relevant
documents. Hypothetical-document generation (with and without retrieved
context) and average pseudo-relevance feedback are included as baselines,
along with TREC-style evaluation and a latency/call-count harness.
"""

from .corpus import (
    Corpus,
    Document,
    Qrels,
    Query,
    QrelEntry,
    RankedList,
    load_corpus,
    load_qrels,
    load_queries,
    read_run_file,
    tokenize,
    write_run_file,
)
from .dense import (
    DenseIndex,
    HashingEncoder,
    HttpEncoder,
    build_dense_index,
    dense_search,
    fetch_embedding,
    load_bundle,
    write_embeddings,
)
from .evalbench import (
    LatencyReport,
    MetricReport,
    evaluate_run,
    export_distill_dataset,
    measure_latency,
    ndcg_at_k,
)
from .fusion import FusionConfig, fuse, hybrid_search, normalize_scores
from .gateway import (
    CompletionRequest,
    CompletionResponse,
    HttpGateway,
    MockGateway,
    complete,
)
from .hyde import HydeConfig, generate_hypothetical_docs, render_hyde_prompt
from .judge import (
    JudgePrompt,
    LexicalJudge,
    LlmJudge,
    OracleJudge,
    RelevanceJudgment,
    judge_candidates,
    render_judge_prompt,
    score_relevance,
)
from .pipeline import (
    PipelineConfig,
    SearchEngine,
    SearchTrace,
    mean_update,
    rerank_by_judge,
)
from .sparse import (
    SparseIndex,
    bm25_score,
    build_sparse_index,
    load_sparse_index,
    save_sparse_index,
    sparse_search,
)
from .synthetic import SyntheticBenchmark, TableEncoder, generate_benchmark

__version__ = "0.1.0"
