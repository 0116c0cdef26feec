"""The names the ``rede`` package exports, listed so that adding or removing one is a visible edit."""

import inspect

import rede

EXPORTED = {
    "CompletionRequest", "CompletionResponse", "Corpus", "DenseIndex", "Document", "FusionConfig",
    "HashingEncoder", "HttpEncoder", "HttpGateway", "HydeConfig", "JudgePrompt", "LatencyReport",
    "LexicalJudge", "LlmJudge", "MetricReport", "MockGateway", "OracleJudge", "PipelineConfig",
    "Qrels", "Query", "RankedList", "RelevanceJudgment", "SearchEngine", "SearchTrace",
    "SparseIndex", "SyntheticBenchmark", "TableEncoder",
    "build_dense_index", "build_sparse_index", "complete", "dense_search",
    "evaluate_run", "export_distill_dataset", "fetch_embedding", "fuse", "generate_benchmark",
    "generate_hypothetical_docs", "hybrid_search", "judge_candidates", "load_bundle",
    "load_corpus", "load_qrels", "load_queries", "load_sparse_index", "mean_update",
    "measure_latency", "ndcg_at_k", "read_run_file", "render_hyde_prompt", "render_judge_prompt",
    "rerank_by_judge", "save_sparse_index", "score_relevance", "sparse_search", "tokenize",
    "write_embeddings", "write_run_file",
}


def test_exported_names_are_unchanged():
    # submodules (rede.corpus, rede.cli, ...) appear as attributes once imported; they are not exports
    exported = {name for name, value in vars(rede).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == EXPORTED
