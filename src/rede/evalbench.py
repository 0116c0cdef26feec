"""Ranking metrics, latency measurement, and distillation-set export.

NDCG uses the linear-gain trec_eval convention rel / log2(rank + 1);
exponential gain (2^rel - 1) is available behind a flag; a query whose
ideal DCG is past float range is a PreconditionViolation. Queries absent
from the qrels are excluded from the mean; queries present with only
zero-relevance entries score 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Qrels, Query, RankedList
from .errors import EmptyRun, PreconditionViolation, check_count
from .pipeline import SearchTrace


@dataclass
class MetricReport:
    metric: str
    k: int
    per_query: dict[str, float]
    mean: float

    def to_dict(self) -> dict:
        return {"metric": self.metric, "k": self.k, "mean": self.mean, "per_query": self.per_query}


@dataclass
class LatencyReport:
    per_query_ms: list[float]
    mean_ms: float
    p50_ms: float
    p95_ms: float
    judge_calls: int
    generation_calls: int

    def to_dict(self) -> dict:
        return {
            "per_query_ms": self.per_query_ms,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "llm_call_counts": {"judge": self.judge_calls, "generation": self.generation_calls},
        }


def _gain(rel: int, gain: str) -> float:
    """The gain of a positive relevance; one past float range is inf, which ndcg_at_k refuses.
    An exponential one is inf from rel 1024 on (2^1024 - 1 rounds past the largest float),
    without building 2^rel."""
    try:
        return float(rel) if gain == "linear" else float(2**rel - 1) if rel < 1024 else math.inf
    except OverflowError:  # a linear relevance that rounds past the largest float
        return math.inf


def _check_k_and_gain(k: int, gain: str) -> None:
    """ValueError unless k is an integer >= 1 and gain is 'linear' or 'exp'."""
    check_count("k", k, 1)
    if gain not in ("linear", "exp"):
        raise ValueError(f"gain must be 'linear' or 'exp', got {gain!r}")


def ndcg_at_k(ranked: RankedList, qrels_for_query: dict[str, int], k: int,
              gain: str = "linear") -> float:
    """NDCG truncated at k; 0.0 when the query has no positive judgments.

    An ideal DCG past float range raises PreconditionViolation naming the top relevance: the
    ratio would read NaN, or 0 for a ranking whose own DCG is finite.
    """
    _check_k_and_gain(k, gain)
    positives = sorted((rel for rel in qrels_for_query.values() if rel > 0), reverse=True)
    if not positives:
        return 0.0
    idcg = sum(_gain(rel, gain) / math.log2(i + 1) for i, rel in enumerate(positives[:k], start=1))
    if not math.isfinite(idcg):
        raise PreconditionViolation(f"relevance {positives[0]} puts the {gain}-gain ideal DCG past float range")
    dcg = 0.0
    for i, doc_id in enumerate(ranked.ranking()[0][:k], start=1):
        rel = qrels_for_query.get(doc_id, 0)
        if rel > 0:
            dcg += _gain(rel, gain) / math.log2(i + 1)
    return dcg / idcg


def evaluate_run(run: Sequence[RankedList], qrels: Qrels, k: int = 10,
                 gain: str = "linear", complete: bool = False) -> MetricReport:
    """Per-query NDCG@k plus mean; queries missing from qrels are excluded.

    ``complete`` additionally scores every qrels query absent from the run
    as 0, so no-result queries still count (run files cannot carry them).
    ``k`` and ``gain`` are checked first, by ``ndcg_at_k``'s rule, so a bad
    value is refused even when no run query is in the qrels.
    """
    _check_k_and_gain(k, gain)
    if not run:
        raise EmptyRun("run contains no queries")
    per_query = {ranked.query_id: ndcg_at_k(ranked, qrels[ranked.query_id], k, gain)
                 for ranked in run if ranked.query_id in qrels}
    if complete:
        for query_id in qrels:
            per_query.setdefault(query_id, 0.0)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricReport("ndcg", k, per_query, mean)


def measure_latency(
    pipeline_fn: Callable[[Query], tuple[RankedList, SearchTrace]],
    queries: Sequence[Query],
    warmup: int = 0,
) -> LatencyReport:
    """Wall-clock per query, strictly sequential; the first ``warmup`` runs are discarded.

    LLM call counts are summed from the measured traces, so they match the
    gateway instrumentation counters exactly when the gateway is otherwise idle.
    """
    check_count("warmup", warmup, 0)
    if warmup >= len(queries):
        raise ValueError(f"warmup {warmup} leaves none of the {len(queries)} queries to measure")
    latencies: list[float] = []
    judge_calls = 0
    generation_calls = 0
    for i, query in enumerate(queries):
        t0 = time.perf_counter()
        _, trace = pipeline_fn(query)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if i < warmup:
            continue
        latencies.append(elapsed_ms)
        judge_calls += trace.judge_calls
        generation_calls += trace.generation_calls
    mean = float(np.mean(latencies))
    p50 = float(np.percentile(latencies, 50))
    p95 = float(np.percentile(latencies, 95))
    return LatencyReport(latencies, mean, p50, p95, judge_calls, generation_calls)


def export_distill_dataset(engine, queries: Sequence[Query], out_path: str) -> int:
    """Write refined-query training targets as JSONL; returns records written.

    Queries are run through the feedback path with no default (a query whose
    judge round yields nothing relevant produces no target and is skipped).
    Vector values are rounded to float32 precision.
    """
    written = 0
    with open(out_path, "w", encoding="utf-8") as f:
        for query in queries:
            _, trace = engine.search("rede", query, default_policy="none")
            if trace.path_taken != "rede":
                continue
            record = {"query_id": query.query_id, "text": query.text,
                      "target": trace.refined_vector.tolist()}
            f.write(json.dumps(record) + "\n")
            written += 1
    return written
