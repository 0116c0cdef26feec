"""Per-layer metrics from the recorded spans and the program's own traces.

Names are ``<module>.<metric>``. A layer a workload does not exercise
reports 0. Self time is a span's time minus the part its child spans cover.
Span times are raw wall-clock; set-up and build times are quoted at the
reference speed, as the end-to-end ones are.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import NamedTuple

import numpy as np

from rede.gateway import CompletionRequest
from rede.judge import render_judge_prompt
from spans import self_ms

STAGES = ("encode", "initial_retrieval", "judge", "update", "generation", "final_search", "total")
PATHS = ("rede", "default_encoder", "default_hyde_prf", "hybrid")

# (name, unit, better): the per-layer metrics of the result line with --trace 1
PER_LAYER = [
    ("sparse.search_ms.p50", "ms", "lower"),
    ("sparse.search_ms.p95", "ms", "lower"),
    ("sparse.postings_per_query", "count", "lower"),
    ("sparse.build_s", "s", "lower"),
    ("sparse.save_s", "s", "lower"),
    ("sparse.load_s", "s", "lower"),
    ("sparse.file_mb", "MB", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("dense.build_s", "s", "lower"),
    ("dense.load_s", "s", "lower"),
    ("dense.pool_search_ms.p50", "ms", "lower"),
    ("dense.final_search_ms.p50", "ms", "lower"),
    ("encoder.query_ms.p50", "ms", "lower"),
    ("fusion.hybrid_ms.p50", "ms", "lower"),
    ("fusion.hybrid_self_ms.p50", "ms", "lower"),
    ("fusion.fuse_ms.p50", "ms", "lower"),
    ("fusion.pool_size.mean", "count", "lower"),
    ("judge.candidates_ms.p50", "ms", "lower"),
    ("judge.candidates_self_ms.p50", "ms", "lower"),
    ("judge.p_relevant_ms.p50", "ms", "lower"),
    ("judge.p_relevant_self_ms.p50", "ms", "lower"),
    ("judge.queue_wait_ms.p50", "ms", "lower"),
    ("judge.calls_per_query", "count", "lower"),
    ("judge.relevant_share", "share", "higher"),
    ("judge.skipped_per_query", "count", "lower"),
    ("gateway.complete_ms.logprob.p50", "ms", "lower"),
    ("gateway.complete_ms.text.p50", "ms", "lower"),
    ("gateway.overhead_ms.logprob.p50", "ms", "lower"),
    ("gateway.overhead_ms.text.p50", "ms", "lower"),
    ("gateway.attempts_per_call", "count", "lower"),
    ("gateway.model_send_us.p50", "us", "lower"),
    ("hyde.generate_ms.p50", "ms", "lower"),
    ("hyde.generate_self_ms.p50", "ms", "lower"),
    ("hyde.encode_ms.p50", "ms", "lower"),
    ("hyde.samples_per_fallback", "count", "lower"),
    *[(f"pipeline.{stage}_ms.{q}", "ms", "lower") for stage in STAGES for q in ("p50", "p95")],
    *[(f"pipeline.path_share.{path}", "share", "higher" if path == "rede" else "lower")
      for path in PATHS],
    ("pipeline.kstar.mean", "count", "higher"),
    ("pipeline.llm_calls_per_query", "calls", "lower"),
    ("pipeline.trace_llm_calls_per_query", "calls", "lower"),
    ("pipeline.concurrent_llm_calls_per_query", "calls", "lower"),
    ("pipeline.concurrent_trace_llm_calls_per_query", "calls", "lower"),
    ("query.self_ms.p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_iqr_ms", "ms", "lower"),
    ("trace.span_cost_ms", "ms", "lower"),
]


class TraceSummary(NamedTuple):
    """What the metrics need from a SearchTrace, so the traces themselves can be dropped."""

    path_taken: str
    kstar: int
    llm_calls: int
    wall_times: dict
    judged: int
    relevant: int


def summarize(trace) -> TraceSummary:
    return TraceSummary(trace.path_taken, trace.kstar, trace.llm_calls, trace.wall_times,
                        len(trace.judgments), sum(j.label for j in trace.judgments))


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def path_shares(traces) -> dict[str, float]:
    counts = Counter(t.path_taken for t in traces)
    return {path: counts[path] / len(traces) for path in sorted(counts)} if traces else {}


def relevant_share(traces) -> float:
    judged = sum(t.judged for t in traces)
    return sum(t.relevant for t in traces) / judged if judged else 0.0


def calibrate(model, engine, outcomes, n: int = 200) -> float:
    """Median microseconds of the modelled LLM's own send() with no charged delay."""
    requests = []
    for o in outcomes:
        if o.trace is None:
            continue
        for doc_id in o.trace.candidates.doc_ids():
            prompt = render_judge_prompt(model.template_id, o.query.text,
                                         engine.doc_texts[doc_id])
            requests.append(CompletionRequest(prompt.rendered, max_new_tokens=1,
                                              want_first_token_logprobs=True))
        if len(requests) >= n:
            break
    delays = model.logprob_delay_s, model.text_delay_s
    model.logprob_delay_s = model.text_delay_s = 0.0
    try:
        times = []
        for request in requests:
            t0 = time.perf_counter()
            model.send(request)
            times.append((time.perf_counter() - t0) * 1e6)
    finally:
        model.logprob_delay_s, model.text_delay_s = delays
    return _p(times, 50)


def per_layer(*, spans, traces, builds, setups, model, trace_overhead, concurrent,
              llm_calls_per_query, llm_calls, attempts, model_send_us) -> dict[str, float]:
    """Every metric of PER_LAYER; ``traces`` summarise the untraced passes' own traces.

    Set-up and build times are medians over the rounds, quoted at the reference speed.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_ms(spans)
    by_id = {s.span_id: s for s in spans}
    traced_queries = max(len(by_name.get("query", ())), 1)

    def ms(name):
        return [s.ms for s in by_name.get(name, ())]

    def self_of(name):
        return [own[s.span_id] for s in by_name.get(name, ())]

    def attr(name, key):
        return [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]

    def median_setup(key):
        return float(np.median([s[key] * s["speed"] for s in setups]))

    def median_build(key):
        return float(np.median([b[key] * b["speed"] for b in builds]))

    p_rel = by_name.get("judge.p_relevant", [])
    waits = [(s.start - by_id[s.parent_id].start) * 1000.0 for s in p_rel
             if s.parent_id in by_id and by_id[s.parent_id].name == "judge.candidates"]
    judge_delay_ms = model.logprob_delay_s * 1000.0 if model else 0.0
    text_delay_ms = model.text_delay_s * 1000.0 if model else 0.0

    out = {
        "sparse.search_ms.p50": _p(ms("sparse.search"), 50),
        "sparse.search_ms.p95": _p(ms("sparse.search"), 95),
        "sparse.postings_per_query": sum(attr("sparse.search", "postings")) / traced_queries,
        "sparse.build_s": median_build("sparse_build_s"),
        "sparse.save_s": median_build("sparse_save_s"),
        "sparse.load_s": median_setup("sparse"),
        "sparse.file_mb": builds[0]["sparse_file_mb"],
        "corpus.load_s": median_setup("corpus"),
        "dense.build_s": median_build("dense_build_s"),
        "dense.load_s": median_setup("dense"),
        "dense.pool_search_ms.p50": _p(ms("dense.pool_search"), 50),
        "dense.final_search_ms.p50": _p(ms("dense.final_search"), 50),
        "encoder.query_ms.p50": _p(ms("encoder.query"), 50),
        "fusion.hybrid_ms.p50": _p(ms("fusion.hybrid"), 50),
        "fusion.hybrid_self_ms.p50": _p(self_of("fusion.hybrid"), 50),
        "fusion.fuse_ms.p50": _p(ms("fusion.fuse"), 50),
        "fusion.pool_size.mean": float(np.mean(attr("fusion.fuse", "pool")))
        if attr("fusion.fuse", "pool") else 0.0,
        "judge.candidates_ms.p50": _p(ms("judge.candidates"), 50),
        "judge.candidates_self_ms.p50": _p(self_of("judge.candidates"), 50),
        "judge.p_relevant_ms.p50": _p(ms("judge.p_relevant"), 50),
        "judge.p_relevant_self_ms.p50": _p(self_of("judge.p_relevant"), 50),
        "judge.queue_wait_ms.p50": _p(waits, 50),
        "judge.calls_per_query": len(p_rel) / traced_queries,
        "judge.relevant_share": float(np.mean(attr("judge.p_relevant", "relevant")))
        if attr("judge.p_relevant", "relevant") else 0.0,
        "judge.skipped_per_query": sum(s.error is not None for s in p_rel) / traced_queries,
        "gateway.complete_ms.logprob.p50": _p(ms("judge.complete"), 50),
        "gateway.complete_ms.text.p50": _p(ms("hyde.complete"), 50),
        "gateway.overhead_ms.logprob.p50": _p([x - judge_delay_ms for x in ms("judge.complete")],
                                              50),
        "gateway.overhead_ms.text.p50": _p([x - text_delay_ms for x in ms("hyde.complete")], 50),
        "gateway.attempts_per_call": attempts / llm_calls if llm_calls else 0.0,
        "gateway.model_send_us.p50": model_send_us,
        "hyde.generate_ms.p50": _p(ms("hyde.generate"), 50),
        "hyde.generate_self_ms.p50": _p(self_of("hyde.generate"), 50),
        "hyde.encode_ms.p50": _p(ms("hyde.encode"), 50),
        "hyde.samples_per_fallback": float(np.mean(attr("hyde.generate", "samples")))
        if attr("hyde.generate", "samples") else 0.0,
        "pipeline.kstar.mean": float(np.mean([t.kstar for t in traces])) if traces else 0.0,
        "pipeline.llm_calls_per_query": llm_calls_per_query,
        "pipeline.trace_llm_calls_per_query": sum(t.llm_calls for t in traces) / max(len(traces), 1),
        "pipeline.concurrent_llm_calls_per_query":
            concurrent["counter_calls_per_query"] if concurrent else 0.0,
        "pipeline.concurrent_trace_llm_calls_per_query":
            concurrent["trace_calls_per_query"] if concurrent else 0.0,
        "query.self_ms.p50": _p(self_of("query"), 50),
        "trace.overhead_ms": trace_overhead["median"],
        "trace.overhead_iqr_ms": trace_overhead["q3"] - trace_overhead["q1"],
        "trace.span_cost_ms": trace_overhead["span_cost_ms"],
    }
    for stage in STAGES:
        values = [t.wall_times[stage] * 1000.0 for t in traces if stage in t.wall_times]
        out[f"pipeline.{stage}_ms.p50"] = _p(values, 50)
        out[f"pipeline.{stage}_ms.p95"] = _p(values, 95)
    shares = path_shares(traces)
    for path in PATHS:
        out[f"pipeline.path_share.{path}"] = shares.get(path, 0.0)
    missing = {name for name, _, _ in PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric names out of step: {sorted(missing)}")
    return out
