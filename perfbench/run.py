"""Seeded end-to-end benchmark of rede's public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rede-llm-5k --seed 1 --seconds 10 --trace 0

A run generates the workload from ``--seed`` with
``rede.synthetic.generate_benchmark`` (in a child process), then makes
``ROUNDS`` rounds. Each round times the index write path in a child
process, times the read path (``load_corpus`` + ``load_sparse_index`` +
``load_bundle`` + ``SearchEngine``) in this process, and drives
``SearchEngine.search`` from a closed loop of client threads, in passes of
about ``PASS_S`` seconds that cycle through the query pool, until the round
has queried for ``--seconds / ROUNDS``. Every ranking is checked. With
``--trace 1`` one more step times each of ``PAIRED_QUERIES`` queries
untraced and traced back to back, one more round runs under the span
recorder of ``spans.py``, and on the LLM workload a short step sends
queries from ``ATTRIBUTION_CLIENTS`` clients at once to compare the LLM
calls the traces claim with those the gateway counted; the result line
then carries the per-layer metrics instead.

Why a reference loop: on a shared 2-CPU virtual machine the same
pure-Python loop took 19-20 ms in quiet phases and 27-36 ms in busy ones;
phases last from under a second to minutes, so raw times of CPU-bound work
from runs minutes apart differ by up to 2x. The run therefore times
``prep.reference_ms`` (a fixed posting-walk loop, independent of the
program) around every build, load and pass, and multiplies the time of
each of those sections by its speed: ``REFERENCE_MS`` over the median of
the loop times taken within ``SPEED_WINDOW_S`` of the section. ``setup_s``
and ``index_build_s`` are always scaled; query latency and ``qps`` are
scaled on the workloads whose query time is CPU time
(``Workload.cpu_bound``), not on the LLM workload, whose queries mostly
wait on the modelled LLM's fixed delays. The report also gives every raw
wall-clock figure. Scaling assumes the program leaves no thread busy
between passes; a change that did would slow the reference loop and be
partly hidden.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report, also written to ``.bench_build/perfbench/``. All
numbers are synthetic: generated corpora on the machine named in the
report, not BEIR latency.

The run digest (sha256 of the TREC run text of the first answer to every
query) and ndcg10 are recorded per workload and seed in
``recorded_rankings.json``. A run whose digest differs from the recorded
one is not correct. A change that means to alter rankings re-records them
with ``--record`` and says so.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
RECORDED = HERE / "recorded_rankings.json"  # run digest and ndcg10 per workload and seed
ROUNDS = 4
PASS_S = 0.25  # clients take no new query after this much of a pass
K_INITIAL = 20
OUTPUT_DEPTH = 1000
N_SAMPLES = 8
CHECKED_QUERIES = 5  # queries whose rankings are compared with reference code
WARMUP_QUERIES = 3
PAIRED_QUERIES = 60  # queries timed untraced and traced back to back for the overhead
SPAN_PROBES = 20_000  # spans opened and closed around a no-op to time one span
ATTRIBUTION_CLIENTS = 2  # concurrent clients of the traced run's call-attribution step
ATTRIBUTION_S = 1.5  # its query time
MIN_SAMPLES = 200  # latency samples, so that p95 has at least 10 above it
SPEED_WINDOW_S = 0.25  # a section's speed comes from loop times this close to it
REFERENCE: list[tuple[float, float]] = []  # (start s, ms) of this run's reference loops

UNITS = {
    "query_p50_ms": "ms", "query_p95_ms": "ms", "qps": "1/s", "setup_s": "s",
    "index_build_s": "s", "engine_rss_mb": "MB", "llm_calls_per_query": "calls",
    "ndcg10": "ndcg", "error_rate": "share",
}
# The end-to-end metrics of the result line. llm_calls_per_query and error_rate are 0 on
# some workloads and ndcg10 varies by more than any bound across seeds, so they are
# reported (and error_rate gated through "failed", ndcg10 through the recorded rankings)
# but not compared between commits.
GATED = ("query_p50_ms", "query_p95_ms", "qps", "setup_s", "index_build_s", "engine_rss_mb")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "rede" / "__init__.py").is_file():
    _fail(f"no rede sources under {SRC}; run from the root of a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rede import (  # noqa: E402
    FusionConfig,
    HydeConfig,
    LlmJudge,
    OracleJudge,
    PipelineConfig,
    RankedList,
    SearchEngine,
    TableEncoder,
    evaluate_run,
    load_bundle,
    load_corpus,
    load_qrels,
    load_queries,
    load_sparse_index,
    sparse_search,
    write_run_file,
)
from rede.errors import RedeError  # noqa: E402

import layers  # noqa: E402
from llm_model import HYPO_NOISE, ModelledLlm  # noqa: E402
from prep import REFERENCE_MS, reference_ms  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS, Workload  # noqa: E402


def rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- set-up ---------------------------------------------------------------------------------


def child(*args: str) -> dict:
    """Run prep.py in a child process and return the JSON object it prints."""
    proc = subprocess.run([sys.executable, str(HERE / "prep.py"), *args],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"prep.py {args[0]} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_engine(w: Workload, work: Path, build: dict, encoder, judge, gateway):
    """The read path every `rede search` over saved indices pays; returns engine and times."""
    REFERENCE.extend(reference_ms())
    t0 = time.perf_counter()
    corpus = load_corpus(str(work / "corpus.jsonl"))
    t1 = time.perf_counter()
    sparse = load_sparse_index(build["sparse_index"])
    t2 = time.perf_counter()
    dense = load_bundle(build["manifest"])
    t3 = time.perf_counter()
    engine = SearchEngine(
        corpus, sparse, dense, encoder, judge=judge, gateway=gateway,
        config=PipelineConfig(
            k_initial=K_INITIAL, output_depth=OUTPUT_DEPTH, llm_max_workers=w.llm_max_workers,
        ),
        fusion_config=FusionConfig(),
        hyde_config=HydeConfig(n_samples=N_SAMPLES),
    )
    t4 = time.perf_counter()
    REFERENCE.extend(reference_ms())
    return engine, {"corpus": t1 - t0, "sparse": t2 - t1, "dense": t3 - t2, "total": t4 - t0,
                    "start": t0, "end": t4}


def speed(start: float, end: float) -> float:
    """REFERENCE_MS over the median reference loop time within SPEED_WINDOW_S of a section;
    multiply the section's times by it to quote them at the reference speed."""
    near = [ms for t, ms in REFERENCE if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
    return REFERENCE_MS / statistics.median(near)


def teach_model(model: ModelledLlm, engine, queries, qrels, encoder, seed: int) -> None:
    """Give the modelled LLM its qrels pairs and one hypothetical passage per query.

    A passage's planted vector is the centroid of the query's relevant documents plus noise.
    """
    rng = np.random.default_rng(seed + 7919)
    pairs, passages = [], {}
    for q in queries:
        relevant = [d for d, rel in qrels[q.query_id].items() if rel > 0]
        pairs += [(q.text, engine.doc_texts[d]) for d in relevant]
        rows = [engine.dense_index.id_to_row[d] for d in relevant]
        centroid = engine.dense_index.vectors[rows].mean(axis=0)
        text = f"hypothetical passage answering {q.text}"
        noise = rng.normal(scale=HYPO_NOISE, size=centroid.shape)
        encoder.table[text] = (centroid + noise).astype(np.float32)
        passages[q.text] = text
    model.learn(pairs, passages)


# -- the closed loop ------------------------------------------------------------------------


class Outcome:
    __slots__ = ("query", "run", "trace", "ms", "error", "typed", "invalid", "fingerprint",
                 "summary")

    def __init__(self, query):
        self.query, self.run, self.trace = query, None, None
        self.ms = 0.0
        self.error, self.typed = None, True
        self.invalid = self.fingerprint = self.summary = None

    def compact(self, keep: bool) -> None:
        """Validate the ranking and summarise it; drop it and the trace unless ``keep``.

        Holding every pass's rankings would grow the heap the program's garbage collector
        scans, and so slow later rounds.
        """
        if self.run is None:
            return
        try:
            self.run.validate()
        except RedeError as exc:
            self.invalid = str(exc)
        self.fingerprint = hash(tuple(self.run.entries))
        self.summary = layers.summarize(self.trace)
        if not keep:
            self.run = self.trace = None


def search(engine, method: str, out: Outcome) -> None:
    t0 = time.perf_counter()
    try:
        out.run, out.trace = engine.search(method, out.query)
    except RedeError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    except Exception:  # counted apart: the program promises typed errors
        out.error, out.typed = traceback.format_exc(), False
    out.ms = (time.perf_counter() - t0) * 1000.0


class Pass(NamedTuple):
    outcomes: list[Outcome]
    start: float
    wall: float


class Loop:
    """Closed-loop clients over a query pool: each client sends the next query of the pool,
    cycling, when its last one returns. The first answer to each query keeps its ranking
    and trace for the checks; later answers keep only a fingerprint. ``engine`` is set
    before each round."""

    def __init__(self, w: Workload, queries):
        self.engine, self.w, self.queries = None, w, queries
        self.cursor = itertools.cycle(queries)
        self.first: dict[str, Outcome] = {}

    def one_pass(self, recorder: Recorder | None = None) -> Pass:
        outcomes: list[Outcome] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + PASS_S

        def client() -> None:
            while time.perf_counter() < deadline:
                with lock:
                    out = Outcome(next(self.cursor))
                    outcomes.append(out)
                span = recorder.open("query", out.query.query_id) if recorder else None
                search(self.engine, self.w.method, out)
                if span is not None:
                    recorder.close(span)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(self.w.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        for o in outcomes:
            keep = o.query.query_id not in self.first
            o.compact(keep)
            if keep:
                self.first[o.query.query_id] = o
        REFERENCE.extend(reference_ms())
        return Pass(outcomes, start, wall)

    def passes(self, budget_s: float, recorder: Recorder | None = None) -> list[Pass]:
        """Passes until budget_s of pass time is spent and every query has been answered."""
        done, spent = [], 0.0
        while spent < budget_s or len(self.first) < len(self.queries):
            done.append(self.one_pass(recorder))
            spent += done[-1].wall
        return done


def latency_stats(passes: list[Pass], scaled: bool) -> dict:
    """p50 and p95 of query latency and qps; ``scaled``: at the reference speed."""
    factors = [speed(p.start, p.start + p.wall) if scaled else 1.0 for p in passes]
    samples = [o.ms * f for p, f in zip(passes, factors) for o in p.outcomes if o.error is None]
    walls = sum(p.wall * f for p, f in zip(passes, factors))
    p95 = float(np.percentile(samples, 95)) if samples else 0.0
    return {
        "p50": float(np.median(samples)) if samples else 0.0,
        "p95": p95,
        "qps": len(samples) / walls,
        "samples": len(samples),
        "above_p95": sum(x > p95 for x in samples),
    }


# -- correctness ----------------------------------------------------------------------------

_TOKEN = re.compile(r"[^\W_]+")  # README: lowercase, split on non-alphanumeric codepoints


class ReferenceBm25:
    """BM25 by brute force over the corpus file, without the program's index.

    The README's formula: idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)), term score
    idf * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl)), k1 = 0.9, b = 0.4, each query
    token occurrence counted, zero scores dropped, ties by ascending doc id.
    """

    def __init__(self, corpus_path: Path, k1: float = 0.9, b: float = 0.4):
        self.k1, self.b = k1, b
        self.tf: dict[str, Counter] = {}
        self.df: Counter = Counter()
        with open(corpus_path, encoding="utf-8") as f:
            for line in f:
                doc = json.loads(line)
                text = f"{doc['title']}. {doc['text']}" if doc["title"] else doc["text"]
                tf = Counter(_TOKEN.findall(text.lower()))
                self.tf[doc["_id"]] = tf
                self.df.update(tf.keys())
        self.dl = {d: sum(tf.values()) for d, tf in self.tf.items()}
        self.avgdl = sum(self.dl.values()) / len(self.dl)

    def search(self, text: str, k: int) -> list[tuple[str, float]]:
        query = Counter(_TOKEN.findall(text.lower()))
        n = len(self.tf)
        idf = {t: math.log(1 + (n - self.df[t] + 0.5) / (self.df[t] + 0.5)) for t in query}
        scored = []
        for doc_id, tf in self.tf.items():
            norm = self.k1 * (1 - self.b + self.b * self.dl[doc_id] / self.avgdl)
            score = 0.0
            for term, count in query.items():
                if tf[term]:
                    score += count * (idf[term] * tf[term] * (self.k1 + 1) / (tf[term] + norm))
            if score > 0:
                scored.append((doc_id, score))
        return sorted(scored, key=lambda p: (-p[1], p[0]))[:k]


def reference_dense(engine, vector, k: int) -> list[tuple[str, float]]:
    """Brute-force top-k by inner product, ties by ascending doc id."""
    index = engine.dense_index
    scores = index.vectors @ np.asarray(vector, dtype=np.float32)
    order = sorted(range(index.count), key=lambda i: (-float(scores[i]), index.ids[i]))[:k]
    return [(index.ids[i], float(scores[i])) for i in order]


def reference_fuse(sparse, dense, alpha: float, k: int) -> list[tuple[str, float]]:
    """Min-max normalise each leg, weight, and sort by score then doc id."""
    def norm(entries):
        if not entries:
            return {}
        lo, hi = min(s for _, s in entries), max(s for _, s in entries)
        return {d: 1.0 if hi == lo else (s - lo) / (hi - lo) for d, s in entries}

    ns, nd = norm(sparse), norm(dense)
    fused = [(d, alpha * ns.get(d, 0.0) + (1 - alpha) * nd.get(d, 0.0)) for d in set(ns) | set(nd)]
    return sorted(fused, key=lambda p: (-p[1], p[0]))[:k]


def same_ranking(got, want) -> bool:
    """Same doc ids in the same order, scores equal to 1e-9 relative."""
    return (len(got) == len(want)
            and all(g[0] == r[0] and math.isclose(g[1], r[1], rel_tol=1e-9, abs_tol=1e-12)
                    for g, r in zip(got, want)))


def check_answers(loop: Loop, passes: list[Pass]) -> list[str]:
    """Every answer is a valid ranked list and equals the first answer to its query."""
    problems = []
    for p in passes:
        for o in p.outcomes:
            if o.invalid is not None:
                problems.append(f"{o.query.query_id}: invalid ranked list: {o.invalid}")
            if o.fingerprint != loop.first[o.query.query_id].fingerprint:
                problems.append(f"{o.query.query_id}: ranking differs between answers")
    return problems


def check_rankings(w: Workload, loop: Loop, qrels, corpus_path: Path) -> list[str]:
    """The first answers to CHECKED_QUERIES queries, compared with reference code."""
    problems = []
    engine = loop.engine
    bm25 = ReferenceBm25(corpus_path)
    alpha = engine.fusion_config.alpha
    for q in loop.queries[:CHECKED_QUERIES]:
        o = loop.first[q.query_id]
        if o.run is None:
            continue
        qid, trace = q.query_id, o.trace
        # the first stage: the hybrid method's output, else the candidates the judge saw
        k = OUTPUT_DEPTH if w.method == "hybrid" else K_INITIAL
        depth = max(k, 100)  # FusionConfig's default pool depth
        sparse_ref = bm25.search(q.text, depth)
        if not same_ranking(sparse_search(engine.sparse_index, q.text, depth).entries,
                            sparse_ref):
            problems.append(f"{qid}: sparse_search differs from brute-force BM25")
        qvec = engine.encoder.encode([q.text])[0]
        fused_ref = reference_fuse(sparse_ref, reference_dense(engine, qvec, depth), alpha, k)
        first_stage = o.run if w.method == "hybrid" else trace.candidates
        if not same_ranking(first_stage.entries, fused_ref):
            problems.append(f"{qid}: first stage differs from reference BM25 + dense + fusion")
        if trace.refined_vector is not None:
            if o.run.entries != reference_dense(engine, trace.refined_vector, OUTPUT_DEPTH):
                problems.append(f"{qid}: final search differs from brute force")
        relevant = {d for d, rel in qrels.get(qid, {}).items() if rel > 0}
        if not {j.doc_id for j in trace.judgments if j.label} <= relevant:
            problems.append(f"{qid}: judge marked a document outside the qrels relevant")
        if w.judge == "oracle":
            expected = min(len(relevant & set(trace.candidates.doc_ids())), K_INITIAL)
            if trace.kstar != expected:
                problems.append(f"{qid}: oracle kstar {trace.kstar} != {expected}")
    return problems


def recorded(workload: str, seed: int) -> dict | None:
    return json.loads(RECORDED.read_text()).get(workload, {}).get(str(seed))


def record(workload: str, seed: int, digest: str, ndcg10: float) -> None:
    table = json.loads(RECORDED.read_text())
    table.setdefault(workload, {})[str(seed)] = {"run_digest": digest, "ndcg10": ndcg10}
    for runs in table.values():
        runs_sorted = sorted(runs.items(), key=lambda item: int(item[0]))
        runs.clear()
        runs.update(runs_sorted)
    RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_digest(loop: Loop, path: Path, tag: str) -> tuple[str, list[RankedList]]:
    """sha256 of the TREC run text of the first answer to every query, in pool order."""
    runs = [loop.first[q.query_id].run for q in loop.queries
            if loop.first[q.query_id].run is not None]
    write_run_file(str(path), runs, tag)
    return hashlib.sha256(path.read_bytes()).hexdigest(), runs


# -- one run --------------------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    generated = child("generate", str(SRC), str(work), str(seed), json.dumps(w.generator))
    queries = load_queries(str(work / "queries.jsonl"))
    qrels = load_qrels(str(work / "qrels.txt"))
    qvecs = np.load(work / "query_vectors.npy")
    encoder = TableEncoder({q.text: qvecs[i] for i, q in enumerate(queries)}, qvecs.shape[1])
    model = None
    judge = OracleJudge(qrels) if w.judge == "oracle" else None
    if w.judge == "llm":
        model = ModelledLlm(parallelism=w.llm_max_workers)
        judge = LlmJudge(model)

    loop = Loop(w, queries)
    builds, setups, passes, rss_growth = [], [], [], 0.0
    for round_no in range(ROUNDS):
        builds.append(child("build", str(SRC), str(work)))
        REFERENCE.extend(map(tuple, builds[-1]["reference_ms"]))
        loop.engine = None  # free the previous engine before loading the next
        rss0 = rss_mb()
        loop.engine, times = load_engine(w, work, builds[-1], encoder, judge, model)
        setups.append(times)
        if round_no == 0:
            rss_growth = rss_mb() - rss0
            if model is not None:
                teach_model(model, loop.engine, queries, qrels, encoder, seed)
            for q in queries[:WARMUP_QUERIES]:
                loop.engine.search(w.method, q)
            if model is not None:
                model.counter.reset()
        passes += loop.passes(seconds / ROUNDS)
    while sum(len(p.outcomes) for p in passes) < MIN_SAMPLES:
        passes.append(loop.one_pass())

    outcomes = [o for p in passes for o in p.outcomes]
    llm_calls = model.counter.total if model is not None else 0
    attempts = model.counter.attempts if model is not None else 0
    stats = latency_stats(passes, w.cpu_bound)
    raw = latency_stats(passes, False)
    for section in setups + builds:
        section["speed"] = speed(section["start"], section["end"])
    failed = [o for o in outcomes if o.error is not None]
    untyped = sum(not o.typed for o in failed)
    problems = check_answers(loop, passes) + check_rankings(w, loop, qrels,
                                                            work / "corpus.jsonl")
    if stats["samples"] < MIN_SAMPLES:
        problems.append(f"only {stats['samples']} latency samples; need {MIN_SAMPLES}")
    digest, runs = run_digest(loop, work / "run.txt", w.method)
    ndcg10 = evaluate_run(runs, qrels, k=10).mean if runs else 0.0
    expected = recorded(w.name, seed)
    if expected is None:
        rankings = "none recorded"
    elif expected == {"run_digest": digest, "ndcg10": ndcg10}:
        rankings = "match"
    else:
        rankings = "differ"
        problems.append(f"rankings differ from those recorded for seed {seed}: digest "
                        f"{digest} ndcg10 {ndcg10} != {expected}")
    traces = [o.summary for o in outcomes if o.summary is not None]
    build = builds[0]  # the input stats are the same in every build

    end_to_end = {
        "query_p50_ms": stats["p50"],
        "query_p95_ms": stats["p95"],
        "qps": stats["qps"],
        "setup_s": statistics.median(s["total"] * s["speed"] for s in setups),
        "index_build_s": statistics.median(b["index_build_s"] * b["speed"] for b in builds),
        "engine_rss_mb": rss_growth,
        "llm_calls_per_query": llm_calls / len(outcomes),
        "ndcg10": ndcg10,
        "error_rate": len(failed) / len(outcomes),
    }
    report = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "clients": w.clients,
        "method": w.method,
        "rounds": ROUNDS,
        "passes": len(passes),
        "queries_in_pool": len(queries),
        "queries_attempted": len(outcomes),
        "latency_samples": stats["samples"],
        "samples_above_p95": stats["above_p95"],
        "end_to_end": end_to_end,
        "scaled_to_reference": {
            "reference_ms": REFERENCE_MS,
            "latency_scaled": w.cpu_bound,
            "speed_passes": [speed(p.start, p.start + p.wall) for p in passes],
            "speed_setups": [s["speed"] for s in setups],
            "speed_builds": [b["speed"] for b in builds],
            "reference_ms_quartiles": statistics.quantiles([ms for _, ms in REFERENCE], n=4),
        },
        "raw_wall_clock": {
            "query_p50_ms": raw["p50"],
            "query_p95_ms": raw["p95"],
            "qps": raw["qps"],
            "setup_s": statistics.median(s["total"] for s in setups),
            "index_build_s": statistics.median(b["index_build_s"] for b in builds),
        },
        "errors": {"typed": len(failed) - untyped, "untyped": untyped,
                   "first": failed[0].error if failed else None},
        "run_digest": digest,
        "recorded_rankings": rankings,
        "problems": problems,
        "timings": {"generate_s": generated["generate_s"],
                    "index_build_s_all": [b["index_build_s"] for b in builds],
                    "setup_s_all": [s["total"] for s in setups],
                    "pass_walls_s": [p.wall for p in passes]},
        "inputs": {
            "generator": w.generator,
            "postings_median": build["postings_median"],
            "postings_max": build["postings_max"],
            "terms": build["terms"],
            "path_shares": layers.path_shares(traces),
            "judge_relevant_share": layers.relevant_share(traces),
        },
        "layer_map": LAYER_MAP,
    }
    if trace:
        overhead = trace_overhead(loop, queries[:PAIRED_QUERIES])
        recorder = Recorder()
        texts = {q.text for q in queries}
        recorder.install(loop.engine, texts)
        try:
            traced = loop.passes(seconds / ROUNDS, recorder)
        finally:
            recorder.uninstall()
        recorder.write(str(OUT / f"spans-{w.name}-s{seed}.jsonl"))
        fired = {s.name for s in recorder.spans}
        missing = [name for name in w.expected_spans if name not in fired]
        if missing:
            raise RuntimeError(f"expected spans never fired on {w.name}: {', '.join(missing)}; "
                               "a call site moved, so spans.py must wrap the new one")
        problems += check_answers(loop, traced)
        concurrent = concurrent_attribution(loop, model) if model else None
        if concurrent:
            problems += check_answers(loop, concurrent.pop("passes"))
        report["trace_overhead_ms_per_query"] = overhead
        report["concurrent_attribution"] = concurrent
        report["per_layer"] = layers.per_layer(
            spans=recorder.spans, traces=traces, builds=builds, setups=setups, model=model,
            trace_overhead=overhead, concurrent=concurrent,
            llm_calls_per_query=end_to_end["llm_calls_per_query"], llm_calls=llm_calls,
            attempts=attempts,
            model_send_us=layers.calibrate(model, loop.engine, loop.first.values())
            if model else 0.0,
        )
    return report


def concurrent_attribution(loop: Loop, model: ModelledLlm) -> dict:
    """LLM calls per query when ATTRIBUTION_CLIENTS clients search at once, as the gateway's
    counter saw them and as the program's traces claim them; the two agree only if each
    trace counts its own query's calls."""
    concurrent = Loop(dataclasses.replace(loop.w, clients=ATTRIBUTION_CLIENTS), loop.queries)
    concurrent.engine, concurrent.first = loop.engine, loop.first
    before = model.counter.total
    passes = concurrent.passes(ATTRIBUTION_S)
    outcomes = [o for p in passes for o in p.outcomes if o.summary is not None]
    return {
        "clients": ATTRIBUTION_CLIENTS,
        "queries": len(outcomes),
        "counter_calls_per_query": (model.counter.total - before) / len(outcomes),
        "trace_calls_per_query": sum(o.summary.llm_calls for o in outcomes) / len(outcomes),
        "passes": passes,
    }


def trace_overhead(loop: Loop, queries) -> dict:
    """Each query searched untraced and traced back to back, from one client; the order
    alternates so that a warm second call does not bias the difference. Returns the median
    and quartiles of traced minus untraced ms over the queries, and ``span_cost_ms``: the
    spans per query times the cost of one span around a no-op, which leaves out the
    attribute functions but does not depend on the machine's noise."""
    recorder = Recorder()
    texts = {q.text for q in loop.queries}
    diffs = []
    for i, q in enumerate(queries):
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = Outcome(q)
            if traced:
                recorder.install(loop.engine, texts)
                try:
                    span = recorder.open("query", q.query_id)
                    search(loop.engine, loop.w.method, out)
                    recorder.close(span)
                finally:
                    recorder.uninstall()
            else:
                search(loop.engine, loop.w.method, out)
            times[traced] = out.ms
        diffs.append(times[True] - times[False])
    q1, q2, q3 = statistics.quantiles(diffs, n=4)
    spans_per_query = len(recorder.spans) / len(diffs)
    noop = Recorder().wrap("probe", lambda: None)
    t0 = time.perf_counter()
    for _ in range(SPAN_PROBES):
        noop()
    span_ms = (time.perf_counter() - t0) * 1000.0 / SPAN_PROBES
    return {"median": q2, "q1": q1, "q3": q3, "queries": len(diffs),
            "spans_per_query": spans_per_query, "span_cost_ms": spans_per_query * span_ms}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of rede.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="query time per run, split over the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest and ndcg10 as the recorded rankings")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    # the judge logs each unusable reply; keep the warnings off stderr
    logging.getLogger("rede").addHandler(logging.NullHandler())

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{w.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["provenance"] = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "note": f"synthetic corpora from rede.synthetic on a {os.cpu_count()}-CPU machine; "
                "these are not BEIR latencies",
    }
    (OUT / f"report-{w.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    if args.record:
        record(w.name, args.seed, report["run_digest"], report["end_to_end"]["ndcg10"])

    e2e = report["end_to_end"]
    print(f"{w.name} seed {args.seed}: {report['queries_attempted']} queries in "
          f"{report['passes']} passes, {w.clients} client(s); {report['provenance']['note']}")
    for name, value in e2e.items():
        print(f"  {name:22s} {value:12.4f} {UNITS[name]}")
    print(f"  run digest {report['run_digest']} "
          f"(recorded rankings: {report['recorded_rankings']})")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(report))

    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in GATED}
    errors = report["errors"]
    failed = errors["typed"] + errors["untyped"]
    print(json.dumps({
        "correct": not report["problems"] and failed == 0,
        "attempted": report["queries_attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
