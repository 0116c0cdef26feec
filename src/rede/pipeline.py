"""One staged retrieval pipeline: every method is a row of ``METHOD_TABLE``.

A row has four fields. ``first`` names the first stage: the configured
retriever at ``k_initial``, a fixed retriever at ``output_depth``, or
none. ``feedback`` decides the rest: none returns the first-stage list as
it is, ``"rerank"`` reorders the candidates by judge probability, and any
other source (the documents a judge marks relevant, all candidates, or
hypothetical documents prompted with the candidates as context) ends in a
dense search with the refined vector. ``path`` names the trace's path on
the row's own feedback, and ``policy`` the empty-feedback policy. Every
refinement is ``mean_update``: the mean of the query vector and a bag of
stored or generated document vectors. When judge feedback is empty, the
policy decides: keep the encoder vector, refine with hypothetical
documents over the same candidates, or return no results (ablation mode).
Every search returns a trace carrying candidates, judgments, the path
taken and why, per-stage wall times and LLM call counts.

The engine keeps its corpus and no per-document map: a query reads the
``search_text`` of its candidates from the corpus, to judge them or to give
them as HyDE context, and ``fetch_embedding`` finds the stored rows of its
feedback by bisection. ``SearchEngine.doc_texts`` is built on first read,
for inspection only.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import Corpus, Query, RankedList, _strictly_ascending
from .dense import QUERY_SCORES, DenseIndex, dense_search, fetch_embedding
from .errors import (
    ConfigError,
    DimMismatch,
    EmptyRelevantSet,
    IndexMismatch,
    JudgeUnavailable,
    PreconditionViolation,
    check_count,
    check_vectors,
    real_array,
)
from .fusion import FusionConfig, hybrid_search
from .gateway import QUERY_CALLS, CallCounter
from .hyde import HydeConfig, generate_hypothetical_docs
from .judge import RelevanceJudgment, judge_candidates
from .sparse import SparseIndex, sparse_search

INITIAL_RETRIEVERS = ("sparse", "dense", "hybrid")
DEFAULT_POLICIES = ("encoder_only", "hyde_prf", "none")


@dataclass(frozen=True)
class Method:
    first: str | None  # "initial", a retriever in INITIAL_RETRIEVERS, or None
    # None: the first-stage list as is; "rerank": reorder it by p; "judge", "all", "hyde": dense search
    feedback: str | None
    path: str  # trace.path_taken when the row's own feedback is used
    policy: str | None = None  # empty-feedback policy: None (no fallback), "config" or pinned

    def retriever(self, configured: str) -> str | None:
        return configured if self.first == "initial" else self.first

    def empty_policy(self, configured: str) -> str | None:
        return configured if self.policy == "config" else self.policy


METHOD_TABLE = {
    "bm25": Method("sparse", None, "bm25"),
    "dense": Method("dense", None, "dense"),
    "hybrid": Method("hybrid", None, "hybrid"),
    "avgprf": Method("initial", "all", "avg_prf", policy="encoder_only"),
    "hyde": Method(None, "hyde", "hyde"),
    "hyde-prf": Method("initial", "hyde", "hyde_prf"),
    "rede": Method("initial", "judge", "rede", policy="config"),
    "rede-hyde-default": Method("initial", "judge", "rede", policy="hyde_prf"),
    "rerank": Method("initial", "rerank", "rerank"),
}
METHODS = tuple(METHOD_TABLE)


def _row(method: str) -> Method:
    if method not in METHOD_TABLE:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    return METHOD_TABLE[method]


def required_components(method: str, initial_retriever: str, default_policy: str) -> list[str]:
    """SearchEngine attributes the method needs; a gateway only where it can generate text."""
    row = _row(method)
    retriever = row.retriever(initial_retriever)
    needs = ["sparse_index"] if retriever in ("sparse", "hybrid") else []
    if retriever in ("dense", "hybrid") or row.feedback not in (None, "rerank"):
        needs += ["dense_index", "encoder"]
    if row.feedback in ("judge", "rerank"):
        needs.append("judge")
    if row.feedback == "hyde" or row.empty_policy(default_policy) == "hyde_prf":
        needs.append("gateway")
    return needs


@dataclass
class PipelineConfig:
    initial_retriever: str = "hybrid"
    k_initial: int = 20
    max_kstar: int | None = None  # None: use k_initial
    default_policy: str = "encoder_only"
    output_depth: int = 1000
    llm_max_workers: int = 1  # the LLM fan-out: judge calls and HyDE samples in flight per query

    def __post_init__(self) -> None:
        if self.initial_retriever not in INITIAL_RETRIEVERS:
            raise ConfigError(f"initial_retriever must be one of {INITIAL_RETRIEVERS}")
        if self.default_policy not in DEFAULT_POLICIES:
            raise ConfigError(f"default_policy must be one of {DEFAULT_POLICIES}")
        if self.max_kstar is None:
            self.max_kstar = self.k_initial
        for name in ("k_initial", "output_depth", "llm_max_workers", "max_kstar"):
            check_count(name, getattr(self, name), 1, ConfigError)
        if self.max_kstar > self.k_initial:
            raise ConfigError(f"max_kstar must satisfy 1 <= max_kstar <= k_initial ({self.k_initial})")


@dataclass
class SearchTrace:
    query_id: str
    candidates: RankedList
    judgments: list[RelevanceJudgment] = field(default_factory=list)
    kstar: int = 0
    path_taken: str = ""
    # why feedback was empty: "no_candidates", "judge_none_relevant", "judge_unavailable"; else ""
    path_reason: str = ""
    judge_calls: int = 0
    generation_calls: int = 0
    wall_times: dict[str, float] = field(default_factory=dict)
    refined_vector: np.ndarray | None = None

    @property
    def llm_calls(self) -> int:
        return self.judge_calls + self.generation_calls

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "candidates": [[doc_id, score] for doc_id, score in zip(*self.candidates.ranking())],
            "judgments": [
                {"doc_id": j.doc_id, "p_relevant": j.p_relevant, "label": j.label}
                for j in self.judgments
            ],
            "kstar": self.kstar,
            "path_taken": self.path_taken,
            "path_reason": self.path_reason,
            "judge_calls": self.judge_calls,
            "generation_calls": self.generation_calls,
            "llm_calls": self.llm_calls,
            "wall_times": self.wall_times,
            "refined_vector": None if self.refined_vector is None else self.refined_vector.tolist(),
        }


def mean_update(query_vec: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of the query vector and all given vectors, permutation-exact.

    Per-dimension math.fsum makes the result independent of vector order, so
    every method that sees the same vectors gets the same bits. Each vector is
    read by ``real_array`` in float32; a value that is not finite there is
    NonFiniteVector.
    """
    vectors = list(vectors)
    if not vectors:
        raise EmptyRelevantSet("mean update requires at least one vector")
    # past float32's range reads as inf, refused below
    q, *rows = [real_array("mean update input", v, np.float32) for v in [query_vec, *vectors]]
    for v in rows:
        if v.shape != q.shape:
            raise DimMismatch(f"mean update: vector shape {v.shape} != query shape {q.shape}")
    stacked = np.vstack([q, *rows])
    stacked = check_vectors("mean update input", stacked, stacked.shape).astype(np.float64)
    totals = np.array(list(map(math.fsum, stacked.T.tolist())))
    return (totals / stacked.shape[0]).astype(np.float32)


def rerank_by_judge(candidates: RankedList, judgments: list[RelevanceJudgment]) -> RankedList:
    """Reorder candidates by descending p_relevant; ties keep the original order.

    This is the one judgment order: the relevant docs (p > 0.5) are its
    prefix, so judge feedback is the first min(#relevant, max_kstar) of it.
    A candidate without a judgment (its judge call failed) scores p = 0.0.
    """
    p_map = {j.doc_id: j.p_relevant for j in judgments}
    ids = candidates.ranking()[0]
    p = [p_map.get(doc_id, 0.0) for doc_id in ids]
    order = sorted(range(len(ids)), key=lambda i: -p[i])
    return RankedList(candidates.query_id, ranking=([ids[i] for i in order], [p[i] for i in order]))


class _QueryRun:
    """Per-query context: times stages into the trace, fills its LLM call counts
    and keeps its dense scores.

    The calls are this query's own: ``complete`` records into the counter set
    in ``QUERY_CALLS`` here, and ``map_in_order`` carries it into worker threads.
    The memo set in ``QUERY_SCORES`` lets the final search of an unrefined
    vector reuse the first stage's product; it ends with the query.
    """

    def __init__(self, trace: SearchTrace):
        self.trace, self.calls = trace, CallCounter()

    def __enter__(self) -> "_QueryRun":
        self._t0, self._token = time.perf_counter(), QUERY_CALLS.set(self.calls)
        self._scores_token = QUERY_SCORES.set({})
        return self

    def __exit__(self, *exc) -> None:
        QUERY_SCORES.reset(self._scores_token)
        QUERY_CALLS.reset(self._token)
        self.trace.wall_times["total"] = time.perf_counter() - self._t0
        calls = self.calls
        self.trace.judge_calls, self.trace.generation_calls = calls.logprob_calls, calls.text_calls

    @contextmanager
    def stage(self, name: str):
        t0, times = time.perf_counter(), self.trace.wall_times
        try:
            yield
        finally:
            times[name] = times.get(name, 0.0) + (time.perf_counter() - t0)


def _check_index_ids(name: str, index_ids: list[str], corpus: Corpus) -> None:
    """Raise IndexMismatch unless the index lists exactly the corpus's ids, ascending.

    It walks the ids in place: a sorted copy of them would add to resident memory.
    """
    if (_strictly_ascending(index_ids) and len(index_ids) == len(corpus)
            and all(map(corpus.__contains__, index_ids))):
        return
    listed = set(index_ids)
    extra = sorted(listed - corpus.keys())[:3]
    missing = sorted(corpus.keys() - listed)[:3]
    detail = (f"{extra} not in the corpus" if extra else f"corpus ids {missing} missing" if missing
              else "ids repeated or out of ascending order")
    raise IndexMismatch(f"{name} ids are not the corpus ids: {detail}")


class SearchEngine:
    """All retrieval methods over one corpus, sharing indices and backends.

    Each index must list exactly the corpus's doc ids (``IndexMismatch``
    otherwise); the engine's indexes then share one id list and one id
    array, so both legs of the hybrid first stage rank the same rows. The
    engine keeps the corpus itself, and reads a document's text from it only
    when a query needs it.
    """

    def __init__(
        self,
        corpus: Corpus,
        sparse_index: SparseIndex | None,
        dense_index: DenseIndex | None,
        encoder,
        judge=None,
        gateway=None,
        config: PipelineConfig | None = None,
        fusion_config: FusionConfig | None = None,
        hyde_config: HydeConfig | None = None,
    ):
        if sparse_index is not None:
            _check_index_ids("sparse index", sparse_index.doc_ids, corpus)
        if dense_index is not None:
            # one list passes the check, so ids equal to the checked sparse ids pass it too
            if sparse_index is None or dense_index.ids != sparse_index.doc_ids:
                _check_index_ids("dense index", dense_index.ids, corpus)
            if sparse_index is not None:
                dense_index = replace(dense_index, ids=sparse_index.doc_ids, id_array=sparse_index.id_array)
        self.sparse_index = sparse_index
        self.dense_index = dense_index
        self.encoder = encoder
        self.judge = judge
        self.gateway = gateway
        self.config = config or PipelineConfig()
        self.fusion_config = fusion_config or FusionConfig()
        self.hyde_config = hyde_config or HydeConfig()
        self.corpus = corpus

    @cached_property
    def doc_texts(self) -> dict[str, str]:
        """doc_id -> search_text; built on first read, for inspection: queries read the corpus."""
        return {doc_id: doc.search_text for doc_id, doc in self.corpus.items()}

    def _require(self, what: str, needs: list[str]) -> None:
        missing = [f"{'an' if name[0] in 'aeiou' else 'a'} {name.replace('_', ' ')}"
                   for name in needs if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{what} requires {' and '.join(missing)}")

    def _retrieve(self, retriever: str, depth: int, query: Query, qvec: np.ndarray | None) -> RankedList:
        if retriever == "sparse":
            result = sparse_search(self.sparse_index, query.text, depth)
        elif retriever == "dense":
            result = dense_search(self.dense_index, qvec, depth)
        else:
            result = hybrid_search(
                self.sparse_index, self.dense_index, query.text, qvec, depth, self.fusion_config
            )
        result.query_id = query.query_id
        # order the hits and convert them to Python ids and scores here, so that cost falls inside
        # search; the (doc_id, score) pairs are built only for a caller that reads the entries
        result.ranking()
        return result

    def _encode(self, texts: list[str]) -> np.ndarray:
        """The one reader of every encoder's reply (``HttpEncoder`` carries its backend's as
        given): a reply holds one finite vector of the index's dim per text.

        The reply must hold real numbers, and is read in the index's dtype (float32), the one
        every later stage computes in: a finite value past its range reads as inf, so it is
        NonFiniteVector here.
        """
        return check_vectors("encoder reply", self.encoder.encode(texts),
                             (len(texts), self.dense_index.dim), self.dense_index.vectors.dtype)

    def search(self, method: str, query: Query, default_policy: str | None = None
               ) -> tuple[RankedList, SearchTrace]:
        """Run the stages of the method's row; default_policy overrides the configured one.

        Blank query text raises PreconditionViolation, as it does in a query file.
        """
        cfg, row = self.config, _row(method)
        if default_policy is not None:
            cfg = replace(cfg, default_policy=default_policy)
        needs = required_components(method, cfg.initial_retriever, cfg.default_policy)
        self._require(f"method {method!r}", needs)
        if not query.text.strip():
            raise PreconditionViolation(f"query {query.query_id!r}: blank query text")
        policy, retriever = row.empty_policy(cfg.default_policy), row.retriever(cfg.initial_retriever)
        depth = cfg.k_initial if row.first == "initial" else cfg.output_depth
        trace = SearchTrace(query.query_id, RankedList(query.query_id, []), path_taken=row.path)
        with _QueryRun(trace) as run:
            qvec = None
            if "dense_index" in needs:
                with run.stage("encode"):
                    qvec = self._encode([query.text])[0]
            if retriever is not None:
                with run.stage("initial_retrieval"):
                    trace.candidates = self._retrieve(retriever, depth, query, qvec)
            candidates = trace.candidates
            if row.feedback is None:
                return candidates, trace

            feedback: list[str] = []
            if row.feedback in ("judge", "rerank"):
                with run.stage("judge"):
                    try:
                        trace.judgments = judge_candidates(
                            self.judge, query, candidates, self.corpus, cfg.llm_max_workers
                        )
                    except JudgeUnavailable:
                        if policy is None:
                            raise  # no empty-feedback fallback to fall through to
                        trace.path_reason = "judge_unavailable"
                    if row.feedback == "judge":  # the relevant docs lead the rerank order
                        kstar = min(sum(j.label for j in trace.judgments), cfg.max_kstar)
                        feedback = rerank_by_judge(candidates, trace.judgments).doc_ids()[:kstar]
            elif row.feedback == "all":
                with run.stage("update"):
                    feedback = candidates.doc_ids()
            if row.feedback == "rerank":
                with run.stage("update"):
                    result = rerank_by_judge(candidates, trace.judgments)
                trace.kstar = sum(j.label for j in trace.judgments)
                return result, trace

            trace.kstar = len(feedback)
            if not feedback and row.feedback in ("judge", "all"):  # the policy's fallback follows
                trace.path_reason = ("no_candidates" if not candidates.ranking()[0]
                                     else trace.path_reason or "judge_none_relevant")
            if feedback:
                with run.stage("update"):
                    refined = mean_update(qvec, [fetch_embedding(self.dense_index, d) for d in feedback])
            elif policy == "encoder_only":
                refined = qvec
                trace.path_taken = "default_encoder"
            elif policy == "none":  # ablation mode, no results for this query
                trace.path_taken = "none"
                return RankedList(query.query_id, []), trace
            else:  # the hyde rows' own feedback (they take no policy), or the hyde_prf policy
                with run.stage("generation"):
                    context = [self.corpus[d].search_text for d in candidates.doc_ids()]
                    docs = generate_hypothetical_docs(self.gateway, self.hyde_config, query, context,
                                                      cfg.llm_max_workers)
                    refined = mean_update(qvec, self._encode(docs))
                if policy == "hyde_prf":
                    trace.path_taken = "default_hyde_prf"

            with run.stage("final_search"):
                result = self._retrieve("dense", cfg.output_depth, query, refined)
            trace.refined_vector = refined
            return result, trace
