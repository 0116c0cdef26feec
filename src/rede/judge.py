"""Pointwise relevance judging of retrieval candidates.

Three interchangeable backends score p(relevant) for a (query, document)
pair through one method, ``p_relevant(query, doc_id, doc_text)``:

  * ``LlmJudge``    - renders a prompt template, asks the gateway for
    first-token logprobs, and softmaxes the positive/negative tokens
    (e.g. "1" vs "0"). This is the production path.
  * ``OracleJudge`` - reads ground-truth qrels; used for upper-bound
    experiments and deterministic tests.
  * ``LexicalJudge`` - token-set Jaccard threshold; exists solely so
    end-to-end tests can run without any model.

A document counts as relevant iff p > 0.5 (strictly), i.e. iff the
positive token is the argmax of the two.

This module also holds the one prompt-template loader and filler (judge
and HyDE templates alike) and the one in-order fan-out over a thread pool.
"""

from __future__ import annotations

import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .corpus import Corpus, Qrels, Query, RankedList, tokenize
from .errors import JudgeUnavailable, UnknownDocId, UnknownTemplate, check_count, check_real
from .gateway import CompletionRequest, complete

log = logging.getLogger(__name__)

# positive/negative first tokens per built-in judge template; overridable in LlmJudge
DEFAULT_TOKENS = {
    "default": ("1", "0"),
    "pointwise_yes_no": ("Yes", "No"),
    "rg_yn": ("Yes", "No"),
    "rg_yn_star": ("Yes", "No"),
    "rater_guideline": ("1", "0"),
}
JUDGE_TEMPLATE_IDS = tuple(DEFAULT_TOKENS)
HYDE_TASK_FAMILIES = ("web_search", "scifact", "bio_medical", "fiqa", "dbpedia", "news")

# template kind -> (in-package directory, file-name suffix, built-in names)
_TEMPLATE_KINDS = {
    "judge": ("judge", "", JUDGE_TEMPLATE_IDS),
    "hyde": ("hyde", "", HYDE_TASK_FAMILIES),
    "hyde_context": ("hyde", "_context", HYDE_TASK_FAMILIES),
}
_PLACEHOLDER = re.compile(r"\{(query|document|context)\}")

_NUMBER_TYPES = frozenset((int, float))  # exact types: a JSON true is not a logprob

# logprob assigned to a designated token missing from a truncated top-K map:
# min returned logprob minus this margin, so truncation cannot flip labels
_MISSING_TOKEN_MARGIN = 10.0


@dataclass(frozen=True)
class JudgePrompt:
    template_id: str
    rendered: str


@dataclass(frozen=True)
class RelevanceJudgment:
    query_id: str
    doc_id: str
    p_relevant: float
    label: bool


@lru_cache(maxsize=None)
def load_template(kind: str, name: str, templates_dir: str | None) -> str:
    """The text of one prompt template, read once per process.

    In-package names must be built-in for their kind; a custom directory
    takes any file name, but no name may contain a path separator.
    """
    package_dir, suffix, built_in = _TEMPLATE_KINDS[kind]
    if templates_dir is None:
        root, allowed = resources.files("rede") / "templates" / package_dir, name in built_in
    else:
        root, allowed = Path(templates_dir), True
    path = root / f"{name}{suffix}.txt"
    if not allowed or "/" in name or "\\" in name or not path.is_file():
        raise UnknownTemplate(name)
    return path.read_text(encoding="utf-8")


def _fill(template: str, **values: str) -> str:
    """Fill the placeholders named in ``values`` in one pass: inserted text is never read as one."""
    return _PLACEHOLDER.sub(lambda m: values.get(m[1], m[0]), template)


def map_in_order(fn: Callable, items: Iterable, max_workers: int) -> list:
    """[fn(x) for x in items], on a thread pool when max_workers > 1 and there are 2+ items.

    Each pooled item runs in a copy of the caller's context, so the per-query
    call counter (``gateway.QUERY_CALLS``) follows it into the worker thread.
    ``ThreadPoolExecutor`` is looked up in this module at call time: perfbench
    swaps it here to carry span parents into the worker threads.
    """
    items = list(items)
    if max_workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(copy_context().run, fn, x) for x in items]
            return [f.result() for f in futures]
    return [fn(x) for x in items]


def truncate_tokens(text: str, max_tokens: int) -> str:
    """Keep the first max_tokens whitespace-separated tokens."""
    return " ".join(text.split()[:max_tokens])


def render_judge_prompt(
    template_id: str,
    query_text: str,
    doc_text: str,
    max_doc_tokens: int = 128,
    templates_dir: str | None = None,
) -> JudgePrompt:
    if not query_text:
        raise ValueError("query_text must be non-empty")
    template = load_template("judge", template_id, templates_dir)
    document = truncate_tokens(doc_text, max_doc_tokens)
    return JudgePrompt(template_id, _fill(template, query=query_text, document=document))


class LlmJudge:
    def __init__(
        self,
        gateway,
        template_id: str = "default",
        positive_token: str | None = None,
        negative_token: str | None = None,
        max_doc_tokens: int = 128,
        top_logprobs: int = 10,
        templates_dir: str | None = None,
    ):
        load_template("judge", template_id, templates_dir)  # fail at construction, not per call
        CompletionRequest("", top_logprobs=top_logprobs)  # the request checks top_logprobs
        check_count("max_doc_tokens", max_doc_tokens, 0)
        defaults = DEFAULT_TOKENS.get(template_id, ("1", "0"))
        self.gateway = gateway
        self.template_id = template_id
        self.positive_token = positive_token if positive_token is not None else defaults[0]
        self.negative_token = negative_token if negative_token is not None else defaults[1]
        if self.positive_token == self.negative_token:  # p would be 0.5 for every reply
            raise ValueError(f"positive_token and negative_token are both {self.positive_token!r}")
        self.max_doc_tokens = max_doc_tokens
        self.top_logprobs = top_logprobs
        self.templates_dir = templates_dir

    def p_relevant(self, query: Query, doc_id: str, doc_text: str) -> float:
        prompt = render_judge_prompt(
            self.template_id, query.text, doc_text, self.max_doc_tokens, self.templates_dir
        )
        response = complete(
            self.gateway,
            CompletionRequest(
                prompt.rendered,
                max_new_tokens=1,
                temperature=0.0,
                want_first_token_logprobs=True,
                top_logprobs=self.top_logprobs,
            ),
        )
        # the gateway returns the map as the backend gave it: a non-empty {token: number} is usable
        logprobs = response.first_token_logprobs
        if not (isinstance(logprobs, dict) and logprobs
                and _NUMBER_TYPES.issuperset(map(type, logprobs.values()))):
            raise JudgeUnavailable("backend returned no usable first-token logprobs")
        lp_pos = logprobs.get(self.positive_token)
        lp_neg = logprobs.get(self.negative_token)
        if lp_pos is None and lp_neg is None:
            raise JudgeUnavailable(
                f"neither {self.positive_token!r} nor {self.negative_token!r} in returned logprobs"
            )
        floor = min(logprobs.values()) - _MISSING_TOKEN_MARGIN
        if lp_pos is None:
            lp_pos = floor
        if lp_neg is None:
            lp_neg = floor
        # NaN, a positive log-probability, or no mass on either token: nothing to compare
        if not (lp_pos <= 0.0 and lp_neg <= 0.0) or lp_pos == lp_neg == -math.inf:
            raise JudgeUnavailable(f"malformed logprobs {lp_pos!r}/{lp_neg!r} for the designated tokens")
        # two-branch logistic of the logprob gap: neither exp can overflow or divide 0/0
        if lp_pos >= lp_neg:
            return 1.0 / (1.0 + math.exp(lp_neg - lp_pos))
        e = math.exp(lp_pos - lp_neg)
        return e / (1.0 + e)


class OracleJudge:
    def __init__(self, qrels: Qrels):
        self.qrels = qrels

    def p_relevant(self, query: Query, doc_id: str, doc_text: str) -> float:
        return 1.0 if self.qrels.get(query.query_id, {}).get(doc_id, 0) > 0 else 0.0


class LexicalJudge:
    def __init__(self, threshold: float = 0.15):
        check_real("threshold", threshold, 1)
        self.threshold = threshold

    def p_relevant(self, query: Query, doc_id: str, doc_text: str) -> float:
        q_tokens, d_tokens = set(tokenize(query.text)), set(tokenize(doc_text))
        union = q_tokens | d_tokens
        jaccard = len(q_tokens & d_tokens) / len(union) if union else 0.0
        return 1.0 if jaccard >= self.threshold else 0.0


def score_relevance(backend, query: Query, doc_id: str, doc_text: str) -> RelevanceJudgment:
    """Judge one document; label is strict (p > 0.5). A p outside [0, 1] (or NaN) is a failed call."""
    p = backend.p_relevant(query, doc_id, doc_text)
    if not 0.0 <= p <= 1.0:
        raise JudgeUnavailable(f"judge returned p = {p!r} for {doc_id}, outside [0, 1]")
    return RelevanceJudgment(query.query_id, doc_id, p, p > 0.5)


def judge_candidates(
    backend,
    query: Query,
    candidates: RankedList,
    corpus: Corpus,
    max_workers: int = 1,
) -> list[RelevanceJudgment]:
    """Judge every candidate once, on its ``search_text`` in the corpus; the judgments
    come back in candidate order.

    A candidate missing from the corpus raises UnknownDocId before any
    call is made. A candidate that cannot be judged (JudgeUnavailable, which
    a reply without a usable logprob map also raises) is skipped with a
    warning; the call fails only if every candidate fails. Transport errors
    propagate.
    """

    def judge_one(doc_id: str) -> RelevanceJudgment | None:
        try:
            return score_relevance(backend, query, doc_id, corpus[doc_id].search_text)
        except JudgeUnavailable as exc:
            log.warning("skipping %s for query %s: %s", doc_id, query.query_id, exc)
            return None

    ids = candidates.doc_ids()
    unknown = next((doc_id for doc_id in ids if doc_id not in corpus), None)
    if unknown is not None:
        raise UnknownDocId(unknown)
    judgments = [j for j in map_in_order(judge_one, ids, max_workers) if j is not None]
    if ids and not judgments:
        raise JudgeUnavailable(f"all {len(ids)} candidates failed for query {query.query_id}")
    return judgments
