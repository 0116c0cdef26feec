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
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import Qrels, Query, RankedList, tokenize
from .errors import JudgeUnavailable, UnknownTemplate
from .gateway import CompletionRequest, complete

log = logging.getLogger(__name__)

JUDGE_TEMPLATE_IDS = ("default", "pointwise_yes_no", "rg_yn", "rg_yn_star", "rater_guideline")

# positive/negative first tokens per template; overridable in LlmJudge
DEFAULT_TOKENS = {
    "default": ("1", "0"),
    "pointwise_yes_no": ("Yes", "No"),
    "rg_yn": ("Yes", "No"),
    "rg_yn_star": ("Yes", "No"),
    "rater_guideline": ("1", "0"),
}

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


@dataclass
class RelevantSet:
    """Relevant candidates ordered by descending p, plus all judgments."""

    query_id: str
    docs: list[tuple[str, float]]
    judgments: list[RelevanceJudgment]

    @property
    def kstar(self) -> int:
        return len(self.docs)


def _load_template(template_id: str, templates_dir: str | None = None) -> str:
    if templates_dir is not None:
        path = Path(templates_dir) / f"{template_id}.txt"
        if not path.is_file():
            raise UnknownTemplate(template_id)
        return path.read_text(encoding="utf-8")
    if template_id not in JUDGE_TEMPLATE_IDS:
        raise UnknownTemplate(template_id)
    return (resources.files("rede") / "templates" / "judge" / f"{template_id}.txt").read_text(
        encoding="utf-8"
    )


def truncate_tokens(text: str, max_tokens: int) -> str:
    """Keep the first max_tokens whitespace-separated tokens."""
    tokens = text.split()
    if len(tokens) <= max_tokens:
        return " ".join(tokens)
    return " ".join(tokens[:max_tokens])


def render_judge_prompt(
    template_id: str,
    query_text: str,
    doc_text: str,
    max_doc_tokens: int = 128,
    templates_dir: str | None = None,
) -> JudgePrompt:
    if not query_text:
        raise ValueError("query_text must be non-empty")
    template = _load_template(template_id, templates_dir)
    rendered = template.replace("{query}", query_text).replace(
        "{document}", truncate_tokens(doc_text, max_doc_tokens)
    )
    return JudgePrompt(template_id, rendered)


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
        if templates_dir is None and template_id not in JUDGE_TEMPLATE_IDS:
            raise UnknownTemplate(template_id)
        defaults = DEFAULT_TOKENS.get(template_id, ("1", "0"))
        self.gateway = gateway
        self.template_id = template_id
        self.positive_token = positive_token if positive_token is not None else defaults[0]
        self.negative_token = negative_token if negative_token is not None else defaults[1]
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
        logprobs = response.first_token_logprobs or {}
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
        self.threshold = threshold

    def p_relevant(self, query: Query, doc_id: str, doc_text: str) -> float:
        q_tokens, d_tokens = set(tokenize(query.text)), set(tokenize(doc_text))
        union = q_tokens | d_tokens
        jaccard = len(q_tokens & d_tokens) / len(union) if union else 0.0
        return 1.0 if jaccard >= self.threshold else 0.0


def score_relevance(backend, query: Query, doc_id: str, doc_text: str) -> RelevanceJudgment:
    """Judge one document; label is strict (p > 0.5)."""
    p = backend.p_relevant(query, doc_id, doc_text)
    return RelevanceJudgment(query.query_id, doc_id, p, p > 0.5)


def judge_candidates(
    backend,
    query: Query,
    candidates: RankedList,
    doc_texts: dict[str, str],
    max_workers: int = 1,
) -> RelevantSet:
    """Judge every candidate once and collect the relevant subset.

    The relevant docs are ordered by descending p, ties by original rank.
    Judgments for non-relevant docs are retained (the reranking path needs
    them). Per-doc judge failures are skipped with a warning; the call
    fails only if every candidate fails.
    """
    ids = candidates.doc_ids()
    judgments: list[RelevanceJudgment | None] = [None] * len(ids)

    def judge_one(i: int) -> None:
        doc_id = ids[i]
        try:
            judgments[i] = score_relevance(backend, query, doc_id, doc_texts.get(doc_id, ""))
        except JudgeUnavailable as exc:
            log.warning("skipping %s for query %s: %s", doc_id, query.query_id, exc)

    if max_workers > 1 and len(ids) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(judge_one, range(len(ids))))
    else:
        for i in range(len(ids)):
            judge_one(i)

    kept = [j for j in judgments if j is not None]
    if ids and not kept:
        raise JudgeUnavailable(f"all {len(ids)} candidates failed for query {query.query_id}")
    rank = {doc_id: i for i, doc_id in enumerate(ids)}
    relevant = sorted(
        (j for j in kept if j.label),
        key=lambda j: (-j.p_relevant, rank[j.doc_id]),
    )
    return RelevantSet(query.query_id, [(j.doc_id, j.p_relevant) for j in relevant], kept)
