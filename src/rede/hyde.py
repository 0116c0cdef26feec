"""Hypothetical-document sampling for generation-based query refinement.

Prompts live in ``templates/hyde/`` as ``{family}.txt`` (no context) and
``{family}_context.txt`` (top retrieved documents prepended as context,
the pseudo-relevance-feedback variant). Each invocation draws
``n_samples`` independent completions at the configured temperature.
Given context documents, the prompt holds the first ``context_docs`` of
them (0: all given); given none, it is the plain form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import Query
from .errors import AllSamplesEmpty, check_count
from .gateway import CompletionRequest, complete
from .judge import HYDE_TASK_FAMILIES, _fill, load_template, map_in_order, truncate_tokens

log = logging.getLogger(__name__)


@dataclass
class HydeConfig:
    n_samples: int = 8
    temperature: float = 0.7
    max_new_tokens: int = 512
    task_template: str = "web_search"
    context_docs: int = 0  # at most this many context documents; 0 = all given
    max_context_doc_tokens: int = 128
    templates_dir: str | None = None  # None: templates shipped in-package

    def __post_init__(self) -> None:
        check_count("n_samples", self.n_samples, 1)
        check_count("context_docs", self.context_docs, 0)
        CompletionRequest("", self.max_new_tokens, self.temperature)  # the request checks both
        check_count("max_context_doc_tokens", self.max_context_doc_tokens, 0)
        load_template("hyde", self.task_template, self.templates_dir)  # fail at construction


def render_hyde_prompt(
    task_template: str,
    query_text: str,
    context_docs: list[str] | None = None,
    max_context_doc_tokens: int = 128,
    templates_dir: str | None = None,
) -> str:
    """Zero-context prompt, or the context form when documents are supplied."""
    if not context_docs:
        return _fill(load_template("hyde", task_template, templates_dir), query=query_text)
    template = load_template("hyde_context", task_template, templates_dir)
    context = "\n".join(truncate_tokens(doc, max_context_doc_tokens) for doc in context_docs)
    return _fill(template, context=context, query=query_text)


def generate_hypothetical_docs(
    gateway,
    config: HydeConfig,
    query: Query,
    context_texts: list[str] | None = None,
    max_workers: int = 1,
) -> list[str]:
    """Sample n_samples hypothetical documents for the query, in sample-index order.

    ``context_texts`` are ranked documents, best first; none, or an empty
    list, gives the plain prompt. A sample is HyDE's to read: the gateway
    hands its text over as the backend gave it. An empty or non-string
    sample is retried once and then dropped with a warning; if every sample
    ends up dropped, AllSamplesEmpty is raised.
    """
    context = context_texts[: config.context_docs or None] if context_texts else None
    prompt = render_hyde_prompt(
        config.task_template, query.text, context, config.max_context_doc_tokens,
        config.templates_dir,
    )
    request = CompletionRequest(
        prompt,
        max_new_tokens=config.max_new_tokens,
        temperature=config.temperature,
        want_first_token_logprobs=False,
    )

    def sample(_: int) -> str:
        for _attempt in range(2):  # an empty or non-string sample is retried once
            text = complete(gateway, request).text
            if isinstance(text, str) and text.strip():
                return text
        return ""  # dropped below, as an empty sample is

    docs = []
    for i, text in enumerate(map_in_order(sample, range(config.n_samples), max_workers)):
        if text:
            docs.append(text)
        else:
            log.warning("dropping empty hypothetical document sample %d for query %s", i, query.query_id)
    if not docs:
        raise AllSamplesEmpty(f"all {config.n_samples} samples were empty or not text for query {query.query_id}")
    return docs
