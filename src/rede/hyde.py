"""Hypothetical-document sampling for generation-based query refinement.

Prompts live in ``templates/hyde/`` as ``{family}.txt`` (no context) and
``{family}_context.txt`` (top retrieved documents prepended as context,
the pseudo-relevance-feedback variant). Each invocation draws
``n_samples`` independent completions at the configured temperature.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import AllSamplesEmpty
from .gateway import CompletionRequest, complete
from .judge import HYDE_TASK_FAMILIES, load_template, map_in_order, truncate_tokens

log = logging.getLogger(__name__)


@dataclass
class HydeConfig:
    n_samples: int = 8
    temperature: float = 0.7
    max_new_tokens: int = 512
    task_template: str = "web_search"
    context_docs: int = 0  # 0 = no context form
    max_context_doc_tokens: int = 128
    templates_dir: str | None = None  # None: templates shipped in-package

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.context_docs < 0:
            raise ValueError("context_docs must be >= 0")
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
        return load_template("hyde", task_template, templates_dir).replace("{query}", query_text)
    template = load_template("hyde_context", task_template, templates_dir)
    context = "\n".join(truncate_tokens(doc, max_context_doc_tokens) for doc in context_docs)
    return template.replace("{context}", context).replace("{query}", query_text)


def generate_hypothetical_docs(
    gateway,
    config: HydeConfig,
    query_text: str,
    context_texts: list[str] | None = None,
    max_workers: int = 1,
) -> list[str]:
    """Sample n_samples hypothetical documents, in sample-index order.

    An empty completion is retried once and then dropped with a warning;
    if every sample ends up empty, AllSamplesEmpty is raised.
    """
    context = None
    if context_texts and config.context_docs > 0:
        context = context_texts[: config.context_docs]
    prompt = render_hyde_prompt(
        config.task_template, query_text, context, config.max_context_doc_tokens,
        config.templates_dir,
    )
    request = CompletionRequest(
        prompt,
        max_new_tokens=config.max_new_tokens,
        temperature=config.temperature,
        want_first_token_logprobs=False,
    )

    def sample(_: int) -> str:
        text = complete(gateway, request).text
        if not text.strip():
            text = complete(gateway, request).text  # one retry for an empty sample
        return text

    docs = []
    for i, text in enumerate(map_in_order(sample, range(config.n_samples), max_workers)):
        if text.strip():
            docs.append(text)
        else:
            log.warning("dropping empty hypothetical document sample %d", i)
    if not docs:
        raise AllSamplesEmpty(f"all {config.n_samples} samples were empty")
    return docs
