"""A modelled LLM behind the gateway's ``send()`` contract.

It charges a fixed delay per call (``time.sleep``, so the GIL is free while
it "computes") and answers from lookup tables, so its own CPU per call is a
few microseconds next to the charged milliseconds. ``MockGateway`` matches
its script by substring in order, which costs about 1 ms per call with a
per-pair script; that would make the gateway layer measure the mock.

Judge replies: "relevant" exactly for the qrels pairs; a stated share of
replies, picked by a hash of the prompt, carries neither designated token.
Generation replies: one hypothetical passage per query, found by the query
text that ends the HyDE prompt.
"""

from __future__ import annotations

import time
import zlib

from rede.gateway import CallCounter, CompletionResponse
from rede.judge import render_judge_prompt

JUDGE_DELAY_S = 0.004  # charged per judge (first-token logprob) call
TEXT_DELAY_S = 0.020   # charged per generated hypothetical passage
NO_TOKEN_SHARE = 0.03  # judge replies with neither "1" nor "0"
HYPO_NOISE = 0.6       # noise on the hypothetical passages' planted vectors

_RELEVANT = {"1": -0.02, "0": -4.0}
_NOT_RELEVANT = {"0": -0.02, "1": -4.0}
_NO_TOKEN = {"Yes": -0.1, "No": -2.4}


class ModelledLlm:
    def __init__(self, parallelism: int, template_id: str = "default"):
        self.logprob_delay_s = JUDGE_DELAY_S
        self.text_delay_s = TEXT_DELAY_S
        self.no_token_cut = int(NO_TOKEN_SHARE * 1000)
        self.parallelism = parallelism
        self.template_id = template_id
        self.retries = 3
        self.backoff_s = 0.0
        self.counter = CallCounter()
        self.relevant_prompts: set[str] = set()
        self.passages: dict[str, str] = {}

    def learn(self, relevant_pairs, passages: dict[str, str]) -> None:
        """Relevant (query text, doc text) pairs, and query text -> hypothetical passage."""
        # exact rendered prompts of the relevant pairs: one set lookup per call
        self.relevant_prompts = {
            render_judge_prompt(self.template_id, query_text, doc_text).rendered
            for query_text, doc_text in relevant_pairs
        }
        self.passages = passages

    def send(self, request) -> CompletionResponse:
        if request.want_first_token_logprobs:
            if self.logprob_delay_s > 0:
                time.sleep(self.logprob_delay_s)
            prompt = request.prompt
            if zlib.crc32(prompt.encode("utf-8")) % 1000 < self.no_token_cut:
                return CompletionResponse("Maybe", dict(_NO_TOKEN))
            if prompt in self.relevant_prompts:
                return CompletionResponse("1", dict(_RELEVANT))
            return CompletionResponse("0", dict(_NOT_RELEVANT))
        if self.text_delay_s > 0:
            time.sleep(self.text_delay_s)
        query_text = request.prompt.rsplit("Question: ", 1)[-1].split("\nPassage:", 1)[0]
        return CompletionResponse(self.passages[query_text])
