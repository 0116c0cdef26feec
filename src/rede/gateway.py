"""Single contract for generative-model access.

Backends implement ``send(request) -> CompletionResponse``. ``complete``
is transport only: it adds bounded retries with exponential backoff and
feeds the per-backend instrumentation counter, which callers read, and the
counter of the query being searched, which fills its trace; the latency
harness sums the traces. A logprob reply is returned as the backend gave
it: whether its map can be read is the judge's rule. The HTTP backend
speaks a minimal completion protocol:

    POST {"model", "prompt", "max_tokens", "temperature", "logprobs": N}
    ->   {"text", "first_token_logprobs": {token: logprob}}

The mock backend replays a JSON script, never retries (a scripted reply
does not change on retry) and can charge a fixed per-call delay, which is
what the latency benchmark uses to make LLM cost observable without a
model. The script is a list of objects
``{"match_substring", "text", "first_token_logprobs"}``; the first entry
whose ``match_substring`` (a string, default "" which matches every
prompt) occurs in the prompt wins. Any other shape is a ValueError when
the backend is built.
"""

from __future__ import annotations

import json
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

import requests

from .errors import BackendRejected, BackendTimeout, BackendUnavailable, check_count, check_real

# a day, the longest timeout, delay or backoff any backend takes: time.sleep overflows long
# before math.inf, and its OverflowError is not a RedeError
MAX_WAIT_S = 86_400


@dataclass
class CompletionRequest:
    prompt: str
    max_new_tokens: int = 256
    temperature: float = 0.0
    want_first_token_logprobs: bool = False
    top_logprobs: int = 10

    def __post_init__(self) -> None:
        check_count("max_new_tokens", self.max_new_tokens, 1)
        check_real("temperature", self.temperature)
        check_count("top_logprobs", self.top_logprobs, 1)


@dataclass
class CompletionResponse:
    text: str
    first_token_logprobs: dict[str, float] | None = None


@dataclass
class CallCounter:
    """Thread-safe instrumentation: logical calls plus wire-level attempts."""

    logprob_calls: int = 0
    text_calls: int = 0
    attempts: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_call(self, want_logprobs: bool) -> None:
        with self._lock:
            if want_logprobs:
                self.logprob_calls += 1
            else:
                self.text_calls += 1

    def record_attempt(self) -> None:
        with self._lock:
            self.attempts += 1

    def reset(self) -> None:
        with self._lock:
            self.logprob_calls = self.text_calls = self.attempts = 0

    @property
    def total(self) -> int:
        return self.logprob_calls + self.text_calls


# the calls of the one query running in this context; the pipeline sets it per search
QUERY_CALLS: ContextVar[CallCounter | None] = ContextVar("QUERY_CALLS", default=None)


def post_json(url: str, payload: dict, timeout: float) -> dict:
    """The reply's JSON object. A timeout is BackendTimeout; a 4xx other than 408 (request
    timeout) and 429 (rate limit) is the request's fault, BackendRejected; any other
    failure, or a reply that is not a JSON object, is BackendUnavailable."""
    try:
        resp = requests.post(url, json=payload, timeout=timeout)
        resp.raise_for_status()
        obj = resp.json()
    except requests.Timeout as exc:
        raise BackendTimeout(f"backend at {url} timed out") from exc
    except requests.HTTPError as exc:
        if exc.response.status_code < 500 and exc.response.status_code not in (408, 429):
            raise BackendRejected(f"backend at {url} rejected the request: {exc}") from exc
        raise BackendUnavailable(f"backend at {url}: {exc}") from exc
    except (requests.RequestException, ValueError) as exc:
        raise BackendUnavailable(f"backend at {url}: {exc}") from exc
    if not isinstance(obj, dict):
        raise BackendUnavailable(f"backend at {url} replied with a JSON {type(obj).__name__}")
    return obj


class HttpGateway:
    """Completion backend over HTTP; chat-template wrapping is server-side."""

    def __init__(self, url: str, model: str = "completion-model", timeout: float = 60.0,
                 retries: int = 3, backoff_s: float = 0.25):
        check_count("retries", retries, 0)
        check_real("timeout", timeout, MAX_WAIT_S, positive=True)
        check_real("backoff_s", backoff_s, MAX_WAIT_S)
        self.url = url
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.counter = CallCounter()

    def send(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
        }
        if request.want_first_token_logprobs:
            payload["logprobs"] = request.top_logprobs
        obj = post_json(self.url, payload, self.timeout)
        return CompletionResponse(obj.get("text", ""), obj.get("first_token_logprobs"))


class MockGateway:
    """Deterministic scripted backend; replays entries by prompt substring, in one attempt."""

    retries, backoff_s = 0, 0.0  # read by complete(): a scripted reply does not change on retry

    def __init__(self, script: list[dict], logprob_delay_s: float = 0.0, text_delay_s: float = 0.0):
        if not isinstance(script, list) or not all(
                isinstance(e, dict) and isinstance(e.get("match_substring", ""), str) for e in script):
            raise ValueError("mock script must be a list of objects whose match_substring is a string")
        check_real("logprob_delay_s", logprob_delay_s, MAX_WAIT_S)
        check_real("text_delay_s", text_delay_s, MAX_WAIT_S)
        self.script = script
        self.logprob_delay_s = logprob_delay_s
        self.text_delay_s = text_delay_s
        self.counter = CallCounter()

    @classmethod
    def from_script_file(cls, mock_script: str, **kwargs) -> "MockGateway":
        with open(mock_script, "r", encoding="utf-8") as f:
            return cls(json.load(f), **kwargs)

    def send(self, request: CompletionRequest) -> CompletionResponse:
        delay = self.logprob_delay_s if request.want_first_token_logprobs else self.text_delay_s
        if delay > 0:
            time.sleep(delay)
        for entry in self.script:
            if entry.get("match_substring", "") in request.prompt:
                return CompletionResponse(entry.get("text", ""), entry.get("first_token_logprobs"))
        raise BackendUnavailable("no scripted entry matches the prompt")


def complete(backend, request: CompletionRequest) -> CompletionResponse:
    """Issue one completion with bounded retries and exponential backoff.

    Transport errors (BackendUnavailable, BackendTimeout) are retried up to
    ``backend.retries`` times before propagating; anything else propagates at
    once. A generation reply whose text is not a string counts as
    BackendUnavailable, as a reply that is not a JSON object does. A logprob
    reply is returned whatever its map: the judge reads it. The call is
    counted on ``backend.counter`` and on the ``QUERY_CALLS`` counter of the
    current context, if one is set; attempts only on ``backend.counter``.
    """
    backend.counter.record_call(request.want_first_token_logprobs)
    query_calls = QUERY_CALLS.get()
    if query_calls is not None:
        query_calls.record_call(request.want_first_token_logprobs)
    for attempt in range(backend.retries + 1):
        backend.counter.record_attempt()
        try:
            response = backend.send(request)
            if not (request.want_first_token_logprobs or isinstance(response.text, str)):
                raise BackendUnavailable(f"backend replied with a {type(response.text).__name__} text")
            return response
        except (BackendUnavailable, BackendTimeout):
            if attempt == backend.retries:
                raise
            if backend.backoff_s > 0:
                time.sleep(backend.backoff_s * (2**attempt))
