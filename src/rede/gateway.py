"""Single contract for generative-model access.

Backends implement ``send(request) -> CompletionResponse``. ``complete``
adds bounded retries with exponential backoff and feeds the per-backend
instrumentation counter that the latency harness reads. The HTTP backend
speaks a minimal completion protocol:

    POST {"model", "prompt", "max_tokens", "temperature", "logprobs": N}
    ->   {"text", "first_token_logprobs": {token: logprob}}

The mock backend replays a JSON script (list of
``{"match_substring", "text", "first_token_logprobs"}`` entries, first
match wins) and can charge a fixed per-call delay, which is what the
latency benchmark uses to make LLM cost observable without a model.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import requests

from .errors import BackendRejected, BackendTimeout, BackendUnavailable, LogprobsUnsupported


@dataclass
class CompletionRequest:
    prompt: str
    max_new_tokens: int = 256
    temperature: float = 0.0
    want_first_token_logprobs: bool = False
    top_logprobs: int = 10

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.top_logprobs < 1:
            raise ValueError("top_logprobs must be >= 1")


@dataclass
class CompletionResponse:
    text: str
    first_token_logprobs: dict[str, float] | None = None


@dataclass
class CallCounter:
    """Thread-safe instrumentation: logical calls plus wire-level attempts."""

    total: int = 0
    logprob_calls: int = 0
    text_calls: int = 0
    attempts: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_call(self, want_logprobs: bool) -> None:
        with self._lock:
            self.total += 1
            if want_logprobs:
                self.logprob_calls += 1
            else:
                self.text_calls += 1

    def record_attempt(self) -> None:
        with self._lock:
            self.attempts += 1

    def reset(self) -> None:
        with self._lock:
            self.total = self.logprob_calls = self.text_calls = self.attempts = 0


class HttpGateway:
    """Completion backend over HTTP; chat-template wrapping is server-side."""

    def __init__(self, url: str, model: str, timeout: float = 60.0,
                 retries: int = 3, backoff_s: float = 0.25, parallelism: int = 4):
        self.url = url
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.parallelism = parallelism
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
        try:
            resp = requests.post(self.url, json=payload, timeout=self.timeout)
            resp.raise_for_status()
            obj = resp.json()
        except requests.Timeout as exc:
            raise BackendTimeout(f"gateway at {self.url} timed out") from exc
        except requests.HTTPError as exc:
            # 4xx other than 408 (request timeout) and 429 (rate limit): the request is at fault
            if exc.response.status_code < 500 and exc.response.status_code not in (408, 429):
                raise BackendRejected(f"gateway at {self.url} rejected the request: {exc}") from exc
            raise BackendUnavailable(f"gateway at {self.url}: {exc}") from exc
        except (requests.RequestException, ValueError) as exc:
            raise BackendUnavailable(f"gateway at {self.url}: {exc}") from exc
        return CompletionResponse(obj.get("text", ""), obj.get("first_token_logprobs"))


class MockGateway:
    """Deterministic scripted backend; replays entries by prompt substring."""

    def __init__(self, script: list[dict], logprob_delay_s: float = 0.0,
                 text_delay_s: float = 0.0, retries: int = 3, backoff_s: float = 0.0,
                 parallelism: int = 1):
        self.script = script
        self.logprob_delay_s = logprob_delay_s
        self.text_delay_s = text_delay_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.parallelism = parallelism
        self.counter = CallCounter()

    @classmethod
    def from_script_file(cls, path: str, **kwargs) -> "MockGateway":
        with open(path, "r", encoding="utf-8") as f:
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
    once. A logprob request whose reply has no or empty logprobs raises
    LogprobsUnsupported without a retry.
    """
    backend.counter.record_call(request.want_first_token_logprobs)
    for attempt in range(backend.retries + 1):
        backend.counter.record_attempt()
        try:
            response = backend.send(request)
        except (BackendUnavailable, BackendTimeout):
            if attempt == backend.retries:
                raise
            if backend.backoff_s > 0:
                time.sleep(backend.backoff_s * (2**attempt))
            continue
        if request.want_first_token_logprobs and not response.first_token_logprobs:
            raise LogprobsUnsupported("backend returned no first-token logprobs")
        return response
