import json
import math
import re
import time

import pytest

from rede.errors import BackendRejected, BackendTimeout, BackendUnavailable
from rede.gateway import (
    CompletionRequest,
    HttpGateway,
    MockGateway,
    complete,
)


class TestRequestValidation:
    def test_bad_max_tokens(self):
        with pytest.raises(ValueError):
            CompletionRequest("p", max_new_tokens=0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            CompletionRequest("p", temperature=-0.1)

    def test_nan_temperature(self):
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0, got nan"):
            CompletionRequest("p", temperature=float("nan"))

    def test_infinite_temperature(self):
        # an infinite temperature would reach the request body, which JSON cannot carry
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0, got inf"):
            CompletionRequest("p", temperature=math.inf)

    def test_bad_top_logprobs(self):
        with pytest.raises(ValueError):
            CompletionRequest("p", top_logprobs=0)

    @pytest.mark.parametrize("key", ["max_new_tokens", "top_logprobs"])
    def test_counts_must_be_integers(self, key):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got 2.5"):
            CompletionRequest("p", **{key: 2.5})


SCRIPT = [
    {"match_substring": "Query: q1", "text": "1", "first_token_logprobs": {"1": -0.1, "0": -2.3}},
    {"match_substring": "", "text": "fallback"},
]


class TestMockGateway:
    def test_scripted_match(self):
        mock = MockGateway(SCRIPT)
        resp = complete(mock, CompletionRequest("judge this. Query: q1",
                                                want_first_token_logprobs=True))
        assert resp.text == "1"
        assert resp.first_token_logprobs == {"1": -0.1, "0": -2.3}

    def test_first_match_wins(self):
        mock = MockGateway(SCRIPT)
        assert complete(mock, CompletionRequest("anything else")).text == "fallback"

    def test_deterministic(self):
        mock = MockGateway(SCRIPT)
        req = CompletionRequest("Query: q1", temperature=0.0, want_first_token_logprobs=True)
        assert complete(mock, req) == complete(mock, req)

    def test_logprob_reply_is_returned_as_given(self):
        # whether a map can be read is the judge's rule (test_judge.py), not the gateway's
        for entry in ({"text": "x"}, {"text": "x", "first_token_logprobs": {}}):
            mock = MockGateway([{"match_substring": "", **entry}])
            resp = complete(mock, CompletionRequest("p", want_first_token_logprobs=True))
            assert resp.first_token_logprobs == entry.get("first_token_logprobs")
            assert mock.counter.attempts == 1
            assert complete(mock, CompletionRequest("p")).text == "x"  # a text request needs none

    def test_no_match(self):
        mock = MockGateway([{"match_substring": "never-present", "text": "x"}])
        with pytest.raises(BackendUnavailable):
            complete(mock, CompletionRequest("p"))
        assert mock.counter.attempts == 1  # a scripted reply does not change on retry

    @pytest.mark.parametrize("key, value", [("retries", 1), ("retries", 0), ("backoff_s", 0.0)])
    def test_takes_no_retry_settings(self, key, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            MockGateway(SCRIPT, **{key: value})

    @pytest.mark.parametrize("script", [
        {"match_substring": "", "text": "x"}, [1], [{"match_substring": 5, "text": "x"}],
    ], ids=["object", "non-object entry", "non-string match_substring"])
    def test_malformed_script_rejected_at_construction(self, script):
        with pytest.raises(ValueError, match="mock script must be a list of objects"):
            MockGateway(script)

    @pytest.mark.parametrize("kwargs", [
        {"logprob_delay_s": float("nan")}, {"text_delay_s": -0.1}, {"logprob_delay_s": "x"},
    ])
    def test_bad_delay_kwarg_rejected_at_construction(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            MockGateway(SCRIPT, **kwargs)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1, "x", 1e300, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name", ["logprob_delay_s", "text_delay_s"])
    def test_bad_delay_rejected_at_construction(self, name, value):
        # a delay past a day (an infinite one, 1e300 or a 400-digit integer) would reach
        # time.sleep, whose OverflowError is not a RedeError
        message = f"{name} must be a finite number in [0, 86400], got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MockGateway(SCRIPT, **{name: value})

    def test_replay_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(SCRIPT))
        mock = MockGateway.from_script_file(str(path))
        assert complete(mock, CompletionRequest("Query: q1")).text == "1"

    def test_counter_split(self):
        mock = MockGateway(SCRIPT)
        complete(mock, CompletionRequest("Query: q1", want_first_token_logprobs=True))
        complete(mock, CompletionRequest("gen"))
        complete(mock, CompletionRequest("gen"))
        assert mock.counter.total == 3
        assert mock.counter.logprob_calls == 1
        assert mock.counter.text_calls == 2
        with pytest.raises(AttributeError):  # total is the sum of the two, not a third count
            mock.counter.total = 0
        mock.counter.reset()
        assert (mock.counter.total, mock.counter.logprob_calls, mock.counter.text_calls) == (0, 0, 0)

    def test_per_call_delay(self):
        mock = MockGateway(SCRIPT, logprob_delay_s=0.03, text_delay_s=0.0)
        t0 = time.perf_counter()
        complete(mock, CompletionRequest("Query: q1", want_first_token_logprobs=True))
        slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        complete(mock, CompletionRequest("gen"))
        fast = time.perf_counter() - t0
        assert slow >= 0.03
        assert fast < 0.03


class TestHttpGateway:
    @pytest.mark.parametrize("retries", [-1, 1.5])
    def test_bad_retries_rejected_at_construction(self, retries):
        with pytest.raises(ValueError, match="retries must be"):
            HttpGateway("http://127.0.0.1:9", retries=retries)

    @pytest.mark.parametrize("key, value, message", [
        *[("backoff_s", v, "backoff_s must be a finite number in [0, 86400]")
          for v in ("x", None, float("nan"), float("inf"), -1, -0.1, 1e300, 10**400)],
        *[("timeout", v, "timeout must be a finite number in (0, 86400]")
          for v in ("x", None, float("nan"), float("inf"), 0, 1e300, 10**400)],
    ], ids=lambda x: "10**400" if x == 10**400 else None)
    def test_bad_backoff_or_timeout_rejected_at_construction(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {value!r}")):
            HttpGateway("http://127.0.0.1:9", **{key: value})

    def test_happy_path(self, http_server):
        url, state = http_server
        state["handler"] = lambda body: (
            200,
            {"text": "1", "first_token_logprobs": {"1": -0.2, "0": -1.7}},
        )
        gw = HttpGateway(url, "test-model", retries=0)
        resp = complete(gw, CompletionRequest("judge", want_first_token_logprobs=True, top_logprobs=5))
        assert resp.text == "1"
        assert state["requests"][0]["model"] == "test-model"
        assert state["requests"][0]["logprobs"] == 5

    def test_logprobs_not_requested_not_sent(self, http_server):
        url, state = http_server
        state["handler"] = lambda body: (200, {"text": "out"})
        gw = HttpGateway(url, "m", retries=0)
        assert complete(gw, CompletionRequest("gen")).text == "out"
        assert "logprobs" not in state["requests"][0]

    def test_logprob_reply_is_returned_as_given(self, http_server):
        # whether a map can be read is the judge's rule (test_judge.py), not the gateway's
        url, state = http_server
        for logprobs in (None, {}, [-0.1, -2.0], {"1": "high"}, {"1": -0.1, "0": None}, {"1": True}):
            reply = {"text": "1"} if logprobs is None else {"text": "1", "first_token_logprobs": logprobs}
            state["handler"] = lambda body: (200, reply)
            gw = HttpGateway(url, "m", retries=3, backoff_s=0.0)
            resp = complete(gw, CompletionRequest("judge", want_first_token_logprobs=True))
            assert (resp.text, resp.first_token_logprobs) == ("1", logprobs)
            assert gw.counter.attempts == 1

    def test_non_object_reply_is_unavailable(self, http_server):
        url, state = http_server
        for reply in ([1, 2], "text", None):
            state["handler"] = lambda body: (200, reply)
            gw = HttpGateway(url, retries=1, backoff_s=0.0)
            with pytest.raises(BackendUnavailable, match="replied with a JSON"):
                complete(gw, CompletionRequest("p"))
            assert gw.counter.attempts == 2  # a garbled reply is retried like a transport error

    def test_non_string_text_on_a_generation_reply_is_returned_as_given(self, http_server):
        # whether a text can be used is HyDE's rule; the JSON integer reads as a float
        url, state = http_server
        for text, decoded in ((None, None), (5, 5.0)):
            state["handler"] = lambda body: (200, {"text": text})
            gw = HttpGateway(url, retries=1, backoff_s=0.0)
            reply = complete(gw, CompletionRequest("p"))
            assert (reply.text, type(reply.text)) == (decoded, type(decoded))
            assert gw.counter.attempts == 1

    def test_bounded_retries_then_success(self, http_server):
        url, state = http_server
        failures = {"left": 2}

        def flaky(body):
            if failures["left"] > 0:
                failures["left"] -= 1
                return 500, {}
            return 200, {"text": "ok"}

        state["handler"] = flaky
        gw = HttpGateway(url, "m", retries=3, backoff_s=0.0)
        assert complete(gw, CompletionRequest("p")).text == "ok"
        assert gw.counter.attempts == 3
        assert gw.counter.total == 1

    def test_exhausted_retries(self, http_server):
        # a 4xx other than 408 and 429 is the request's fault: no retry
        url, state = http_server
        for status, error, attempts in ((500, BackendUnavailable, 3), (429, BackendUnavailable, 3),
                                        (400, BackendRejected, 1)):
            state["handler"] = lambda body: (status, {})
            gw = HttpGateway(url, "m", retries=2, backoff_s=0.0)
            with pytest.raises(error):
                complete(gw, CompletionRequest("p"))
            assert gw.counter.attempts == attempts

    def test_timeout(self, http_server):
        url, state = http_server

        def slow(body):
            time.sleep(0.5)
            return 200, {"text": "late"}

        state["handler"] = slow
        gw = HttpGateway(url, "m", timeout=0.1, retries=1, backoff_s=0.0)
        with pytest.raises(BackendTimeout):
            complete(gw, CompletionRequest("p"))
