"""Property tests of the reply readers: whatever JSON a script file or an encoder backend
holds, the judge, HyDE and the engine either read a usable value or raise a typed error."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rede.corpus import Document, Query
from rede.dense import HttpEncoder, build_dense_index
from rede.errors import AllSamplesEmpty, BackendUnavailable, DimMismatch, JudgeUnavailable, NonFiniteVector
from rede.gateway import MockGateway
from rede.hyde import HydeConfig, generate_hypothetical_docs
from rede.judge import LlmJudge, score_relevance
from rede.pipeline import SearchEngine

QUERY = Query("q1", "how do submarines navigate")

SCALARS = st.one_of(
    st.floats(),  # NaN and ±Infinity included
    st.integers(),
    st.integers(-10**400, 10**400),  # up to 401 digits: past float range
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
LOGPROB_MAPS = st.dictionaries(st.sampled_from(["1", "0", "the"]) | st.text(max_size=3), JSON_VALUES,
                               max_size=4)


@pytest.fixture(scope="module")
def script_path(tmp_path_factory):
    return tmp_path_factory.mktemp("replies") / "script.json"


def gateway_of(path, entry) -> MockGateway:
    # json.dumps writes a float's NaN or Infinity and an int's every digit, as a backend might
    path.write_text(json.dumps([{"match_substring": "", **entry}]))
    return MockGateway.from_script_file(str(path))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.fixed_dictionaries({}, optional={"text": JSON_VALUES,
                                           "first_token_logprobs": LOGPROB_MAPS | JSON_VALUES}))
def test_every_reply_is_read_or_refused_with_a_typed_error(script_path, entry):
    gateway = gateway_of(script_path, entry)
    try:
        p = score_relevance(LlmJudge(gateway), QUERY, "d1", "doc").p_relevant
        assert 0.0 <= p <= 1.0
    except JudgeUnavailable:
        pass
    try:
        docs = generate_hypothetical_docs(gateway, HydeConfig(n_samples=2), QUERY)
        assert docs and all(isinstance(doc, str) and doc.strip() for doc in docs)
    except AllSamplesEmpty:
        pass


# a dim-2 bundle, and replies of one row of two numbers, the one shape it reads
ENGINE = SearchEngine({"d1": Document("d1", "", "sonar"), "d2": Document("d2", "", "compass")}, None,
                      build_dense_index(["d1", "d2"], [[1.0, 0.0], [0.0, 1.0]]),
                      HttpEncoder("http://127.0.0.1:1/nothing"))
ROWS_OF_TWO = st.lists(st.lists(st.floats() | st.integers(-10**400, 10**400), min_size=2, max_size=2),
                       min_size=1, max_size=1)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(JSON_VALUES | ROWS_OF_TWO | st.lists(st.lists(SCALARS, max_size=3), max_size=3))
def test_every_encoder_reply_is_read_or_refused_with_a_typed_error(vectors):
    # decoded as post_json decodes a reply: json.dumps writes NaN, Infinity and every digit
    reply = json.loads(json.dumps({"vectors": vectors}), parse_int=float)
    with mock.patch("rede.dense.post_json", return_value=reply):
        try:
            result, _ = ENGINE.search("dense", QUERY)
        except (DimMismatch, NonFiniteVector, BackendUnavailable):
            return
    result.validate()
    # each document's score is the reply's value in float32
    assert dict(result.entries) == dict(zip(["d1", "d2"], np.float32(reply["vectors"][0]).tolist()))
