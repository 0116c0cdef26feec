"""Property test of the reply readers: whatever JSON a script file holds, the judge and HyDE
either read a usable value or raise their own typed error."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from rede.corpus import Query
from rede.errors import AllSamplesEmpty, JudgeUnavailable
from rede.gateway import MockGateway
from rede.hyde import HydeConfig, generate_hypothetical_docs
from rede.judge import LlmJudge, score_relevance

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
