import math

import numpy as np
import pytest

from rede.corpus import Query, RankedList
from rede.errors import JudgeUnavailable, UnknownDocId, UnknownTemplate
from rede.gateway import HttpGateway, MockGateway
from rede.judge import (
    JUDGE_TEMPLATE_IDS,
    LexicalJudge,
    LlmJudge,
    OracleJudge,
    judge_candidates,
    render_judge_prompt,
    score_relevance,
    truncate_tokens,
)
from rede.pipeline import rerank_by_judge

QUERY = Query("q1", "how do submarines navigate")


class TestRenderPrompt:
    def test_truncation_to_128_tokens(self):
        doc = " ".join(f"tok{i}" for i in range(200))
        prompt = render_judge_prompt("default", "q text", doc)
        assert "tok127" in prompt.rendered
        assert "tok128" not in prompt.rendered

    def test_short_doc_untouched(self):
        prompt = render_judge_prompt("default", "q text", "one two three four five")
        assert "one two three four five" in prompt.rendered

    def test_rg_yn_star_contains_relevance_definition(self):
        prompt = render_judge_prompt("rg_yn_star", "q", "d")
        assert "dedicated to the query and contains the exact answer" in prompt.rendered

    def test_placeholders_filled(self):
        for template_id in JUDGE_TEMPLATE_IDS:
            prompt = render_judge_prompt(template_id, "UNIQUE-QUERY", "UNIQUE-DOC")
            assert "UNIQUE-QUERY" in prompt.rendered
            assert "UNIQUE-DOC" in prompt.rendered
            assert "{query}" not in prompt.rendered
            assert "{document}" not in prompt.rendered

    def test_query_text_is_never_read_as_a_placeholder(self):
        # the query is inserted as it is, even where it reads like another placeholder
        for template_id in JUDGE_TEMPLATE_IDS:
            rendered = render_judge_prompt(template_id, "what does {document} mean", "DOC").rendered
            assert "what does {document} mean" in rendered
            assert rendered.count("DOC") == 1

    def test_unknown_template(self):
        for template_id in ("nope", "../hyde/web_search"):
            with pytest.raises(UnknownTemplate):
                render_judge_prompt(template_id, "q", "d")
            with pytest.raises(UnknownTemplate):
                LlmJudge(MockGateway([]), template_id=template_id)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            render_judge_prompt("default", "", "d")

    def test_custom_templates_dir(self, tmp_path):
        (tmp_path / "mine.txt").write_text("Q={query} D={document}")
        prompt = render_judge_prompt("mine", "a", "b", templates_dir=str(tmp_path))
        assert prompt.rendered == "Q=a D=b"

    def test_custom_dir_rejects_path_separators(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "mine.txt").write_text("{query} {document}")
        (tmp_path / "mine.txt").write_text("{query} {document}")
        for name in ("sub/mine", "sub\\mine", "../" + tmp_path.name + "/mine"):
            with pytest.raises(UnknownTemplate):
                render_judge_prompt(name, "q", "d", templates_dir=str(tmp_path))

    def test_template_read_once_per_process(self, tmp_path):
        path = tmp_path / "once.txt"
        path.write_text("first {query} {document}")
        assert render_judge_prompt("once", "q", "d", templates_dir=str(tmp_path)).rendered == "first q d"
        path.write_text("second {query} {document}")
        assert render_judge_prompt("once", "q", "d", templates_dir=str(tmp_path)).rendered == "first q d"

    def test_truncate_tokens_helper(self):
        assert truncate_tokens("a  b\tc\nd", 3) == "a b c"


def llm_judge_for(script, **kwargs):
    return LlmJudge(MockGateway(script), **kwargs)


class TestScoreRelevance:
    def test_softmax_value(self):
        judge = llm_judge_for(
            [{"match_substring": "", "text": "1", "first_token_logprobs": {"1": -0.1, "0": -2.3}}]
        )
        j = score_relevance(judge, QUERY, "d1", "some doc")
        assert j.p_relevant == pytest.approx(0.9002495108803148, abs=1e-9)
        assert j.label is True

    def test_equal_logprobs_label_false(self):
        judge = llm_judge_for(
            [{"match_substring": "", "text": "0", "first_token_logprobs": {"1": -1.0, "0": -1.0}}]
        )
        j = score_relevance(judge, QUERY, "d1", "doc")
        assert j.p_relevant == pytest.approx(0.5)
        assert j.label is False

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            lp1, lp0 = float(-rng.uniform(0, 5)), float(-rng.uniform(0, 5))
            shift = float(rng.uniform(-3, 0))
            base = llm_judge_for(
                [{"match_substring": "", "text": "", "first_token_logprobs": {"1": lp1, "0": lp0}}]
            )
            shifted = llm_judge_for(
                [{"match_substring": "", "text": "",
                  "first_token_logprobs": {"1": lp1 + shift, "0": lp0 + shift}}]
            )
            a = score_relevance(base, QUERY, "d", "t").p_relevant
            b = score_relevance(shifted, QUERY, "d", "t").p_relevant
            assert a == pytest.approx(b, abs=1e-12)

    def test_one_token_missing_gets_floor(self):
        # "0" missing from the returned top-K: assign min(returned) - 10
        judge = llm_judge_for(
            [{"match_substring": "", "text": "1",
              "first_token_logprobs": {"1": -0.4, "the": -3.0}}]
        )
        j = score_relevance(judge, QUERY, "d1", "doc")
        expected = math.exp(-0.4) / (math.exp(-0.4) + math.exp(-13.0))
        assert j.p_relevant == pytest.approx(expected, abs=1e-12)
        assert j.label is True

    def test_both_tokens_missing(self):
        judge = llm_judge_for(
            [{"match_substring": "", "text": "x", "first_token_logprobs": {"the": -1.0}}]
        )
        with pytest.raises(JudgeUnavailable):
            score_relevance(judge, QUERY, "d1", "doc")

    def test_extreme_logprobs_stay_finite(self):
        # both exp() calls of a plain softmax underflow to 0 here
        for lp1, lp0, expected in ((-800.0, -801.0, 0.7310585786300049),
                                   (-801.0, -800.0, 0.2689414213699951)):
            judge = llm_judge_for(
                [{"match_substring": "", "text": "1", "first_token_logprobs": {"1": lp1, "0": lp0}}]
            )
            j = score_relevance(judge, QUERY, "d1", "doc")
            assert j.p_relevant == pytest.approx(expected, abs=1e-12)
            assert j.label is (expected > 0.5)

    @pytest.mark.parametrize("logprobs", [
        {"1": math.nan, "0": -1.0},
        {"1": -1.0, "0": math.nan},
        {"1": 0.5, "0": -1.0},
        {"1": -1.0, "0": 0.5},
        {"1": -math.inf, "0": -math.inf},
        {"the": math.nan, "1": -0.5},  # the floor for the missing "0" would be NaN
    ])
    def test_malformed_logprobs_raise(self, logprobs):
        judge = llm_judge_for(
            [{"match_substring": "", "text": "1", "first_token_logprobs": logprobs}]
        )
        with pytest.raises(JudgeUnavailable):
            score_relevance(judge, QUERY, "d1", "doc")

    @pytest.mark.parametrize("entry", [{"text": "x"}, {"text": "x", "first_token_logprobs": {}}],
                             ids=["no map", "empty map"])
    def test_scripted_reply_without_a_usable_map_is_unavailable(self, entry):
        mock = MockGateway([{"match_substring": "", **entry}])
        with pytest.raises(JudgeUnavailable, match="no usable first-token logprobs"):
            LlmJudge(mock).p_relevant(QUERY, "d1", "doc")
        assert mock.counter.attempts == 1  # not retried

    @pytest.mark.parametrize("logprobs", [
        None, {}, [-0.1, -2.0], {"1": "high"}, {"1": -0.1, "0": None}, {"1": True},
    ], ids=repr)
    def test_http_reply_without_a_usable_map_is_unavailable(self, http_server, logprobs):
        url, state = http_server
        reply = {"text": "1"} if logprobs is None else {"text": "1", "first_token_logprobs": logprobs}
        state["handler"] = lambda body: (200, reply)
        gw = HttpGateway(url, "m", retries=3, backoff_s=0.0)
        with pytest.raises(JudgeUnavailable, match="no usable first-token logprobs"):
            LlmJudge(gw).p_relevant(QUERY, "d1", "doc")
        assert gw.counter.attempts == 1  # not retried

    def test_custom_tokens(self):
        judge = llm_judge_for(
            [{"match_substring": "", "text": "Yes",
              "first_token_logprobs": {"Yes": -0.2, "No": -1.9}}],
            template_id="rg_yn",
        )
        assert score_relevance(judge, QUERY, "d1", "doc").label is True

    @pytest.mark.parametrize("kwargs, token", [
        ({"positive_token": "1", "negative_token": "1"}, "1"),
        ({"template_id": "rg_yn", "negative_token": "Yes"}, "Yes"),
    ])
    def test_equal_answer_tokens_refused_at_construction(self, kwargs, token):
        # p would be 0.5 for every reply, so every candidate would be judged not relevant
        with pytest.raises(ValueError, match=f"positive_token and negative_token are both '{token}'"):
            LlmJudge(MockGateway([]), **kwargs)

    def test_oracle(self):
        judge = OracleJudge({"q1": {"d1": 2, "d2": 0}})
        assert score_relevance(judge, QUERY, "d1", "ignored").p_relevant == 1.0
        assert score_relevance(judge, QUERY, "d2", "ignored").p_relevant == 0.0
        assert score_relevance(judge, QUERY, "dX", "ignored").p_relevant == 0.0

    def test_lexical(self):
        judge = LexicalJudge(threshold=0.5)
        hit = score_relevance(judge, Query("q", "a b"), "d", "a b")
        miss = score_relevance(judge, Query("q", "a b"), "d", "a c d e")
        assert hit.label is True
        assert miss.label is False

    @pytest.mark.parametrize("p", [math.nan, 1.5, -0.1, math.inf])
    def test_probability_outside_unit_interval_rejected(self, p):
        class CustomJudge:
            def p_relevant(self, query, doc_id, doc_text):
                return p

        with pytest.raises(JudgeUnavailable, match="outside"):
            score_relevance(CustomJudge(), QUERY, "d1", "doc")

    def test_lexical_zero_threshold_always_relevant(self):
        judge = LexicalJudge(threshold=0.0)
        assert score_relevance(judge, QUERY, "d", "completely unrelated").label is True


def candidates(*doc_ids):
    return RankedList("q1", [(d, 1.0 - 0.01 * i) for i, d in enumerate(doc_ids)])


class ScriptedJudge:
    """p_relevant per doc text; used to drive ordering tests."""

    def __init__(self, probs):
        self.probs = probs

    def p_relevant(self, query, doc_id, doc_text):
        return self.probs[doc_text]


class FailingJudge:
    def __init__(self, fail_for=()):
        self.fail_for = set(fail_for)

    def p_relevant(self, query, doc_id, doc_text):
        if not self.fail_for or doc_text in self.fail_for:
            raise JudgeUnavailable("scripted failure")
        return 1.0


class TestJudgeCandidates:
    def test_threshold_and_ordering(self):
        texts = {"c1": "t1", "c2": "t2", "c3": "t3"}
        judge = ScriptedJudge({"t1": 0.9, "t2": 0.3, "t3": 0.7})
        cands = candidates("c1", "c2", "c3")
        result = judge_candidates(judge, QUERY, cands, texts)
        assert [(j.doc_id, j.p_relevant, j.label) for j in result] == [
            ("c1", 0.9, True), ("c2", 0.3, False), ("c3", 0.7, True)
        ]
        assert rerank_by_judge(cands, result).entries[:2] == [("c1", 0.9), ("c3", 0.7)]

    def test_ties_keep_original_rank(self):
        texts = {"c1": "t1", "c2": "t2", "c3": "t3"}
        judge = ScriptedJudge({"t1": 0.8, "t2": 0.8, "t3": 0.9})
        cands = candidates("c1", "c2", "c3")
        result = judge_candidates(judge, QUERY, cands, texts)
        assert rerank_by_judge(cands, result).doc_ids() == ["c3", "c1", "c2"]

    def test_all_below_threshold(self):
        texts = {"c1": "t1", "c2": "t2"}
        judge = ScriptedJudge({"t1": 0.2, "t2": 0.5})  # 0.5 is strictly not relevant
        result = judge_candidates(judge, QUERY, candidates("c1", "c2"), texts)
        assert [j.label for j in result] == [False, False]

    def test_oracle_exact_set(self):
        qrels = {"q1": {"d2": 1, "d7": 3, "d9": 0}}
        texts = {d: d for d in ("d1", "d2", "d7", "d9")}
        result = judge_candidates(OracleJudge(qrels), QUERY, candidates("d1", "d2", "d7", "d9"), texts)
        assert sorted(j.doc_id for j in result if j.label) == ["d2", "d7"]

    def test_unknown_candidate_raises_before_any_call(self):
        calls = []

        class CountingJudge:
            def p_relevant(self, query, doc_id, doc_text):
                calls.append(doc_id)
                return 1.0

        with pytest.raises(UnknownDocId, match="nosuchdoc"):
            judge_candidates(CountingJudge(), QUERY, candidates("c1", "nosuchdoc"), {"c1": "t1"}, 2)
        assert calls == []

    def test_empty_candidates(self):
        assert judge_candidates(ScriptedJudge({}), QUERY, RankedList("q1", []), {}) == []

    def test_order_invariance_of_scores(self):
        texts = {f"c{i}": f"t{i}" for i in range(5)}
        probs = {f"t{i}": 0.1 * i + 0.3 for i in range(5)}
        judge = ScriptedJudge(probs)
        forward = judge_candidates(judge, QUERY, candidates(*texts), texts)
        backward = judge_candidates(judge, QUERY, candidates(*reversed(list(texts))), texts)
        assert {j.doc_id: j.p_relevant for j in forward} == {j.doc_id: j.p_relevant for j in backward}

    def test_partial_failure_skips_with_warning(self, caplog):
        texts = {"c1": "t1", "c2": "t2"}
        judge = FailingJudge(fail_for={"t2"})
        with caplog.at_level("WARNING"):
            result = judge_candidates(judge, QUERY, candidates("c1", "c2"), texts)
        assert [j.doc_id for j in result] == ["c1"]
        assert any("skipping" in r.message for r in caplog.records)

    def test_unusable_http_logprobs_skip_the_candidate(self, http_server):
        url, state = http_server
        replies = {"t2": [-0.1, -2.0], "t3": {"1": "high", "0": -2.0}}
        state["handler"] = lambda body: (200, {"text": "1", "first_token_logprobs": next(
            (v for k, v in replies.items() if k in body["prompt"]), {"1": -0.1, "0": -2.5})})
        texts = {"c1": "t1", "c2": "t2", "c3": "t3"}
        judge = LlmJudge(HttpGateway(url, retries=0))
        result = judge_candidates(judge, QUERY, candidates(*texts), texts)
        assert [(j.doc_id, j.label) for j in result] == [("c1", True)]

    def test_all_failures_raise(self):
        texts = {"c1": "t1", "c2": "t2"}
        with pytest.raises(JudgeUnavailable):
            judge_candidates(FailingJudge(), QUERY, candidates("c1", "c2"), texts)

    def test_concurrent_matches_sequential(self):
        texts = {f"c{i}": f"t{i}" for i in range(8)}
        probs = {f"t{i}": (0.95 if i % 2 else 0.05) for i in range(8)}
        judge = ScriptedJudge(probs)
        seq = judge_candidates(judge, QUERY, candidates(*texts), texts, max_workers=1)
        par = judge_candidates(judge, QUERY, candidates(*texts), texts, max_workers=4)
        assert seq == par
        assert [j.doc_id for j in seq] == list(texts)
