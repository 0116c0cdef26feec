import pytest

from rede.errors import AllSamplesEmpty, UnknownTemplate
from rede.gateway import MockGateway
from rede.hyde import (
    HYDE_TASK_FAMILIES,
    HydeConfig,
    generate_hypothetical_docs,
    render_hyde_prompt,
)


class TestRenderPrompt:
    def test_web_search_zero_context(self):
        prompt = render_hyde_prompt("web_search", "what is bm25")
        assert "Please write a passage to answer the question" in prompt
        assert "what is bm25" in prompt
        assert "Context" not in prompt

    def test_scifact_wording(self):
        prompt = render_hyde_prompt("scifact", "claim text")
        assert "support/refute the claim" in prompt
        assert "Claim: claim text" in prompt

    def test_news_uses_topic(self):
        prompt = render_hyde_prompt("news", "election results")
        assert "news passage about the topic" in prompt
        assert "Topic: election results" in prompt

    def test_context_docs_precede_question(self):
        prompt = render_hyde_prompt(
            "web_search", "the query", ["FIRSTDOC body", "SECONDDOC body"]
        )
        q_pos = prompt.index("Question:")
        assert prompt.index("FIRSTDOC") < prompt.index("SECONDDOC") < q_pos
        assert "based on the context" in prompt

    def test_context_docs_truncated(self):
        long_doc = " ".join(f"tok{i}" for i in range(300))
        prompt = render_hyde_prompt("web_search", "q", [long_doc])
        assert "tok127" in prompt
        assert "tok128" not in prompt

    def test_all_families_render(self):
        for family in HYDE_TASK_FAMILIES:
            no_ctx = render_hyde_prompt(family, "QTEXT")
            with_ctx = render_hyde_prompt(family, "QTEXT", ["DOCTEXT"])
            assert "QTEXT" in no_ctx
            assert "QTEXT" in with_ctx and "DOCTEXT" in with_ctx

    def test_unknown_family(self):
        for family in ("astrology", "web_search_context", "../judge/default"):
            with pytest.raises(UnknownTemplate):
                render_hyde_prompt(family, "q")
            with pytest.raises(UnknownTemplate):
                render_hyde_prompt(family, "q", ["a context doc"])


class TestConfig:
    def test_defaults(self):
        cfg = HydeConfig()
        assert (cfg.n_samples, cfg.temperature, cfg.max_new_tokens) == (8, 0.7, 512)

    def test_n_samples_validated(self):
        with pytest.raises(ValueError):
            HydeConfig(n_samples=0)

    def test_unknown_template_validated(self):
        for family in ("astrology", "web_search_context"):
            with pytest.raises(UnknownTemplate):
                HydeConfig(task_template=family)

    def test_custom_templates_dir(self, tmp_path):
        (tmp_path / "mine.txt").write_text("Q={query}")
        (tmp_path / "mine_context.txt").write_text("C={context} Q={query}")
        cfg = HydeConfig(task_template="mine", templates_dir=str(tmp_path))
        assert render_hyde_prompt("mine", "q", templates_dir=cfg.templates_dir) == "Q=q"
        assert render_hyde_prompt("mine", "q", ["d"], templates_dir=cfg.templates_dir) == "C=d Q=q"
        with pytest.raises(UnknownTemplate):
            HydeConfig(task_template="missing", templates_dir=str(tmp_path))


class TestGenerate:
    def test_fixed_mock_returns_n_copies(self):
        mock = MockGateway([{"match_substring": "", "text": "hypo"}])
        docs = generate_hypothetical_docs(mock, HydeConfig(n_samples=8), "query")
        assert docs == ["hypo"] * 8
        assert mock.counter.total == 8
        assert mock.counter.text_calls == 8

    def test_single_deterministic_sample(self):
        mock = MockGateway([{"match_substring": "", "text": "one"}])
        cfg = HydeConfig(n_samples=1, temperature=0.0)
        assert generate_hypothetical_docs(mock, cfg, "q") == ["one"]

    def test_all_empty_raises_after_retry(self):
        mock = MockGateway([{"match_substring": "", "text": ""}])
        with pytest.raises(AllSamplesEmpty):
            generate_hypothetical_docs(mock, HydeConfig(n_samples=3), "q")
        assert mock.counter.total == 6  # each sample retried once

    def test_context_passed_in_rank_order(self):
        mock = MockGateway([{"match_substring": "", "text": "hypo"}])
        cfg = HydeConfig(n_samples=1, context_docs=2)
        generate_hypothetical_docs(mock, cfg, "q", ["AAA text", "BBB text", "CCC text"])
        # inspect the prompt the mock received via a fresh scripted capture
        prompt = render_hyde_prompt("web_search", "q", ["AAA text", "BBB text"])
        captured = MockGateway([{"match_substring": prompt, "text": "match"}])
        docs = generate_hypothetical_docs(captured, cfg, "q", ["AAA text", "BBB text", "CCC text"])
        assert docs == ["match"]  # exact prompt match: first 2 docs only, in order

    def test_context_docs_zero_means_plain(self):
        plain_prompt = render_hyde_prompt("web_search", "q")
        mock = MockGateway([{"match_substring": plain_prompt, "text": "plain"}])
        cfg = HydeConfig(n_samples=1, context_docs=0)
        assert generate_hypothetical_docs(mock, cfg, "q", ["ignored doc"]) == ["plain"]

    def test_empty_logprob_map_on_a_text_reply_is_ignored(self):
        mock = MockGateway([{"match_substring": "", "text": "a passage", "first_token_logprobs": {}}])
        assert generate_hypothetical_docs(mock, HydeConfig(n_samples=2), "q") == ["a passage"] * 2

    def test_sample_order_with_workers(self):
        mock = MockGateway([{"match_substring": "", "text": "same"}])
        cfg = HydeConfig(n_samples=6)
        docs = generate_hypothetical_docs(mock, cfg, "q", max_workers=4)
        assert docs == ["same"] * 6

    def test_generation_request_params(self):
        seen = []

        class SpyGateway(MockGateway):
            def send(self, request):
                seen.append(request)
                return super().send(request)

        mock = SpyGateway([{"match_substring": "", "text": "x"}])
        generate_hypothetical_docs(mock, HydeConfig(n_samples=2), "q")
        assert all(r.temperature == 0.7 for r in seen)
        assert all(r.max_new_tokens == 512 for r in seen)
        assert all(not r.want_first_token_logprobs for r in seen)
