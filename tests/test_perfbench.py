"""perfbench still runs on the program it measures.

The span recorder wraps module bindings such as ``rede.fusion.fuse``; a
refactor that stops calling one of them silences its span. Other perfbench
code reads engine and index attributes directly: ``engine.doc_texts``, the
dense index's rows and ``SparseIndex.postings``. A bench run fails when one
of them goes, and so do these tests, which need no bench run.
"""

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rede.fusion
from rede.dense import load_bundle
from rede.gateway import MockGateway
from rede.judge import LlmJudge, OracleJudge, render_judge_prompt
from rede.sparse import load_sparse_index

from test_pipeline import DOC_TEXTS, DOC_VECTORS, JUDGE_NONE_RELEVANT, QUERY, toy_engine, vec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """A perfbench module, imported from its file without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


spans, workloads = load("spans"), load("workloads")
HYPO = "a hypothetical passage"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_expected_span_fires(name):
    w = workloads.WORKLOADS[name]
    # the LLM judge finds nothing relevant, so rede-hyde-default falls back to HyDE
    gateway = MockGateway(JUDGE_NONE_RELEVANT + [{"match_substring": "", "text": HYPO}])
    judge = {"oracle": OracleJudge({"q1": {"d2": 1}}), "llm": LlmJudge(gateway), None: None}[w.judge]
    engine = toy_engine(judge, gateway=gateway, initial_retriever="hybrid",
                        llm_max_workers=w.llm_max_workers)
    engine.encoder.table[HYPO] = vec(0.4, 0.4)
    fuse = rede.fusion.fuse
    recorder = spans.Recorder()
    recorder.install(engine, {QUERY.text})
    try:
        span = recorder.open("query", QUERY.query_id)
        engine.search(w.method, QUERY)
        recorder.close(span)
    finally:
        recorder.uninstall()
    fired = {s.name for s in recorder.spans}
    assert [s for s in w.expected_spans if s not in fired] == []
    assert rede.fusion.fuse is fuse  # uninstalled: later tests see the program's own bindings


@pytest.fixture(scope="module")
def run():
    """run.py, which imports its sibling modules by name: perfbench/ is on sys.path while it loads."""
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        return load("run")


def test_teach_model_reads_the_engines_texts_and_rows(run):
    engine = toy_engine(OracleJudge({"q1": {"d2": 1}}))
    model = run.ModelledLlm(1)
    run.teach_model(model, engine, [QUERY], {"q1": {"d2": 1, "d4": 0}}, engine.encoder, seed=1)
    assert model.relevant_prompts == {render_judge_prompt("default", QUERY.text, DOC_TEXTS["d2"]).rendered}
    assert engine.encoder.table[model.passages[QUERY.text]].shape == (2,)


def test_calibrate_renders_the_judge_prompts_of_a_trace(run):
    engine = toy_engine(OracleJudge({"q1": {"d2": 1}}))
    outcome = run.Outcome(QUERY)
    outcome.trace = engine.search("rede", QUERY)[1]
    model = run.ModelledLlm(1)
    delays = model.logprob_delay_s, model.text_delay_s
    assert run.layers.calibrate(model, engine, [outcome]) > 0
    assert (model.logprob_delay_s, model.text_delay_s) == delays


def test_prep_build_indexes_the_toy_corpus(tmp_path):
    ids = sorted(DOC_TEXTS)
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"_id": d, "text": DOC_TEXTS[d]}) + "\n" for d in ids))
    np.save(tmp_path / "doc_vectors.npy", np.stack([DOC_VECTORS[d] for d in ids]))
    result = load("prep").build(str(tmp_path))
    # six terms; alpha, beta and delta each hold three postings
    assert (result["terms"], result["postings_median"], result["postings_max"]) == (6, 3, 3)
    assert load_sparse_index(result["sparse_index"]).doc_ids == ids
    assert load_bundle(result["manifest"]).ids == ids
