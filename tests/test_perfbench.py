"""perfbench's span recorder still finds every call site it wraps.

The recorder wraps module bindings such as ``rede.fusion.fuse``; a refactor
that stops calling one of them silences its span. A traced bench run fails
on that, and so does this test, which needs no bench run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import rede.fusion
from rede.gateway import MockGateway
from rede.judge import LlmJudge, OracleJudge

from test_pipeline import JUDGE_NONE_RELEVANT, QUERY, toy_engine, vec

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
