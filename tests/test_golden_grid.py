"""The golden grid: every method's outputs on two corpora, pinned by digest.

A cell is one output of the program. Search cells are (corpus, first stage,
method) for all 9 ``METHOD_TABLE`` rows and 3 first stages; each stores the
sha256 of the TREC run text, the sha256 of the trace JSONL with
``wall_times`` left out, and ndcg@10. The other cells store the sha256 of a
``rede judge`` (candidates from the first stage, and from ``--run``) or
``rede export-distill`` output. The two corpora:

  * ``cli``: the ``tests/test_cli.py`` workspace, run through ``rede`` commands;
  * ``synthetic``: a 3k-doc ``generate_benchmark`` corpus at ``output_depth``
    1000, with perfbench's ``ModelledLlm`` at zero delay as judge and HyDE
    model, run through ``SearchEngine`` and ``write_run_file``.

Both run at ``llm_max_workers`` 2. Traces hold full-precision scores, and
OpenBLAS picks its kernel per CPU and splits a product's rows over its
threads, so score bits can depend on the kernel and thread count. The file
keeps the numpy, BLAS, CPU-count and thread-setting provenance of its
recording; a mismatch on other hardware or settings is a finding to report,
not a reason to skip.

Re-record only when a change means to alter outputs, and name the cells that
changed (``--record`` prints them):

    PYTHONPATH=src python tests/test_golden_grid.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from rede import (
    HydeConfig,
    LlmJudge,
    PipelineConfig,
    SearchEngine,
    build_dense_index,
    build_sparse_index,
    evaluate_run,
    export_distill_dataset,
    generate_benchmark,
    load_qrels,
    read_run_file,
    write_run_file,
)
from rede.cli import run_command
from rede.pipeline import INITIAL_RETRIEVERS, METHODS

from test_cli import make_workspace
from test_perfbench import load

GRID = Path(__file__).resolve().parent / "golden" / "grid.json"
SYNTHETIC = dict(seed=1, n_docs=3000, dim=32, n_queries=20)
SYNTHETIC_PIPELINE = dict(k_initial=20, output_depth=1000, llm_max_workers=2)
HYPO_SEED = 7919


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_text(traces: list[dict]) -> str:
    """Trace JSONL as ``rede search --trace`` writes it, without the wall times."""
    return "".join(json.dumps({k: v for k, v in t.items() if k != "wall_times"}) + "\n"
                   for t in traces)


def search_cell(run_path: Path, traces: list[dict], qrels) -> dict:
    return {"run_sha256": sha256(run_path.read_text(encoding="utf-8")),
            "trace_sha256": sha256(trace_text(traces)),
            "ndcg@10": evaluate_run(read_run_file(str(run_path)), qrels, k=10).mean}


def output_cell(path: Path) -> dict:
    return {"output_sha256": sha256(path.read_text(encoding="utf-8"))}


def cli_cells(work: Path) -> dict:
    """The test_cli workspace through ``rede search``, ``judge`` and ``export-distill``."""
    make_workspace(work)
    base = json.loads((work / "config.json").read_text())
    qrels = load_qrels(str(work / "qrels.txt"))
    cells = {}
    for retriever in INITIAL_RETRIEVERS:
        config = work / f"config-{retriever}.json"
        base["pipeline"].update(initial_retriever=retriever, llm_max_workers=2)
        config.write_text(json.dumps(base))

        def rede(*args: str) -> None:
            assert run_command([args[0], "--config", str(config), *args[1:]]) == 0, args

        for method in METHODS:
            run, trace = work / f"{retriever}-{method}.trec", work / f"{retriever}-{method}.jsonl"
            rede("search", "--method", method, "--out", str(run), "--trace", str(trace))
            traces = [json.loads(line) for line in trace.read_text().splitlines()]
            cells[f"cli/{retriever}/{method}"] = search_cell(run, traces, qrels)
        judged, rerun, distill = (work / f"{retriever}-{name}" for name in
                                  ("judge.jsonl", "judge-run.jsonl", "distill.jsonl"))
        rede("judge", "--out", str(judged))
        rede("judge", "--run", str(work / f"{retriever}-bm25.trec"), "--out", str(rerun))
        rede("export-distill", "--out", str(distill))
        cells[f"cli/{retriever}/judge"] = output_cell(judged)
        cells[f"cli/{retriever}/judge-run"] = output_cell(rerun)
        cells[f"cli/{retriever}/export-distill"] = output_cell(distill)
    return cells


def synthetic_cells(work: Path) -> dict:
    """A generated corpus through ``SearchEngine``, judged and sampled by the modelled LLM.

    As in perfbench, the LLM calls exactly the qrels pairs relevant (3% of replies carry
    neither token) and writes one passage per query, whose planted vector is the mean of
    the query's relevant documents plus noise.
    """
    llm_model = load("llm_model")
    bench = generate_benchmark(**SYNTHETIC)
    sparse = build_sparse_index(bench.corpus)
    dense = build_dense_index(bench.doc_ids, bench.doc_vectors)
    model = llm_model.ModelledLlm(parallelism=SYNTHETIC_PIPELINE["llm_max_workers"])
    model.logprob_delay_s = model.text_delay_s = 0.0
    rng = np.random.default_rng(SYNTHETIC["seed"] + HYPO_SEED)
    pairs, passages = [], {}
    for q in bench.queries:
        relevant = [d for d, rel in bench.qrels[q.query_id].items() if rel > 0]
        pairs += [(q.text, bench.corpus[d].search_text) for d in relevant]
        centroid = dense.vectors[[dense.id_to_row[d] for d in relevant]].mean(axis=0)
        passages[q.text] = f"hypothetical passage answering {q.text}"
        noise = rng.normal(scale=llm_model.HYPO_NOISE, size=centroid.shape)
        bench.encoder.table[passages[q.text]] = (centroid + noise).astype(np.float32)
    model.learn(pairs, passages)

    cells = {}
    for retriever in INITIAL_RETRIEVERS:
        engine = SearchEngine(
            bench.corpus, sparse, dense, bench.encoder, judge=LlmJudge(model), gateway=model,
            config=PipelineConfig(initial_retriever=retriever, **SYNTHETIC_PIPELINE),
            hyde_config=HydeConfig(n_samples=2),
        )
        for method in METHODS:
            results = [engine.search(method, q) for q in bench.queries]
            run = work / f"synthetic-{retriever}-{method}.trec"
            write_run_file(str(run), [r for r, _ in results], method)
            cells[f"synthetic/{retriever}/{method}"] = search_cell(
                run, [t.to_dict() for _, t in results], bench.qrels)
        distill = work / f"synthetic-{retriever}-distill.jsonl"
        export_distill_dataset(engine, bench.queries, str(distill))
        cells[f"synthetic/{retriever}/export-distill"] = output_cell(distill)
    return cells


def compute(work: Path) -> dict:
    return {**cli_cells(work), **synthetic_cells(work)}


def provenance() -> dict:
    """numpy, the BLAS it was built against, the CPU count and the BLAS thread settings:
    the scores in the traces depend on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config and returns None
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "threads": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def changed_cells(recorded: dict, computed: dict) -> list[str]:
    return sorted(key for key in recorded.keys() | computed.keys()
                  if recorded.get(key) != computed.get(key))


def test_golden_grid_is_unchanged(tmp_path):
    recorded = json.loads(GRID.read_text())
    changed = changed_cells(recorded["cells"], compute(tmp_path))
    assert changed == [], (
        f"{len(changed)} golden cells changed: {changed}\n"
        f"recorded on {recorded['provenance']}\nthis run on {provenance()}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Recompute the golden grid and list the cells that differ from "
                    f"{GRID.relative_to(GRID.parents[2])}; exits 1 if any does.")
    parser.add_argument("--record", action="store_true",
                        help="write the recomputed grid and its provenance to the file; do this "
                             "only when a change means to alter outputs, and name the changed "
                             "cells with the change")
    args = parser.parse_args(argv)
    logging.getLogger("rede").setLevel(logging.ERROR)  # the modelled LLM's no-token replies
    with tempfile.TemporaryDirectory() as work:
        cells = compute(Path(work))
    recorded = json.loads(GRID.read_text())["cells"] if GRID.is_file() else {}
    changed = changed_cells(recorded, cells)
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(changed)} of {len(cells)} cells changed")
    if args.record:
        GRID.parent.mkdir(exist_ok=True)
        GRID.write_text(json.dumps({"provenance": provenance(), "cells": cells},
                                   indent=1, sort_keys=True) + "\n")
        print(f"recorded {GRID}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
