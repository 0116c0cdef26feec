"""
Driving the command-line interface end to end
=============================================

Writes a small corpus, queries, qrels, an embedding bundle, a mock
gateway script, and a run config into a scratch directory, then walks
the full CLI surface: index-sparse, ingest-dense, search, eval, bench,
judge, and export-distill. Everything is deterministic, so the run file
bytes are reproducible.
"""

import json
import tempfile
from pathlib import Path

from rede.cli import run_command

DOCS = [
    ("d1", "espresso extraction pressure and grind size"),
    ("d2", "pour over brewing with paper filters"),
    ("d3", "cold brew steeping for twelve hours"),
    ("d4", "milk steaming microfoam for latte art"),
    ("d5", "grind size distribution affects extraction"),
    ("d6", "water temperature for light roast coffee"),
]
QUERIES = [("q1", "espresso grind extraction"), ("q2", "cold brew steeping")]
QRELS = [("q1", "d1"), ("q1", "d5"), ("q2", "d3")]

root = Path(tempfile.mkdtemp(prefix="rede-demo-"))
(root / "corpus.jsonl").write_text(
    "\n".join(json.dumps({"_id": d, "text": t}) for d, t in DOCS) + "\n")
(root / "queries.tsv").write_text("".join(f"{q}\t{t}\n" for q, t in QUERIES))
(root / "qrels.txt").write_text("".join(f"{q} 0 {d} 1\n" for q, d in QRELS))
(root / "mock.json").write_text(json.dumps([
    {"match_substring": 'Output "1" if the passage', "text": "1",
     "first_token_logprobs": {"1": -0.2, "0": -1.8}},
    {"match_substring": "", "text": "a brewing guide passage"},
]))
(root / "config.json").write_text(json.dumps({
    "paths": {
        "corpus": str(root / "corpus.jsonl"),
        "queries": str(root / "queries.tsv"),
        "qrels": str(root / "qrels.txt"),
        "embeddings_manifest": str(root / "emb" / "embeddings.manifest.json"),
    },
    "pipeline": {"initial_retriever": "hybrid", "k_initial": 4, "output_depth": 6},
    "judge": {"backend": "llm"},
    "gateway": {"backend": "mock", "mock_script": str(root / "mock.json")},
    "encoder": {"backend": "hash"},
}, indent=2))

steps = [
    ["index-sparse", "--corpus", str(root / "corpus.jsonl"), "--out", str(root / "sparse.idx")],
    ["ingest-dense", "--corpus", str(root / "corpus.jsonl"), "--dim", "32",
     "--out", str(root / "emb")],
    ["search", "--config", str(root / "config.json"), "--method", "rede",
     "--out", str(root / "run.trec"), "--trace", str(root / "trace.jsonl")],
    ["eval", "--run", str(root / "run.trec"), "--qrels", str(root / "qrels.txt"), "--k", "10"],
    ["bench", "--config", str(root / "config.json"), "--method", "rede"],
    ["judge", "--config", str(root / "config.json"), "--out", str(root / "judgments.jsonl")],
    ["export-distill", "--config", str(root / "config.json"), "--out", str(root / "distill.jsonl")],
]
for argv in steps:
    print(f"\n$ rede {' '.join(argv)}")
    code = run_command(argv)
    assert code == 0, f"exit {code}"

print("\nrun file contents:")
print((root / "run.trec").read_text())
