import json
import re
import struct
from pathlib import Path

import pytest

import rede.cli
import rede.judge
import rede.pipeline
from rede.cli import run_command
from rede.config import GATEWAY_URL_ENV, build_engine, load_run_config
from rede.corpus import load_corpus, load_queries, read_run_file, write_run_file
from rede.dense import HashingEncoder, HttpEncoder, write_embeddings
from rede.errors import DimMismatch
from rede.sparse import load_sparse_index

DOCS = [
    ("d1", "apple banana fruit market"),
    ("d2", "apple orchard harvest season"),
    ("d3", "banana plantation tropical fruit"),
    ("d4", "stock market trading floor"),
    ("d5", "orbital mechanics satellite launch"),
    ("d6", "satellite dish antenna signal"),
    ("d7", "fruit salad recipe kitchen"),
    ("d8", "trading algorithms market signal"),
]
QUERIES = [("q1", "apple banana"), ("q2", "satellite launch"), ("q3", "market trading")]
QRELS = {"q1": ["d1", "d2", "d3", "d7"], "q2": ["d5", "d6"], "q3": ["d4", "d8"]}


def with_header(data: bytes, edit) -> bytes:
    """A saved index with its JSON header replaced by edit(header)."""
    (length,) = struct.unpack_from("<Q", data, 7)
    header = json.dumps(edit(json.loads(data[15 : 15 + length]))).encode()
    return data[:7] + struct.pack("<Q", len(header)) + header + data[15 + length :]


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def make_workspace(tmp_path: Path) -> Path:
    """Corpus, queries, qrels, a mock gateway script, a dim-32 bundle and config.json in tmp_path."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "\n".join(json.dumps({"_id": d, "title": "", "text": t}) for d, t in DOCS) + "\n"
    )
    queries = tmp_path / "queries.tsv"
    queries.write_text("".join(f"{q}\t{t}\n" for q, t in QUERIES))
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(
        "".join(f"{q} 0 {d} 1\n" for q, docs in QRELS.items() for d in docs)
    )
    script = tmp_path / "mock_script.json"
    script.write_text(json.dumps([
        {"match_substring": 'Output "1" if the passage', "text": "1",
         "first_token_logprobs": {"1": -0.1, "0": -2.5}},
        {"match_substring": "", "text": "apple banana fruit market harvest"},
    ]))
    emb_dir = tmp_path / "emb"
    assert run_command([
        "ingest-dense", "--corpus", str(corpus), "--dim", "32", "--out", str(emb_dir),
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {
            "corpus": str(corpus),
            "queries": str(queries),
            "qrels": str(qrels),
            "embeddings_manifest": str(emb_dir / "embeddings.manifest.json"),
        },
        "pipeline": {"initial_retriever": "hybrid", "k_initial": 4, "output_depth": 8},
        "hyde": {"n_samples": 3, "task_template": "web_search"},
        "judge": {"backend": "llm", "template_id": "default"},
        "gateway": {"backend": "mock", "mock_script": str(script)},
        "encoder": {"backend": "hash"},
    }))
    return tmp_path


def test_index_sparse(workspace, tmp_path):
    out = tmp_path / "sparse.idx"
    code = run_command([
        "index-sparse", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(out),
    ])
    assert code == 0
    assert load_sparse_index(str(out)).doc_count == len(DOCS)


def test_ingest_dense_validates_existing_bundle(workspace):
    manifest = workspace / "emb" / "embeddings.manifest.json"
    assert run_command(["ingest-dense", "--manifest", str(manifest)]) == 0


def test_ingest_dense_requires_inputs():
    assert run_command(["ingest-dense"]) == 1


@pytest.mark.parametrize("extra", [["--corpus", "corpus.jsonl"], ["--out", "emb2"],
                                   ["--corpus", "corpus.jsonl", "--out", "emb2"], ["--dim", "32"]])
def test_ingest_dense_refuses_manifest_with_encode_flags(workspace, monkeypatch, capsys, extra):
    monkeypatch.chdir(workspace)
    argv = ["ingest-dense", "--manifest", str(workspace / "emb" / "embeddings.manifest.json"), *extra]
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith("error: ingest-dense takes either --manifest alone")
    assert not (workspace / "emb2").exists()


def test_ingest_dense_has_no_vectors_flag(workspace, capsys):
    manifest = workspace / "emb" / "embeddings.manifest.json"
    vectors = workspace / "emb" / "embeddings.f32"
    assert run_command(["ingest-dense", "--manifest", str(manifest), "--vectors", str(vectors)]) == 1
    assert "unrecognized arguments: --vectors" in capsys.readouterr().err


def test_ingest_dense_names_its_files_itself(workspace, capsys):
    # load_bundle reads the file names from the manifest, so there is nothing to name
    argv = ["ingest-dense", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(workspace / "emb2")]
    assert run_command([*argv, "--name", "other"]) == 1
    assert "unrecognized arguments: --name" in capsys.readouterr().err
    assert run_command(argv) == 0
    manifest = workspace / "emb2" / "embeddings.manifest.json"
    assert json.loads(manifest.read_text())["dim"] == 64  # the encode mode's default
    assert sorted(p.name for p in (workspace / "emb2").iterdir()) == [
        "embeddings.f32", "embeddings.ids.txt", "embeddings.manifest.json"]


def test_encoder_takes_the_bundle_dim(workspace, http_server):
    # the bundle is dim 32 and the run config sets no dim
    out = workspace / "run.trec"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "rede",
                        "--out", str(out)]) == 0
    engine = build_engine(load_run_config(str(workspace / "config.json")), "rede")
    engine.encoder = HashingEncoder(32)
    queries = load_queries(str(workspace / "queries.tsv"))
    expected = workspace / "expected.trec"
    write_run_file(str(expected), [engine.search("rede", q)[0] for q in queries], "rede")
    assert out.read_text() == expected.read_text()

    config = json.loads((workspace / "config.json").read_text())
    url, state = http_server
    config["encoder"] = {"backend": "http", "url": url}
    (workspace / "http.json").write_text(json.dumps(config))
    engine = build_engine(load_run_config(str(workspace / "http.json")), "dense")
    assert isinstance(engine.encoder, HttpEncoder)
    state["handler"] = lambda body: (200, {"vectors": [[0.5] * 64]})  # not the bundle's dim
    with pytest.raises(DimMismatch, match=re.escape("expected (1, 32)")):
        engine.search("dense", queries[0])
    state["handler"] = lambda body: (200, {"vectors": [[0.5] * 32]})
    assert engine.search("dense", queries[0])[0].entries


def test_ingest_dense_rejects_dim_zero(workspace, capsys):
    assert run_command(["ingest-dense", "--corpus", str(workspace / "corpus.jsonl"), "--dim", "0",
                        "--out", str(workspace / "emb0")]) == 1
    assert capsys.readouterr().err.startswith("error: dim must be >= 1")


@pytest.mark.parametrize("bad", ["d1\rx", "d1\ud800"], ids=["carriage return", "lone surrogate"])
def test_ingest_dense_refuses_an_id_the_bundle_cannot_give_back(tmp_path, capsys, bad):
    # a JSON _id may hold a carriage return, which the id file would read back as two ids, or a
    # lone surrogate ("\ud800" in the JSON text), which UTF-8 cannot encode
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"_id": doc_id, "text": "alpha"}) + "\n" for doc_id in (bad, "d2")))
    out = tmp_path / "emb"
    assert run_command(["ingest-dense", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: doc id {bad!r} could not be read back") and "Traceback" not in err
    assert not out.exists()


def test_index_sparse_rejects_b_outside_unit_interval(workspace, capsys):
    assert run_command(["index-sparse", "--corpus", str(workspace / "corpus.jsonl"), "--b", "2",
                        "--out", str(workspace / "sparse.idx")]) == 1
    assert capsys.readouterr().err.startswith("error: b must be a finite number in [0, 1], got 2.0")


@pytest.mark.parametrize("k1", ["nan", "inf", "-1"])
def test_index_sparse_rejects_k1_that_is_not_finite_and_non_negative(workspace, capsys, k1):
    out = workspace / "sparse.idx"
    assert run_command(["index-sparse", "--corpus", str(workspace / "corpus.jsonl"), "--k1", k1,
                        "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: k1 must be a finite number in [0, 1000000.0], got {float(k1)!r}")
    assert not out.exists()


def test_index_sparse_rejects_k1_above_its_bound(workspace, capsys):
    # unbounded, a k1 this large puts a long document's length norm past float range
    out = workspace / "sparse.idx"
    assert run_command(["index-sparse", "--corpus", str(workspace / "corpus.jsonl"), "--k1", "1e308",
                        "--b", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: k1 must be a finite number in [0, 1000000.0], got 1e+308")
    assert not out.exists()


def test_eval_rejects_k_zero(workspace, capsys):
    run_path = workspace / "run.trec"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--out", str(run_path)]) == 0
    capsys.readouterr()
    assert run_command(["eval", "--run", str(run_path), "--qrels", str(workspace / "qrels.txt"),
                        "--k", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: k must be >= 1")


@pytest.mark.parametrize("complete", [[], ["--complete"]], ids=["plain", "complete"])
def test_eval_rejects_k_zero_when_no_run_query_is_in_the_qrels(workspace, capsys, complete):
    run_path, qrels = workspace / "run.trec", workspace / "qrels.txt"
    run_path.write_text("q9 Q0 d1 1 1.000000 tag\n")
    qrels.write_text("q1 0 d1 1\n")
    assert run_command(["eval", "--run", str(run_path), "--qrels", str(qrels), "--k", "0", *complete]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k must be >= 1") and "Traceback" not in err


def test_eval_exponential_gain_past_float_range_exits_2(workspace, capsys):
    run_path, qrels = workspace / "run.trec", workspace / "qrels.txt"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--out", str(run_path)]) == 0
    qrels.write_text(qrels.read_text() + "q1 0 d5 1100\n")
    capsys.readouterr()
    assert run_command(["eval", "--run", str(run_path), "--qrels", str(qrels), "--gain", "exp"]) == 2
    assert capsys.readouterr().err == "error: relevance 1100 puts the exp-gain ideal DCG past float range\n"
    assert run_command(["eval", "--run", str(run_path), "--qrels", str(qrels)]) == 0


def test_eval_linear_gain_past_float_range_exits_2(workspace, capsys):
    run_path, qrels = workspace / "run.trec", workspace / "qrels.txt"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--out", str(run_path)]) == 0
    qrels.write_text(qrels.read_text() + f"q1 0 d5 {10**309}\n")
    capsys.readouterr()
    assert run_command(["eval", "--run", str(run_path), "--qrels", str(qrels)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: relevance {10**309} puts the linear-gain ideal DCG past float range\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["bm25", "dense", "hybrid", "avgprf", "rede",
                                    "rede-hyde-default", "hyde", "hyde-prf", "rerank"])
def test_search_every_method(workspace, method):
    out = workspace / f"run_{method}.trec"
    code = run_command([
        "search", "--config", str(workspace / "config.json"),
        "--method", method, "--out", str(out),
    ])
    assert code == 0
    runs = read_run_file(str(out))
    assert [r.query_id for r in runs] == [q for q, _ in QUERIES]


def test_search_with_queries_flag(workspace, tmp_path):
    # queries supplied on the command line instead of in the config
    alt = tmp_path / "alt_queries.tsv"
    alt.write_text("z1\tsatellite antenna\n")
    out = workspace / "alt.trec"
    code = run_command([
        "search", "--method", "rede", "--config", str(workspace / "config.json"),
        "--queries", str(alt), "--out", str(out),
    ])
    assert code == 0
    assert [r.query_id for r in read_run_file(str(out))] == ["z1"]


QUERY_COMMANDS = {
    "search": ["--method", "bm25", "--out"],
    "bench": ["--method", "bm25", "--out"],
    "export-distill": ["--out"],
    "judge": ["--out"],
}


@pytest.mark.parametrize("command", list(QUERY_COMMANDS))
def test_no_query_path_exits_2_after_the_engine_is_built(workspace, capsys, command):
    config = json.loads((workspace / "config.json").read_text())
    del config["paths"]["queries"]
    (workspace / "config.json").write_text(json.dumps(config))
    args = [command, "--config", str(workspace / "config.json"), *QUERY_COMMANDS[command],
            str(workspace / "out")]
    assert run_command(args) == 2
    assert capsys.readouterr().err == "error: no queries given (paths.queries or --queries)\n"
    assert not (workspace / "out").exists()
    assert run_command(args + ["--queries", str(workspace / "queries.tsv")]) == 0
    # the engine is built first: a config that cannot build one names that fault instead
    del config["paths"]["corpus"]
    (workspace / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run_command(args) == 2
    assert capsys.readouterr().err == "error: config needs paths.corpus\n"


def test_search_writes_traces(workspace):
    out = workspace / "run.trec"
    trace_path = workspace / "trace.jsonl"
    code = run_command([
        "search", "--config", str(workspace / "config.json"),
        "--method", "rede", "--out", str(out), "--trace", str(trace_path),
    ])
    assert code == 0
    traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(traces) == len(QUERIES)
    assert all(t["path_taken"] == "rede" for t in traces)  # all-relevant mock judge
    assert all(t["judge_calls"] == 4 for t in traces)


def test_search_deterministic(workspace):
    args = ["search", "--config", str(workspace / "config.json"), "--method", "rede"]
    out1, out2 = workspace / "a.trec", workspace / "b.trec"
    assert run_command(args + ["--out", str(out1)]) == 0
    assert run_command(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parallel_matches_serial(workspace):
    args = ["search", "--config", str(workspace / "config.json"), "--method", "hybrid"]
    serial, parallel = workspace / "s.trec", workspace / "p.trec"
    assert run_command(args + ["--out", str(serial)]) == 0
    assert run_command(args + ["--out", str(parallel), "--parallel", "3"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_parallel_matches_serial_on_both_rede_paths(workspace):
    # the oracle judge finds q1's documents and none for q2 and q3, whose final searches
    # reuse their first stage's dense scores
    config = json.loads((workspace / "config.json").read_text())
    config["judge"] = {"backend": "oracle"}
    (workspace / "qrels.txt").write_text("".join(f"q1 0 {d} 1\n" for d in QRELS["q1"]))
    (workspace / "config.json").write_text(json.dumps(config))
    args = ["search", "--config", str(workspace / "config.json"), "--method", "rede"]
    serial, parallel, trace = workspace / "s.trec", workspace / "p.trec", workspace / "p.jsonl"
    assert run_command(args + ["--out", str(serial), "--parallel", "1"]) == 0
    assert run_command(args + ["--out", str(parallel), "--parallel", "4", "--trace", str(trace)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    paths = {t["query_id"]: t["path_taken"] for t in map(json.loads, trace.read_text().splitlines())}
    assert paths == {"q1": "rede", "q2": "default_encoder", "q3": "default_encoder"}


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_parallel_below_one_exits_1(workspace, capsys, parallel):
    out = workspace / "run.trec"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "hybrid",
                        "--out", str(out), "--parallel", parallel]) == 1
    assert capsys.readouterr().err.startswith("error: --parallel must be >= 1")
    assert not out.exists()


def test_unknown_subcommand_exits_1(capsys):
    assert run_command(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_method_exits_1(workspace):
    code = run_command([
        "search", "--config", str(workspace / "config.json"),
        "--method", "astrology", "--out", "x.trec",
    ])
    assert code == 1


def test_missing_embeddings_exits_2(workspace, capsys):
    # a manifest path that does not exist, and no manifest at all
    for manifest, diagnostic in ((str(workspace / "missing" / "m.json"), "missing"),
                                 (None, "dense index")):
        config = json.loads((workspace / "config.json").read_text())
        config["paths"]["embeddings_manifest"] = manifest
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps(config))
        code = run_command([
            "search", "--config", str(bad), "--method", "dense",
            "--out", str(workspace / "r.trec"),
        ])
        assert code == 2
        assert diagnostic in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["search", "--config", "{ws}/config.json", "--method", "bm25", "--out", "{ws}/r.trec"],
    ["index-sparse", "--corpus", "{ws}/corpus.jsonl", "--out", "{ws}/sparse.idx"],
    ["ingest-dense", "--corpus", "{ws}/corpus.jsonl", "--out", "{ws}/emb2"],
], ids=["search", "index-sparse", "ingest-dense"])
def test_empty_corpus_exits_2_as_empty(workspace, capsys, command):
    # ingest-dense must refuse the corpus before the encoder, whose "texts must be a non-empty
    # list" is a usage error (exit 1)
    (workspace / "corpus.jsonl").write_text("")
    assert run_command([arg.format(ws=workspace) for arg in command]) == 2
    assert capsys.readouterr().err.startswith("error: corpus is empty")


def test_malformed_index_files_exit_2(workspace, capsys):
    index = workspace / "sparse.idx"
    assert run_command(["index-sparse", "--corpus", str(workspace / "corpus.jsonl"),
                        "--out", str(index)]) == 0
    index.write_bytes(index.read_bytes()[:5])  # cut after the magic
    config = json.loads((workspace / "config.json").read_text())
    config["paths"]["sparse_index"] = str(index)
    (workspace / "config.json").write_text(json.dumps(config))
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--out", str(workspace / "r.trec")]) == 2
    assert "sparse index" in capsys.readouterr().err
    # a header avgdl that is not the mean length is named, not blamed on k1
    assert run_command(["index-sparse", "--corpus", str(workspace / "corpus.jsonl"),
                        "--out", str(index)]) == 0
    index.write_bytes(with_header(index.read_bytes(), lambda h: {**h, "avgdl": 1e-310}))
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--out", str(workspace / "r.trec")]) == 2
    err = capsys.readouterr().err
    assert "avgdl 1e-310 is not the mean document length" in err and "Traceback" not in err
    manifest = workspace / "emb" / "embeddings.manifest.json"
    meta = json.loads(manifest.read_text())
    del meta["dim"]
    manifest.write_text(json.dumps(meta))
    assert run_command(["ingest-dense", "--manifest", str(manifest)]) == 2
    assert "manifest" in capsys.readouterr().err


def test_non_utf8_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(b"\x80\x81")
    assert run_command(["index-sparse", "--corpus", str(corpus),
                        "--out", str(tmp_path / "sparse.idx")]) == 2
    assert "corpus.bin is not UTF-8" in capsys.readouterr().err


def test_whole_file_fault_names_no_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(b"\x80\x81")
    assert run_command(["index-sparse", "--corpus", str(corpus),
                        "--out", str(tmp_path / "sparse.idx")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus} is not UTF-8")
    assert "line 0" not in err


def test_tag_with_whitespace_exits_1(workspace, capsys):
    out = workspace / "run.trec"
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "bm25",
                        "--tag", "my run", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: run tag 'my run'")
    assert not out.exists()


def test_eval(workspace, capsys):
    run_path = workspace / "run.trec"
    report_path = workspace / "report.json"
    assert run_command([
        "search", "--config", str(workspace / "config.json"),
        "--method", "bm25", "--out", str(run_path),
    ]) == 0
    code = run_command([
        "eval", "--run", str(run_path), "--qrels", str(workspace / "qrels.txt"),
        "--k", "10", "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["metric"] == "ndcg"
    assert 0.0 <= report["mean"] <= 1.0
    assert len(report["per_query"]) == len(QUERIES)


def test_bench(workspace):
    report_path = workspace / "bench.json"
    code = run_command([
        "bench", "--config", str(workspace / "config.json"),
        "--method", "rede", "--warmup", "1", "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["per_query_ms"]) == len(QUERIES) - 1
    assert report["llm_call_counts"]["judge"] == 4 * (len(QUERIES) - 1)


@pytest.mark.parametrize("warmup", ["3", "5"])
def test_bench_warmup_that_leaves_no_query_exits_1(workspace, capsys, warmup):
    report_path = workspace / "bench.json"
    assert run_command(["bench", "--config", str(workspace / "config.json"), "--method", "rede",
                        "--warmup", warmup, "--out", str(report_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: warmup {warmup} leaves none of the 3 queries")
    assert not report_path.exists()


def test_export_distill(workspace):
    out = workspace / "distill.jsonl"
    code = run_command([
        "export-distill", "--config", str(workspace / "config.json"), "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == len(QUERIES)  # all-relevant judge: every query exports
    assert all(len(r["target"]) == 32 for r in records)


def test_judge_subcommand(workspace):
    out = workspace / "judgments.jsonl"
    code = run_command([
        "judge", "--config", str(workspace / "config.json"), "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4 * len(QUERIES)
    assert all(r["label"] is True for r in records)


def _script_judge(workspace, entries):
    """Put judge replies ahead of the workspace's mock script entries."""
    script = workspace / "mock_script.json"
    script.write_text(json.dumps(entries + json.loads(script.read_text())))


@pytest.mark.parametrize("text", [None, 5])
def test_hyde_reply_text_that_is_not_a_string_exits_2(workspace, capsys, text):
    # each sample is retried once, then dropped; with none left, the query fails
    (workspace / "mock_script.json").write_text(json.dumps([{"match_substring": "", "text": text}]))
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "hyde",
                        "--out", str(workspace / "r.trec")]) == 2
    assert "samples were empty or not text for query q1" in capsys.readouterr().err


def test_judge_writes_the_rerank_judgments(workspace):
    _script_judge(workspace, [
        {"match_substring": "Document: apple", "first_token_logprobs": {"1": -0.3, "0": -1.9}},
        {"match_substring": "Document: satellite", "first_token_logprobs": {"x": -0.1}},
        {"match_substring": "Document: stock", "first_token_logprobs": {"1": -2.2, "0": -0.2}},
    ])
    config, trace, out = (str(workspace / name) for name in ("config.json", "t.jsonl", "j.jsonl"))
    assert run_command(["search", "--config", config, "--method", "rerank",
                        "--out", str(workspace / "r.trec"), "--trace", trace]) == 0
    assert run_command(["judge", "--config", config, "--out", out]) == 0
    traces = [json.loads(line) for line in Path(trace).read_text().splitlines()]
    expected = [{"query_id": t["query_id"], **j} for t in traces for j in t["judgments"]]
    assert [json.loads(line) for line in Path(out).read_text().splitlines()] == expected
    assert len({r["p_relevant"] for r in expected}) == 3  # the scripted replies all show
    assert "d6" not in {r["doc_id"] for r in expected}  # its reply names neither token


def test_judge_exits_2_when_no_candidate_can_be_judged(workspace, capsys):
    _script_judge(workspace, [{"match_substring": 'Output "1" if the passage',
                               "first_token_logprobs": {"x": -0.1}}])
    assert run_command(["judge", "--config", str(workspace / "config.json"),
                        "--out", str(workspace / "j.jsonl")]) == 2
    assert "candidates failed" in capsys.readouterr().err


def test_judge_fans_out_llm_max_workers(workspace, monkeypatch):
    config = workspace / "config.json"
    settings = json.loads(config.read_text())
    settings["pipeline"]["llm_max_workers"] = 3
    config.write_text(json.dumps(settings))
    calls = []
    for module in (rede.pipeline, rede.cli):
        def recording(backend, query, candidates, corpus, max_workers=1,
                      name=module.__name__, judge_candidates=module.judge_candidates):
            calls.append((name, max_workers))
            return judge_candidates(backend, query, candidates, corpus, max_workers)

        monkeypatch.setattr(module, "judge_candidates", recording)
    judge = ["judge", "--config", str(config), "--out", str(workspace / "j.jsonl")]
    assert run_command(judge) == 0
    assert calls == [("rede.pipeline", 3)] * len(QUERIES)
    run_path = workspace / "cands.trec"
    assert run_command(["search", "--config", str(config), "--method", "bm25",
                        "--out", str(run_path)]) == 0
    calls.clear()
    assert run_command(judge + ["--run", str(run_path)]) == 0
    assert calls == [("rede.cli", 3)] * len(QUERIES)


def test_judge_over_run_file(workspace):
    run_path = workspace / "cands.trec"
    assert run_command([
        "search", "--config", str(workspace / "config.json"),
        "--method", "bm25", "--out", str(run_path),
    ]) == 0
    out = workspace / "judgments.jsonl"
    assert run_command([
        "judge", "--config", str(workspace / "config.json"),
        "--run", str(run_path), "--out", str(out),
    ]) == 0
    assert out.read_text().strip()


def test_judge_run_naming_an_unknown_doc_exits_2_without_a_call(workspace, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(rede.judge, "complete", lambda *args: calls.append(args))
    run_path = workspace / "cands.trec"
    run_path.write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 nosuchdoc 2 1.000000 t\n")
    assert run_command(["judge", "--config", str(workspace / "config.json"),
                        "--run", str(run_path), "--out", str(workspace / "j.jsonl")]) == 2
    assert "nosuchdoc" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("case", ["extra bundle id", "missing id", "sparse ids differ"])
def test_index_ids_other_than_the_corpus_ids_exit_2(workspace, capsys, case):
    config = json.loads((workspace / "config.json").read_text())
    corpus = load_corpus(config["paths"]["corpus"])
    ids = sorted(corpus)
    if case == "sparse ids differ":
        partial = workspace / "partial.tsv"
        partial.write_text("".join(f"{d}\t{corpus[d].text}\n" for d in ids[:-1]))
        config["paths"]["sparse_index"] = str(workspace / "partial.idx")
        assert run_command(["index-sparse", "--corpus", str(partial), "--out",
                            config["paths"]["sparse_index"]]) == 0
    else:
        ids = ids + ["zz"] if case == "extra bundle id" else ids[1:]
        vectors = HashingEncoder(32).encode([corpus[d].text if d in corpus else "zz" for d in ids])
        config["paths"]["embeddings_manifest"] = write_embeddings(str(workspace / "emb2"), ids, vectors)
    (workspace / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run_command(["search", "--config", str(workspace / "config.json"), "--method", "hybrid",
                        "--out", str(workspace / "r.trec")]) == 2
    assert "are not the corpus ids" in capsys.readouterr().err


def test_env_var_overrides_gateway_url(workspace, monkeypatch):
    monkeypatch.setenv(GATEWAY_URL_ENV, "http://example.invalid:9")
    cfg = load_run_config(str(workspace / "config.json"))
    assert cfg["gateway"]["url"] == "http://example.invalid:9"


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command-line interface\n\n```\n(.*?)```", readme, re.S).group(1)
    parser = rede.cli._build_parser()
    commands = set()
    for line in block.splitlines():
        argv = re.sub(r"[\[\]]", "", line.split("#")[0]).split()
        assert argv[0] == "rede"
        commands.add(parser.parse_args(argv[1:]).command)  # an unknown flag raises
    assert commands == set(rede.cli._COMMANDS)
