"""Command-line entry point.

Subcommands: index-sparse, ingest-dense, search, eval, bench,
export-distill, judge. Exit codes: 0 success, 1 usage error, 2 runtime
error. ``--trace`` writes one JSON trace per query alongside the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import config as cfgmod
from .corpus import load_corpus, load_qrels, load_queries, read_run_file, write_run_file
from .dense import HashingEncoder, load_bundle, write_embeddings
from .errors import EmptyCorpus, RedeError, check_count
from .evalbench import evaluate_run, export_distill_dataset, measure_latency
from .judge import judge_candidates, map_in_order
from .pipeline import METHODS
from .sparse import K1_MAX, build_sparse_index, save_sparse_index


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rede", description="Zero-shot dense retrieval with relevance feedback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index-sparse", help="build and save a BM25 index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k1", type=float, default=0.9, help=f"BM25 k1, in [0, {K1_MAX:,.0f}] (default 0.9)")
    p.add_argument("--b", type=float, default=0.4)

    p = sub.add_parser("ingest-dense", help="validate an embedding bundle or encode a corpus into one")
    p.add_argument("--manifest", help="existing bundle manifest to validate/load")
    p.add_argument("--corpus", help="corpus to encode when no manifest is given")
    p.add_argument("--dim", type=int, help="dim of a freshly encoded bundle (default 64)")
    p.add_argument("--out", help="output directory for a freshly encoded bundle")

    p = sub.add_parser("search", help="run retrieval and write a TREC run file")
    _add_config_args(p)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default=None, help="run tag (default: the method name)")
    p.add_argument("--trace", default=None, help="write per-query JSON traces here")
    p.add_argument("--parallel", type=int, default=1)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gain", default="linear", choices=["linear", "exp"])
    p.add_argument("--complete", action="store_true",
                   help="score qrels queries missing from the run as 0")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("bench", help="measure per-query latency and LLM call counts")
    _add_config_args(p)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export-distill", help="export refined-query training targets")
    _add_config_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("judge", help="judge candidates and write judgments as JSONL")
    _add_config_args(p)
    p.add_argument("--run", default=None, help="candidate run file (default: initial retrieval)")
    p.add_argument("--out", required=True)

    return parser


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON run-config file")
    p.add_argument("--queries", default=None, help="overrides paths.queries")


def _engine_and_queries(args, method: str):
    """The engine ``method`` needs, built from --config; then the queries of --queries or paths.queries."""
    cfg = cfgmod.load_run_config(args.config)
    if args.queries:
        cfg["paths"]["queries"] = args.queries
    engine = cfgmod.build_engine(cfg, method)
    if not cfg["paths"]["queries"]:
        raise RedeError("no queries given (paths.queries or --queries)")
    return engine, load_queries(cfg["paths"]["queries"])


def _cmd_index_sparse(args) -> int:
    corpus = load_corpus(args.corpus)
    index = build_sparse_index(corpus, k1=args.k1, b=args.b)
    save_sparse_index(index, args.out)
    print(f"indexed {index.doc_count} documents, {len(index.terms)} terms -> {args.out}")
    return 0


def _cmd_ingest_dense(args) -> int:
    if args.manifest and not (args.corpus or args.out or args.dim is not None):
        index = load_bundle(args.manifest)
        print(f"ingested {index.count} vectors of dim {index.dim} from {args.manifest}")
        return 0
    if args.manifest or not (args.corpus and args.out):
        raise _UsageError("ingest-dense takes either --manifest alone or --corpus with --out")
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    dim = 64 if args.dim is None else args.dim
    ids = list(corpus.keys())
    vectors = HashingEncoder(dim=dim).encode([corpus[d].search_text for d in ids])
    manifest = write_embeddings(args.out, ids, vectors)
    print(f"encoded {len(ids)} documents at dim {dim} -> {manifest}")
    return 0


def _cmd_search(args) -> int:
    check_count("--parallel", args.parallel, 1, _UsageError)
    engine, queries = _engine_and_queries(args, args.method)
    results = map_in_order(lambda q: engine.search(args.method, q), queries, args.parallel)
    runs = [run for run, _ in results]
    write_run_file(args.out, runs, args.tag or args.method)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for _, trace in results:
                f.write(json.dumps(trace.to_dict()) + "\n")
    print(f"wrote {sum(len(r.ranking()[0]) for r in runs)} results for {len(runs)} queries -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run = read_run_file(args.run)
    qrels = load_qrels(args.qrels)
    report = evaluate_run(run, qrels, k=args.k, gain=args.gain, complete=args.complete)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
    print(f"ndcg@{args.k} mean {report.mean:.4f} over {len(report.per_query)} queries")
    return 0


def _cmd_bench(args) -> int:
    engine, queries = _engine_and_queries(args, args.method)
    report = measure_latency(lambda q: engine.search(args.method, q), queries, warmup=args.warmup)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
    print(
        f"mean {report.mean_ms:.2f} ms p50 {report.p50_ms:.2f} ms p95 {report.p95_ms:.2f} ms; "
        f"llm calls judge={report.judge_calls} generation={report.generation_calls}"
    )
    return 0


def _cmd_export_distill(args) -> int:
    engine, queries = _engine_and_queries(args, "rede")
    count = export_distill_dataset(engine, queries, args.out)
    print(f"wrote {count} of {len(queries)} queries -> {args.out}")
    return 0


def _cmd_judge(args) -> int:
    """The rerank row's first stage and judge, or the judge alone over --run's candidates."""
    engine, queries = _engine_and_queries(args, "rerank")
    candidate_runs = None
    if args.run:
        candidate_runs = {r.query_id: r for r in read_run_file(args.run)}
    with open(args.out, "w", encoding="utf-8") as f:
        total = 0
        for query in queries:
            if candidate_runs is None:
                judgments = engine.search("rerank", query)[1].judgments
            elif query.query_id in candidate_runs:
                judgments = judge_candidates(engine.judge, query, candidate_runs[query.query_id],
                                             engine.corpus, engine.config.llm_max_workers)
            else:
                continue
            for j in judgments:
                f.write(json.dumps(dataclasses.asdict(j)) + "\n")
                total += 1
    print(f"wrote {total} judgments -> {args.out}")
    return 0


_COMMANDS = {
    "index-sparse": _cmd_index_sparse,
    "ingest-dense": _cmd_ingest_dense,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "export-distill": _cmd_export_distill,
    "judge": _cmd_judge,
}


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:  # ValueError: a flag value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RedeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
