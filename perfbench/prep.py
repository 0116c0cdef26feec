"""Child process of ``run.py``: generate a workload's inputs, or run the index write path.

    python3 perfbench/prep.py generate <src dir> <work dir> <seed> '<generator kwargs as JSON>'
    python3 perfbench/prep.py build <src dir> <work dir>

``generate`` writes the corpus, queries, qrels, planted query vectors and
document vectors into the work directory. ``build`` reads them back
(untimed) and times ``build_sparse_index`` + ``save_sparse_index`` (the
``rede index-sparse`` write path) and ``build_dense_index`` +
``write_embeddings`` (``rede ingest-dense``). Each prints one JSON object.
Running them in a child keeps the parent's resident memory for what the
read path loads.

``reference_ms`` times a fixed posting-walk loop. The speed of a shared
machine drifts (the same loop takes 19 ms in one minute and 36 ms in the
next), so ``run.py`` times it all through a run and quotes CPU-bound times
at the speed of a machine on which the loop takes ``REFERENCE_MS``. Each
time carries its ``time.perf_counter()`` start, a system-wide monotonic
clock on Linux, so that times taken in this child line up with the
parent's.
"""

from __future__ import annotations

import json
import os
import sys
import time

REFERENCE_MS = 3.0  # nominal time of one reference loop; scaled times are quoted at this speed
REFERENCE_REPS = 10

# (doc id, tf) pairs over 20k ids, a few MB, so that the loop meets the caches much as the
# program's posting walk does; a loop over a small dict tracked query time less well
_IDS = [f"doc{i}" for i in range(20_000)]
_POSTINGS = [(_IDS[i * 7919 % 20_000], i % 7 + 1) for i in range(100_000)]
_CHUNK = 5_000
_cursor = 0


def _reference_loop() -> dict:
    """A BM25-like posting walk over the next chunk of the table."""
    global _cursor
    chunk = _POSTINGS[_cursor:_cursor + _CHUNK]
    _cursor = (_cursor + _CHUNK) % len(_POSTINGS)
    scores: dict[str, float] = {}
    for doc_id, tf in chunk:
        scores[doc_id] = scores.get(doc_id, 0.0) + tf * 1.9 / (tf + 0.9 * (0.6 + 0.4 * tf))
    return scores


def reference_ms() -> list[tuple[float, float]]:
    """(start in s, time in ms) of REFERENCE_REPS runs of the reference loop."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append((t0, (time.perf_counter() - t0) * 1000.0))
    return times


def generate(work: str, seed: str, gen_json: str) -> dict:
    import numpy as np

    from rede import generate_benchmark

    t0 = time.perf_counter()
    bench = generate_benchmark(int(seed), **json.loads(gen_json))
    generate_s = time.perf_counter() - t0
    with open(os.path.join(work, "corpus.jsonl"), "w", encoding="utf-8") as f:
        for doc in bench.corpus.values():
            f.write(json.dumps({"_id": doc.doc_id, "title": doc.title, "text": doc.text}) + "\n")
    with open(os.path.join(work, "queries.jsonl"), "w", encoding="utf-8") as f:
        for query in bench.queries:
            f.write(json.dumps({"_id": query.query_id, "text": query.text}) + "\n")
    with open(os.path.join(work, "qrels.txt"), "w", encoding="utf-8") as f:
        for query_id, rels in bench.qrels.items():
            for doc_id, rel in rels.items():
                f.write(f"{query_id} 0 {doc_id} {rel}\n")
    np.save(os.path.join(work, "query_vectors.npy"),
            np.stack([bench.encoder.table[q.text] for q in bench.queries]))
    np.save(os.path.join(work, "doc_vectors.npy"), bench.doc_vectors)
    return {"generate_s": generate_s}


def build(work: str) -> dict:
    import numpy as np

    from rede import (
        build_dense_index,
        build_sparse_index,
        load_corpus,
        save_sparse_index,
        write_embeddings,
    )

    corpus = load_corpus(os.path.join(work, "corpus.jsonl"))
    doc_ids = list(corpus)
    doc_vectors = np.load(os.path.join(work, "doc_vectors.npy"))
    index_path = os.path.join(work, "sparse.idx")

    reference = reference_ms()
    t0 = time.perf_counter()
    sparse = build_sparse_index(corpus)
    t1 = time.perf_counter()
    save_sparse_index(sparse, index_path)
    t2 = time.perf_counter()
    build_dense_index(doc_ids, doc_vectors)
    manifest = write_embeddings(os.path.join(work, "dense"), doc_ids, doc_vectors)
    t3 = time.perf_counter()
    reference += reference_ms()

    lengths = sorted(len(p) for p in sparse.postings.values())
    return {
        "sparse_build_s": t1 - t0,
        "sparse_save_s": t2 - t1,
        "dense_build_s": t3 - t2,
        "index_build_s": t3 - t0,
        "start": t0,
        "end": t3,
        "reference_ms": reference,
        "sparse_file_mb": os.path.getsize(index_path) / 1e6,
        "manifest": manifest,
        "sparse_index": index_path,
        "terms": len(lengths),
        "postings_median": lengths[len(lengths) // 2],
        "postings_max": lengths[-1],
    }


def main(argv: list[str]) -> int:
    mode, src, work, *rest = argv
    sys.path.insert(0, src)
    if mode == "generate":
        result = generate(work, *rest)
    elif mode == "build":
        result = build(work)
    else:
        raise SystemExit(f"unknown mode {mode!r}; expected generate or build")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
