"""BM25 inverted index and ranked keyword search.

Scoring is the Robertson variant with the (k1+1) numerator:

    score(q, d) = sum over query-token occurrences t of
                  idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

Duplicate query tokens contribute once per occurrence. Documents matching
no query term are excluded from search results. Rows are documents in
ascending doc-id order, so row order is the tie order.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, RankedList, _strictly_ascending, _top_k, tokenize
from .errors import EmptyCorpus, MalformedRecord, UnknownDocId

_MAGIC = b"SPIDX"
_VERSION = 2
_PREAMBLE = struct.Struct("<HQ")  # version, header length
_MIN_AVGDL = 1e-9


@dataclass
class SparseIndex:
    doc_ids: list[str]  # ascending; row i is doc_ids[i]
    doc_lengths: np.ndarray  # (rows,) int32
    postings: dict[str, np.ndarray]  # term -> (df, 2) int32 [row, tf], rows ascending
    avg_doc_length: float
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        return math.log(1 + (self.doc_count - df + 0.5) / (df + 0.5))


def build_sparse_index(corpus: Corpus, k1: float = 0.9, b: float = 0.4) -> SparseIndex:
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    doc_ids = sorted(corpus)
    lengths: list[int] = []
    flat: dict[str, list[int]] = {}
    for row, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus[doc_id].search_text)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            flat.setdefault(term, []).extend((row, tf))
    total = sum(lengths)
    if total == 0:
        raise EmptyCorpus("every document tokenizes to nothing")
    postings = {t: np.array(p, dtype=np.int32).reshape(-1, 2) for t, p in flat.items()}
    avgdl = max(total / len(doc_ids), _MIN_AVGDL)
    return SparseIndex(doc_ids, np.array(lengths, dtype=np.int32), postings, avgdl, k1, b)


def _bm25(index: SparseIndex, query_tokens: list[str]) -> np.ndarray:
    """BM25 of every row; terms are added as count * contribution, in query-term order."""
    scores = np.zeros(index.doc_count)
    for term, count in Counter(query_tokens).items():
        posting = index.postings.get(term)
        if posting is None:
            continue
        rows, tf = posting[:, 0], posting[:, 1]
        norm = index.k1 * (1 - index.b + index.b * index.doc_lengths[rows] / index.avg_doc_length)
        scores[rows] += count * (index.idf(term) * tf * (index.k1 + 1) / (tf + norm))
    return scores


def bm25_score(index: SparseIndex, query_tokens: list[str], doc_id: str) -> float:
    row = bisect_left(index.doc_ids, doc_id)
    if row == index.doc_count or index.doc_ids[row] != doc_id:
        raise UnknownDocId(doc_id)
    return float(_bm25(index, query_tokens)[row])


def sparse_search(index: SparseIndex, query_text: str, k: int) -> RankedList:
    """Top-k docs by BM25, ties broken by ascending doc_id; zero scores dropped."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = _bm25(index, tokenize(query_text))
    return _top_k(index.doc_ids, scores, np.flatnonzero(scores > 0), k)


def save_sparse_index(index: SparseIndex, path: str) -> None:
    """Magic, u16 version, u64 header length, JSON header, then little-endian int32
    document lengths followed by each term's [row, tf] pairs in header order."""
    header = json.dumps({
        "ids": index.doc_ids, "terms": list(index.postings),
        "df": [len(p) for p in index.postings.values()],
        "k1": index.k1, "b": index.b, "avgdl": index.avg_doc_length,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC + _PREAMBLE.pack(_VERSION, len(header)) + header)
        f.write(index.doc_lengths.astype("<i4").tobytes())
        for posting in index.postings.values():
            f.write(posting.astype("<i4").tobytes())


def load_sparse_index(path: str) -> SparseIndex:
    with open(path, "rb") as f:
        data = f.read()
    start = len(_MAGIC) + _PREAMBLE.size
    if data[: len(_MAGIC)] != _MAGIC or len(data) < start:
        raise MalformedRecord(None, f"{path} is not a sparse index file")
    version, header_len = _PREAMBLE.unpack_from(data, len(_MAGIC))
    if version != _VERSION:
        raise MalformedRecord(None, f"unsupported index version {version}; rebuild it with rede index-sparse")
    try:
        header = json.loads(data[start : start + header_len])
        ids, terms, df = header["ids"], header["terms"], [int(n) for n in header["df"]]
        k1, b, avgdl = float(header["k1"]), float(header["b"]), float(header["avgdl"])
        if len(terms) != len(df) or min(df, default=1) < 1:
            raise ValueError("terms and document frequencies disagree")
        if not _strictly_ascending(ids):
            raise ValueError("ids are not strictly ascending")
        declared = 4 * (len(ids) + 2 * sum(df))
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedRecord(None, f"bad sparse index header: {exc!r}") from exc
    body = data[start + header_len :]
    if len(body) != declared:
        raise MalformedRecord(None, f"sparse index body is {len(body)} bytes, not the declared size")
    values = np.frombuffer(body, dtype="<i4")
    pairs = values[len(ids) :].reshape(-1, 2)
    if len(pairs) and not 0 <= pairs[:, 0].min() <= pairs[:, 0].max() < len(ids):
        raise MalformedRecord(None, "sparse index posting row out of range")
    postings = dict(zip(terms, np.split(pairs, np.cumsum(df)[:-1])))
    return SparseIndex(ids, values[: len(ids)], postings, avgdl, k1, b)
