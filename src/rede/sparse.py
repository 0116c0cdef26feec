"""BM25 inverted index and ranked keyword search.

Scoring is the Robertson variant with the (k1+1) numerator:

    score(q, d) = sum over query-token occurrences t of
                  idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

Duplicate query tokens contribute once per occurrence. Documents matching
no query term are excluded from search results. Rows are documents in
ascending doc-id order, so row order is the tie order.

In memory the postings are flat arrays: term t (numbered in file order) has
the [row, tf] pairs ``pairs[offsets[t]:offsets[t+1]]``, rows ascending. A
query gathers its terms' slices and adds them into the row scores with one
bincount.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from types import MappingProxyType

import numpy as np

from .corpus import _ASCII_BYTES, Corpus, RankedList, _strictly_ascending, _top_k, tokenize
from .errors import EmptyCorpus, MalformedRecord

_MAGIC = b"SPIDX"
_VERSION = 2
_PREAMBLE = struct.Struct("<HQ")  # version, header length


@dataclass(frozen=True, eq=False)  # equality is identity: the fields are numpy arrays
class SparseIndex:
    doc_ids: list[str]  # ascending; row i is doc_ids[i]
    doc_lengths: np.ndarray  # (rows,) int32
    terms: dict[str, int]  # term -> its number, in file order
    offsets: np.ndarray  # (terms + 1,) int64
    pairs: np.ndarray  # (nnz, 2) int32 [row, tf]; each term's rows ascending
    avg_doc_length: float
    k1: float = 0.9
    b: float = 0.4
    norm: np.ndarray = field(init=False, repr=False)  # per row: k1 * (1 - b + b * dl / avgdl)

    def __post_init__(self) -> None:
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        self.pairs.flags.writeable = False
        norm = self.k1 * (1 - self.b + self.b * self.doc_lengths / self.avg_doc_length)
        object.__setattr__(self, "norm", norm)

    @cached_property
    def postings(self) -> Mapping[str, np.ndarray]:
        """Read-only term -> its [row, tf] slice of ``pairs``; built on first read, for inspection."""
        return MappingProxyType({term: self.pairs[self.offsets[t] : self.offsets[t + 1]]
                                 for term, t in self.terms.items()})

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def _number_tokens(texts: list[str]) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """(terms, each token's term number, each token's row, each row's token count).

    Terms are numbered in one pass, in order of first occurrence over the texts
    in order. If every text is ASCII they are joined around a 0xFF byte, which
    no ASCII text holds, tokenized as one byte string with ``_ASCII_BYTES`` and
    one split, and the 0xFF tokens mark where each text ends; only the distinct
    terms are decoded. Any other corpus is tokenized one text at a time.
    """
    numbers = defaultdict()
    numbers.default_factory = numbers.__len__  # a new term takes the next number
    n = len(texts)
    if all(map(str.isascii, texts)):
        numbers[b"\xff"]  # the text boundary is term 0
        tokens = " \xff ".join(texts).encode("latin-1").translate(_ASCII_BYTES).split()
        term_of = np.fromiter(map(numbers.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        kept = term_of != 0
        rows = np.cumsum(~kept)[kept]  # a token's row is the count of boundaries before it
        terms = {term.decode("ascii"): t for t, term in enumerate(islice(numbers, 1, None))}
        return terms, term_of[kept] - 1, rows, np.bincount(rows, minlength=n)
    docs = [tokenize(text) for text in texts]
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n)
    term_of = np.fromiter(map(numbers.__getitem__, chain.from_iterable(docs)), dtype=np.int64,
                          count=int(lengths.sum()))
    # a plain dict: a lookup of a missing term must raise, not number it
    return dict(numbers), term_of, np.repeat(np.arange(n, dtype=np.int64), lengths), lengths


def build_sparse_index(corpus: Corpus, k1: float = 0.9, b: float = 0.4) -> SparseIndex:
    """Terms are numbered by first occurrence over the documents in row order, in
    one pass over the tokens of the whole corpus (``_number_tokens``: one byte
    string for an all-ASCII corpus, one ``tokenize`` per document otherwise); one
    sort of ``term * N + row`` keys gives every term's rows, ascending."""
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    doc_ids = sorted(corpus)
    terms, term_of, rows, lengths = _number_tokens([corpus[doc_id].search_text for doc_id in doc_ids])
    total = len(term_of)
    if total == 0:
        raise EmptyCorpus("every document tokenizes to nothing")
    n = len(doc_ids)
    keys = term_of * n
    keys += rows
    keys, tf = np.unique(keys, return_counts=True)
    term_of, rows = np.divmod(keys, n)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=offsets[1:])
    pairs = np.column_stack((rows, tf)).astype(np.int32)
    return SparseIndex(doc_ids, lengths.astype(np.int32), terms, offsets, pairs, total / n, k1, b)


def _bm25(index: SparseIndex, query_tokens: list[str]) -> np.ndarray:
    """BM25 of every row; terms are added as count * contribution, in query-term order.

    A term's rows are distinct and bincount adds each row's weights in input
    order from 0.0, so this is one ``scores[rows] +=`` per term, bit for bit.
    """
    rows, weights = [], []
    for term, count in Counter(query_tokens).items():
        t = index.terms.get(term)
        if t is None:
            continue
        row, tf = index.pairs[index.offsets[t] : index.offsets[t + 1]].T
        idf = math.log(1 + (index.doc_count - len(row) + 0.5) / (len(row) + 0.5))
        rows.append(row)
        weights.append(count * (idf * tf * (index.k1 + 1) / (tf + index.norm[row])))
    if not rows:
        return np.zeros(index.doc_count)
    return np.bincount(np.concatenate(rows), np.concatenate(weights), minlength=index.doc_count)


def sparse_search(index: SparseIndex, query_text: str, k: int) -> RankedList:
    """Top-k docs by BM25, ties broken by ascending doc_id; zero scores dropped."""
    scores = _bm25(index, tokenize(query_text))
    return _top_k(index.doc_ids, scores, np.flatnonzero(scores > 0), k)


def save_sparse_index(index: SparseIndex, path: str) -> None:
    """Magic, u16 version, u64 header length, JSON header, then little-endian int32
    document lengths followed by each term's [row, tf] pairs in header order."""
    header = json.dumps({
        "ids": index.doc_ids, "terms": list(index.terms), "df": np.diff(index.offsets).tolist(),
        "k1": index.k1, "b": index.b, "avgdl": index.avg_doc_length,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC + _PREAMBLE.pack(_VERSION, len(header)) + header)
        f.write(index.doc_lengths.astype("<i4").tobytes())
        f.write(index.pairs.astype("<i4").tobytes())


def _check_body(doc_lengths: np.ndarray, pairs: np.ndarray, offsets: np.ndarray) -> None:
    """Lengths >= 0 (a negative one can make ``tf + norm`` zero), rows in range and
    strictly ascending within each term, tf >= 1: a repeated row would be added
    twice by the bincount in ``_bm25``."""
    doc_count, rows, tf = len(doc_lengths), pairs[:, 0], pairs[:, 1]
    if doc_count and doc_lengths.min() < 0:
        raise MalformedRecord(None, "sparse index document length below 0")
    if len(pairs) and not 0 <= rows.min() <= rows.max() < doc_count:
        raise MalformedRecord(None, "sparse index posting row out of range")
    ascending = rows[1:] > rows[:-1]
    ascending[offsets[1:-1] - 1] = True  # a term's first row follows the last term's last row
    if not ascending.all():
        raise MalformedRecord(None, "sparse index posting rows of a term are not strictly ascending")
    if len(pairs) and tf.min() < 1:
        raise MalformedRecord(None, "sparse index term frequency below 1")


def load_sparse_index(path: str) -> SparseIndex:
    """Reads the header, then the body straight into one int32 array; the
    document lengths and the pairs are views of it, and nothing else is kept."""
    start = len(_MAGIC) + _PREAMBLE.size
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        preamble = f.read(start)
        if preamble[: len(_MAGIC)] != _MAGIC or len(preamble) < start:
            raise MalformedRecord(None, f"{path} is not a sparse index file")
        version, header_len = _PREAMBLE.unpack_from(preamble, len(_MAGIC))
        if version != _VERSION:
            raise MalformedRecord(None, f"unsupported index version {version}; rebuild it with rede index-sparse")
        try:
            if header_len > size - start:
                raise ValueError("header runs past the end of the file")
            header = json.loads(f.read(header_len))
            ids, terms, df = header["ids"], header["terms"], [int(n) for n in header["df"]]
            k1, b, avgdl = float(header["k1"]), float(header["b"]), float(header["avgdl"])
            if len(terms) != len(df) or min(df, default=1) < 1:
                raise ValueError("terms and document frequencies disagree")
            if not 0 < avgdl < math.inf:
                raise ValueError(f"avgdl must be positive and finite, got {avgdl}")
            term_numbers = {term: t for t, term in enumerate(terms)}
            if len(term_numbers) != len(terms):
                raise ValueError("a term is listed twice")
            if not _strictly_ascending(ids):
                raise ValueError("ids are not strictly ascending")
            declared = len(ids) + 2 * sum(df)
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedRecord(None, f"bad sparse index header: {exc!r}") from exc
        body_size = size - start - header_len
        if body_size != 4 * declared:
            raise MalformedRecord(None, f"sparse index body is {body_size} bytes, not the declared size")
        values = np.empty(declared, dtype="<i4")
        if f.readinto(values) != values.nbytes:
            raise MalformedRecord(None, f"{path} changed while it was read")
    offsets = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(df, out=offsets[1:])
    pairs = values[len(ids) :].reshape(-1, 2)
    _check_body(values[: len(ids)], pairs, offsets)
    try:
        return SparseIndex(ids, values[: len(ids)], term_numbers, offsets, pairs, avgdl, k1, b)
    except ValueError as exc:
        raise MalformedRecord(None, f"bad sparse index header: {exc}") from exc
