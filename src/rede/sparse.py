"""BM25 inverted index and ranked keyword search.

Scoring is the Robertson variant with the (k1+1) numerator:

    score(q, d) = sum over query-token occurrences t of
                  idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

Duplicate query tokens contribute once per occurrence. Documents matching
no query term are excluded from search results. Rows are documents in
ascending doc-id order, so row order is the tie order. The index holds its
ids twice: the list ``doc_ids`` that is saved and checked, and the
read-only object array ``id_array`` over the same strings, built once at
construction, that search hands to ``_top_k``. A search returns its
selected rows in ascending order; they are ordered by score only when the
list's entries are read.

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
from itertools import islice
from types import MappingProxyType

import numpy as np

from .corpus import _ASCII_BYTES, Corpus, RankedList, _id_array, _strictly_ascending, _top_k, tokenize
from .errors import EmptyCorpus, MalformedRecord, check_real

_MAGIC = b"SPIDX"
_VERSION = 2
_PREAMBLE = struct.Struct("<HQ")  # version, header length
_RUN_DOCS = 1000  # documents a build tokenizes and numbers at a time


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
    id_array: np.ndarray = field(init=False, repr=False)  # doc_ids as a read-only object array

    def __post_init__(self) -> None:
        check_real("k1", self.k1)
        check_real("b", self.b, 1)
        check_real("avg_doc_length", self.avg_doc_length, positive=True)
        self.pairs.flags.writeable = False
        norm = self.k1 * (1 - self.b + self.b * self.doc_lengths / self.avg_doc_length)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "id_array", _id_array(self.doc_ids))

    @cached_property
    def postings(self) -> Mapping[str, np.ndarray]:
        """Read-only term -> its [row, tf] slice of ``pairs``; built on first read, for inspection."""
        return MappingProxyType({term: self.pairs[self.offsets[t] : self.offsets[t + 1]]
                                 for term, t in self.terms.items()})

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def _number_tokens(texts: list[str]) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(terms, each token's ``term * N + row`` key in token order, each row's token count).

    Terms are numbered in order of first occurrence over the texts in order,
    ``_RUN_DOCS`` texts at a time, so only one run's token objects are held.
    Tokens are keyed by their UTF-8 bytes. An all-ASCII run is joined around a
    0xFF byte, tokenized as one byte string with ``_ASCII_BYTES`` and one split;
    any other run is tokenized one text at a time, a 0xFF after each text, and
    each text picks its own path: an ASCII text is encoded, translated with
    ``_ASCII_BYTES`` and split, any other goes through ``tokenize`` and each of
    its tokens is encoded. 0xFF never occurs in UTF-8 and a token never holds
    a surrogate, so every token encodes and none is the boundary. The boundary
    is term 0, a token's row is the run's first row plus the count of
    boundaries before it, and only the distinct terms are decoded.
    """
    n = len(texts)
    numbers = defaultdict()
    numbers.default_factory = numbers.__len__  # a new term takes the next number
    numbers[b"\xff"]  # the text boundary is term 0
    runs, lengths = [], np.empty(n, dtype=np.int32)
    for start in range(0, n, _RUN_DOCS):
        run = texts[start : start + _RUN_DOCS]
        if all(map(str.isascii, run)):
            tokens = " \xff ".join(run).encode("latin-1").translate(_ASCII_BYTES).split()
        else:
            tokens = []
            for text in run:
                tokens += (text.encode().translate(_ASCII_BYTES).split() if text.isascii()
                           else map(str.encode, tokenize(text)))
                tokens.append(b"\xff")
        keys = np.fromiter(map(numbers.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        kept = keys != 0
        rows = np.cumsum(~kept)[kept]
        lengths[start : start + len(run)] = np.bincount(rows, minlength=len(run))
        keys = keys[kept]  # in place: new temporaries per run fragment the heap (+23 MB peak RSS at 100k docs)
        keys -= 1
        keys *= n
        keys += rows
        keys += start
        runs.append(keys)
    terms = {term.decode(): t for t, term in enumerate(islice(numbers, 1, None))}
    return terms, np.concatenate(runs), lengths


def build_sparse_index(corpus: Corpus, k1: float = 0.9, b: float = 0.4) -> SparseIndex:
    """Terms are numbered by first occurrence over the documents in row order
    (``_number_tokens``, one run of documents at a time); one in-place sort of
    the ``term * N + row`` keys gives every term's rows, ascending, and each
    key's run length is its tf."""
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    doc_ids = sorted(corpus)
    terms, keys, lengths = _number_tokens([corpus[doc_id].search_text for doc_id in doc_ids])
    total = len(keys)
    if total == 0:
        raise EmptyCorpus("every document tokenizes to nothing")
    n = len(doc_ids)
    keys.sort()
    first = np.empty(total, dtype=bool)  # where each distinct key first appears
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = keys[starts]
    pairs = np.empty((len(keys), 2), dtype=np.int32)
    np.remainder(keys, n, out=pairs[:, 0])
    np.subtract(starts[1:], starts[:-1], out=pairs[:-1, 1])  # a key's count is its tf
    pairs[-1, 1] = total - starts[-1]
    # term t's keys are the ones in [t * N, (t + 1) * N)
    offsets = np.searchsorted(keys, np.arange(len(terms) + 1, dtype=np.int64) * n)
    return SparseIndex(doc_ids, lengths, terms, offsets, pairs, total / n, k1, b)


def _bm25(index: SparseIndex, query_tokens: list[str]) -> np.ndarray:
    """BM25 of every row; terms are added as count * contribution, in query-term order.

    The query's term slices of ``pairs`` are gathered in query-term order into
    one array, and each posting's weight is ``count * (idf * tf * (k1 + 1) /
    (tf + norm[row]))`` with idf and count repeated per posting, in the order of
    the per-term formula. A term's rows are distinct and bincount adds each
    row's weights in input order from 0.0, so this is one ``scores[rows] +=``
    per term, bit for bit.
    """
    slices, dfs, idfs, counts = [], [], [], []
    for term, count in Counter(query_tokens).items():
        t = index.terms.get(term)
        if t is None:
            continue
        slices.append(index.pairs[index.offsets[t] : index.offsets[t + 1]])
        df = len(slices[-1])
        dfs.append(df)
        idfs.append(math.log(1 + (index.doc_count - df + 0.5) / (df + 0.5)))
        counts.append(count)
    if not slices:
        return np.zeros(index.doc_count)
    postings = np.concatenate(slices)
    rows, tf = postings[:, 0].astype(np.intp), postings[:, 1].astype(np.float64)
    weights = np.repeat(idfs, dfs)
    weights *= tf
    weights *= index.k1 + 1
    tf += index.norm[rows]  # now the denominator tf + norm[row]
    weights /= tf
    if max(counts) > 1:  # 1 * w is w
        weights *= np.repeat(counts, dfs)
    return np.bincount(rows, weights, minlength=index.doc_count)


def sparse_search(index: SparseIndex, query_text: str, k: int) -> RankedList:
    """Top-k docs by BM25, ties broken by ascending doc_id; zero scores dropped."""
    scores = _bm25(index, tokenize(query_text))
    return _top_k(index.id_array, scores, np.flatnonzero(scores > 0), k)


def save_sparse_index(index: SparseIndex, path: str) -> None:
    """Magic, u16 version, u64 header length, JSON header, then little-endian int32
    document lengths followed by each term's [row, tf] pairs in header order."""
    header = json.dumps({
        "ids": index.doc_ids, "terms": list(index.terms), "df": np.diff(index.offsets).tolist(),
        "k1": index.k1, "b": index.b, "avgdl": index.avg_doc_length,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC + _PREAMBLE.pack(_VERSION, len(header)) + header)
        f.write(np.ascontiguousarray(index.doc_lengths, dtype="<i4"))
        f.write(np.ascontiguousarray(index.pairs, dtype="<i4"))


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
