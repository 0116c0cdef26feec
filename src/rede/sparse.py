"""BM25 inverted index and ranked keyword search.

Scoring is the Robertson variant with the (k1+1) numerator:

    score(q, d) = sum over query-token occurrences t of
                  idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

Duplicate query tokens contribute once per occurrence. Documents matching
no query term are excluded from search results. Every value is finite by
construction: k1 is at most ``K1_MAX`` and avgdl is the mean of the lengths
(none negative), so dl/avgdl <= N and norm <= k1 * N; tf + norm >= tf >= 1,
so each weight is at most idf * (k1 + 1). Rows are documents in
ascending doc-id order, so row order is the tie order. The index holds its
ids twice: the list ``doc_ids`` that is saved and checked, and the
read-only object array ``id_array`` over the same strings, built once at
construction, that search hands to ``_top_k``. A search returns its
selected rows in ascending order; they are ordered by score only when the
list's entries are read.

In memory the postings are two flat columns: term t (numbered in file order)
has the rows ``rows[offsets[t]:offsets[t+1]]``, ascending, and their tfs at
the same positions in ``tfs``. Each column takes the narrowest unsigned
integer type that holds its values: rows that of N - 1 (uint16 up to 65,536
documents), tfs that of the largest tf (uint8 up to 255). The types follow
from the data; the file format does not change. A build tokenizes each
document on its own, an ASCII one with the byte table ``_ASCII_BYTES`` and
any other with ``tokenize``. A query gathers its terms' slices and adds them
into the row scores with one bincount.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .corpus import _ASCII_BYTES, Corpus, RankedList, _id_array, _strictly_ascending, _top_k, tokenize
from .errors import EmptyCorpus, MalformedRecord, check_real

_MAGIC = b"SPIDX"
_VERSION = 2
_PREAMBLE = struct.Struct("<HQ")  # version, header length
_RUN_DOCS = 1000  # documents a build tokenizes and numbers at a time
K1_MAX = 1e6  # the largest k1 an index takes: six orders above the usual 0.9-2.0


@dataclass(frozen=True, eq=False)  # equality is identity: the fields are numpy arrays
class SparseIndex:
    doc_ids: list[str]  # ascending; row i is doc_ids[i]
    doc_lengths: np.ndarray  # (rows,) int32
    terms: dict[str, int]  # term -> its number, in file order
    offsets: np.ndarray  # (terms + 1,) int64
    pairs: InitVar[np.ndarray]  # (nnz, 2) [row, tf]; each term's rows ascending; kept as rows and tfs
    k1: float = 0.9  # in [0, K1_MAX]
    b: float = 0.4  # in [0, 1]
    avg_doc_length: float = field(init=False)  # sum(doc_lengths) / rows; > 0
    # (nnz,) each, read-only, in the narrowest unsigned types that hold N - 1 and the largest tf
    rows: np.ndarray = field(init=False, repr=False)
    tfs: np.ndarray = field(init=False, repr=False)
    norm: np.ndarray = field(init=False, repr=False)  # per row: k1 * (1 - b + b * dl / avgdl)
    id_array: np.ndarray = field(init=False, repr=False)  # doc_ids as a read-only object array

    def __post_init__(self, pairs: np.ndarray) -> None:
        _check_body(self.doc_lengths, pairs, self.offsets)  # the unsigned casts below would wrap a bad value
        check_real("k1", self.k1, K1_MAX)
        check_real("b", self.b, 1)
        # no rows and no tokens both give 0.0, which the check refuses
        avgdl = int(self.doc_lengths.sum()) / max(len(self.doc_ids), 1)
        check_real("avg_doc_length", avgdl, positive=True)
        rows = pairs[:, 0].astype(np.min_scalar_type(len(self.doc_ids) - 1))
        tfs = pairs[:, 1].astype(np.min_scalar_type(pairs[:, 1].max(initial=1)))
        rows.flags.writeable = tfs.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "tfs", tfs)
        object.__setattr__(self, "avg_doc_length", avgdl)
        object.__setattr__(self, "norm", self.k1 * (1 - self.b + self.b * self.doc_lengths / avgdl))
        object.__setattr__(self, "id_array", _id_array(self.doc_ids))

    @cached_property
    def postings(self) -> Mapping[str, np.ndarray]:
        """Read-only term -> its [row, tf] slice of one (nnz, 2) stack of ``rows`` and ``tfs``;
        built on first read, for inspection."""
        pairs = np.stack((self.rows, self.tfs), axis=1)
        pairs.flags.writeable = False
        return MappingProxyType({term: pairs[self.offsets[t] : self.offsets[t + 1]]
                                 for term, t in self.terms.items()})

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def _number_tokens(texts: list[str]) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(terms, each token's ``term * N + row`` key in token order, each row's token count).

    Terms are numbered in order of first occurrence over the texts in order,
    ``_RUN_DOCS`` texts at a time, so only one run's token objects are held.
    Tokens are keyed by their UTF-8 bytes, and each text takes its own path: an
    ASCII text is encoded, translated with ``_ASCII_BYTES`` and split, any other
    goes through ``tokenize`` and each of its tokens is encoded (a token never
    holds a surrogate, so every token encodes). A text's token count is taken
    as its tokens are made, each key's row is repeated from those counts, and
    only the distinct terms are decoded.
    """
    n = len(texts)
    numbers = defaultdict()
    numbers.default_factory = numbers.__len__  # a new term takes the next number
    runs, lengths = [], []
    for start in range(0, n, _RUN_DOCS):
        tokens = []
        for text in texts[start : start + _RUN_DOCS]:
            made = (text.encode().translate(_ASCII_BYTES).split() if text.isascii()
                    else list(map(str.encode, tokenize(text))))
            lengths.append(len(made))
            tokens += made
        keys = np.fromiter(map(numbers.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        keys *= n  # in place: new temporaries per run fragment the heap (+23 MB peak RSS at 100k docs)
        keys += np.repeat(np.arange(start, len(lengths)), lengths[start:])
        runs.append(keys)
    terms = {term.decode(): t for t, term in enumerate(numbers)}
    return terms, np.concatenate(runs), np.array(lengths, dtype=np.int32)


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
    return SparseIndex(doc_ids, lengths, terms, offsets, pairs, k1, b)


def _bm25(index: SparseIndex, query_tokens: list[str]) -> np.ndarray:
    """BM25 of every row; terms are added as count * contribution, in query-term order.

    The query's term slices of ``rows`` and ``tfs`` are gathered in query-term
    order straight into one intp and one float64 array, and each posting's
    weight is ``count * (idf * tf * (k1 + 1) / (tf + norm[row]))`` with idf and
    count repeated per posting, in the order of the per-term formula. A term's
    rows are distinct and bincount adds each row's weights in input order from
    0.0, so this is one ``scores[rows] +=`` per term, bit for bit. Every weight
    is finite (module docstring), so no score needs a check.
    """
    row_slices, tf_slices, dfs, idfs, counts = [], [], [], [], []
    for term, count in Counter(query_tokens).items():
        t = index.terms.get(term)
        if t is None:
            continue
        start, stop = index.offsets[t], index.offsets[t + 1]
        row_slices.append(index.rows[start:stop])
        tf_slices.append(index.tfs[start:stop])
        df = len(row_slices[-1])
        dfs.append(df)
        idfs.append(math.log(1 + (index.doc_count - df + 0.5) / (df + 0.5)))
        counts.append(count)
    if not dfs:
        return np.zeros(index.doc_count)
    rows, tf = np.concatenate(row_slices, dtype=np.intp), np.concatenate(tf_slices, dtype=np.float64)
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
        f.write(np.stack((index.rows, index.tfs), axis=1, dtype="<i4"))


def _check_body(doc_lengths: np.ndarray, pairs: np.ndarray, offsets: np.ndarray) -> None:
    """Lengths >= 0 (a negative one can make ``tf + norm`` zero), rows in range and
    strictly ascending within each term, tf >= 1: a repeated row would be added
    twice by the bincount in ``_bm25``. Every index runs it, built, loaded or
    constructed directly."""
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
    document lengths are copied out of it and the pairs narrowed into ``rows``
    and ``tfs``, so no view keeps the body alive."""
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
    try:
        index = SparseIndex(ids, values[: len(ids)].copy(), term_numbers, offsets,
                            values[len(ids) :].reshape(-1, 2), k1, b)
        if avgdl != index.avg_doc_length:
            raise ValueError(f"avgdl {avgdl!r} is not the mean document length {index.avg_doc_length!r}")
    except ValueError as exc:
        raise MalformedRecord(None, f"bad sparse index header: {exc}") from exc
    return index
