"""Precomputed document-embedding store with exact nearest-neighbor search.

The on-disk bundle is three files: raw little-endian float32 vectors
(row-major), a JSON manifest ``{"dim": D, "count": N, "id_file": ...}``
whose sizes are integers, and a newline-separated doc-id file. In
memory, rows are held in ascending doc-id order whatever the order of the
id file: an ascending id file is kept in its order, any other is sorted
once, and the ids are also held as one read-only object array
(``id_array``) that search hands to ``_top_k``. ``write_embeddings`` writes
the index ``build_dense_index`` builds, so a bundle it writes is ascending
and loads without a sort, and what ``load_bundle`` refuses is refused before
writing. Every vector from outside the program, rows, a query or an
encoder's reply, is read by ``errors.real_array``; ``HttpEncoder`` only
carries its reply to the engine, which reads it. Every id is a string, and
``fetch_embedding`` finds a row by bisection over the ascending ids, so no
per-document map is built; ``id_to_row`` is made on first read, for
inspection only. Search is exact brute
force by inner product; ties break by ascending doc_id, and a search's
rows are returned ascending, ordered by score only when its entries are
read. A score that is not finite (float32 overflow of finite
vectors) is an error, not a rank. One module lock, ``_PRODUCT_LOCK``,
serializes the inner products of concurrent searches, so BLAS's thread
pool serves one query at a time. Within one engine query, ``QUERY_SCORES``
holds the scores of each query vector searched so far, so a search with the
same vector over the same index reuses them.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import RankedList, _id_array, _records, _strictly_ascending, _top_k, tokenize
from .errors import (
    BackendUnavailable,
    DuplicateDocId,
    MalformedRecord,
    NonFiniteVector,
    PreconditionViolation,
    SizeMismatch,
    UnknownDocId,
    check_count,
    check_real,
    check_vectors,
    real_array,
)
from .gateway import MAX_WAIT_S, post_json

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

# OpenBLAS threads a large product over every CPU, so two queries calling it
# at once oversubscribe the CPUs and stretch the tail of both. The lock costs
# little: the interpreter lock already serializes the Python part of a query,
# with one client nothing waits on it, and with OPENBLAS_NUM_THREADS=1 a wait
# lasts one single-threaded product.
_PRODUCT_LOCK = threading.Lock()

# The current query's scores, keyed by (id of the index, float32 query bytes); each value
# holds its index, so no other index can take that id while the memo lives. Set per query
# by the engine; a search outside one computes its product every time.
QUERY_SCORES: ContextVar[dict | None] = ContextVar("QUERY_SCORES", default=None)


@dataclass(eq=False)  # equality is identity: the fields are numpy arrays
class DenseIndex:
    dim: int
    ids: list[str]  # ascending; row i is ids[i]
    vectors: np.ndarray  # (count, dim) float32
    id_array: np.ndarray  # ids as a read-only object array, the one search ranks over

    @cached_property
    def id_to_row(self) -> dict[str, int]:
        """doc_id -> row; built on first read, for inspection: ``fetch_embedding`` bisects ``ids``."""
        return {doc_id: row for row, doc_id in enumerate(self.ids)}

    @property
    def count(self) -> int:
        return len(self.ids)


def build_dense_index(corpus_ids: list[str], vectors) -> DenseIndex:
    """The only public constructor: validates the input and stores rows in ascending doc-id order.

    The vectors are read by ``real_array`` in float32. The index holds copies of the caller's
    id list and array, never the objects themselves.
    """
    arr = real_array("document vectors", vectors, np.float32)
    return _own_index(list(corpus_ids), np.array(arr, order="C"))


def _own_index(ids: list[str], arr: np.ndarray) -> DenseIndex:
    """build_dense_index over an id list and float32 array that the index takes over.

    The array must hold one row per id, of a dim of at least 1 (SizeMismatch), and every
    id must be a string. A strictly ascending id list is already in row order and holds
    no id twice, so it and its rows are kept as they are; any other order is sorted once,
    and is then strictly ascending unless an id repeats. Every value must be finite
    (NonFiniteVector). The check reads only the array's min and max: a NaN makes both NaN,
    and an infinity is one of them. The per-row mask that names the bad row is built only
    on failure, so an index makes no (rows, dim) temporary.
    """
    if arr.ndim != 2 or arr.shape[0] != len(ids):
        raise SizeMismatch(f"vectors shape {arr.shape} does not match {len(ids)} ids")
    check_count("dim", arr.shape[1], 1, SizeMismatch)
    bad = [doc_id for doc_id in ids if not isinstance(doc_id, str)]
    if bad:
        raise PreconditionViolation(f"doc id {bad[0]!r} is not a string")
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteVector(f"non-finite value in row {int(np.argmin(np.isfinite(arr).all(axis=1)))}")
    if not _strictly_ascending(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, arr = [ids[i] for i in order], arr[order]
        if not _strictly_ascending(ids):
            raise DuplicateDocId(next(a for a, b in zip(ids, ids[1:]) if a == b))
    return DenseIndex(arr.shape[1], ids, arr, _id_array(ids))


def write_embeddings(out_dir: str, ids: list[str], vectors) -> str:
    """Write the index ``build_dense_index(ids, vectors)`` to out_dir as a bundle; returns the
    manifest path.

    The bundle holds that index's ascending ids and their rows, so load_bundle reads it
    without sorting, and whatever build_dense_index refuses is refused before any file is
    written. The files are always ``embeddings.manifest.json``, ``embeddings.f32`` and
    ``embeddings.ids.txt``; the manifest names the other two.

    The id file is UTF-8, read back one non-blank line per id, leading BOM
    stripped, so an id that is blank, holds a line break or a lone surrogate
    (which UTF-8 cannot encode) or starts the file with a BOM could not be
    given back; it is refused before any file is written too.
    """
    index = build_dense_index(ids, vectors)
    ids = index.ids
    bad = next((i for i in ids if not i.strip() or "\n" in i or "\r" in i), None)
    if bad is None and ids and ids[0].startswith("\ufeff"):
        bad = ids[0]
    if bad is None:
        text = "".join(doc_id + "\n" for doc_id in ids)
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as exc:  # the id is the line that holds the surrogate
            bad = text[text.rfind("\n", 0, exc.start) + 1 : text.index("\n", exc.start)]
    if bad is not None:
        raise PreconditionViolation(f"doc id {bad!r} could not be read back from the id file: it is blank, "
                                    "holds a line break or a lone surrogate, or starts the file with a BOM")
    os.makedirs(out_dir, exist_ok=True)
    vec_path = os.path.join(out_dir, "embeddings.f32")
    id_path = os.path.join(out_dir, "embeddings.ids.txt")
    manifest_path = os.path.join(out_dir, "embeddings.manifest.json")
    index.vectors.astype("<f4", copy=False).tofile(vec_path)
    with open(id_path, "wb") as f:
        f.write(data)
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(
            {"dim": index.dim, "count": index.count, "id_file": os.path.basename(id_path),
             "vectors_file": os.path.basename(vec_path)},
            f,
            indent=2,
        )
        f.write("\n")
    return manifest_path


def load_bundle(manifest_path: str) -> DenseIndex:
    """Read the bundle of a manifest; its id and vectors files are named relative to it."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        dim, count = manifest["dim"], manifest["count"]
        check_count("dim", dim, 1)
        check_count("count", count, 0)
        id_file = os.path.join(base, manifest["id_file"])
        vectors_path = os.path.join(base, manifest["vectors_file"])
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedRecord(None, f"bad manifest {manifest_path}: {exc!r}") from exc
    expected = count * dim * 4
    actual = os.path.getsize(vectors_path)
    if actual != expected:
        raise SizeMismatch(
            f"vectors file is {actual} bytes, expected {expected} ({count} x {dim} float32)"
        )
    ids = [line for _, line in _records(id_file)]
    return _own_index(ids, np.fromfile(vectors_path, dtype="<f4").reshape(count, dim))


def fetch_embedding(index: DenseIndex, doc_id: str) -> np.ndarray:
    """Exact stored row; no copy-time transformation.

    The row is found by bisection over the index's ascending ids; an id that is
    not there, or is not a string, raises UnknownDocId.
    """
    row = bisect_left(index.ids, doc_id) if isinstance(doc_id, str) else index.count
    if row == index.count or index.ids[row] != doc_id:
        raise UnknownDocId(doc_id)
    return index.vectors[row]


def dense_search(index: DenseIndex, query_vector: np.ndarray, k: int) -> RankedList:
    """Top-k by inner product over every row, ties broken by ascending doc_id.

    The query must hold real numbers; the product runs in the index's float32
    whatever their dtype (a float64 query would upcast every row), so a finite
    query value past float32's range is NonFiniteVector. Inside an engine
    query, the scores of a vector already searched are reused.
    """
    q = check_vectors("query vector", query_vector, (index.dim,), index.vectors.dtype)
    memo, key = QUERY_SCORES.get(), (id(index), q.tobytes())
    hit = None if memo is None else memo.get(key)
    if hit is not None:
        return _top_k(index.id_array, hit[1], None, k)
    with np.errstate(over="ignore", invalid="ignore"), _PRODUCT_LOCK:
        scores = index.vectors @ q
    if not np.isfinite(scores).all():
        raise NonFiniteVector("inner product overflows: a score is NaN or inf")
    if memo is not None:
        memo[key] = (index, scores)
    return _top_k(index.id_array, scores, None, k)


class HashingEncoder:
    """Deterministic hashed bag-of-words encoder for offline tests and demos.

    Buckets each token by 64-bit FNV-1a of its UTF-8 bytes mod dim, counts
    occurrences, and L2-normalizes; empty text maps to the zero vector.
    """

    def __init__(self, dim: int = 64):
        check_count("dim", dim, 1)
        self.dim = dim

    @staticmethod
    def _fnv1a(data: bytes) -> int:
        h = _FNV_OFFSET
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
        return h

    def encode(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("texts must be a non-empty list")
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            for token in tokenize(text):
                out[i, self._fnv1a(token.encode("utf-8")) % self.dim] += 1.0
            norm = np.linalg.norm(out[i])
            if norm > 0:
                out[i] /= norm
        return out


class HttpEncoder:
    """Encoder over HTTP: POST {"texts": [...]} -> {"vectors": [[...]]}; no retries.

    ``encode`` returns the reply's ``vectors`` value as the backend gave it, decoded by
    ``gateway.post_json``: the engine reads it, against the dim of the bundle it searches,
    so the encoder takes no dim. A reply without the key is BackendUnavailable, and the
    HTTP errors are typed as the gateway's."""

    def __init__(self, url: str, *, timeout: float = 30.0):
        check_real("timeout", timeout, MAX_WAIT_S, positive=True)
        self.url = url
        self.timeout = timeout

    def encode(self, texts: list[str]):
        if not texts:
            raise ValueError("texts must be a non-empty list")
        obj = post_json(self.url, {"texts": texts}, self.timeout)
        if "vectors" not in obj:
            raise BackendUnavailable(f"encoder backend at {self.url} replied without \"vectors\"")
        return obj["vectors"]
