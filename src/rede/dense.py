"""Precomputed document-embedding store with exact nearest-neighbor search.

The on-disk bundle is three files: raw little-endian float32 vectors
(row-major), a JSON manifest ``{"dim": D, "count": N, "id_file": ...}``,
and a newline-separated doc-id file. In memory, rows are held in ascending
doc-id order whatever the order of the id file. Search is exact brute force
by inner product; ties break by ascending doc_id. A score that is not
finite (float32 overflow of finite vectors) is an error, not a rank. One
module lock, ``_PRODUCT_LOCK``, serializes the inner products of concurrent
searches, so BLAS's thread pool serves one query at a time.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

import numpy as np

from .corpus import RankedList, _records, _top_k, tokenize
from .errors import (
    BackendUnavailable,
    DimMismatch,
    DuplicateDocId,
    MalformedRecord,
    NonFiniteVector,
    SizeMismatch,
    UnknownDocId,
    check_count,
)
from .gateway import _post_json

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

# OpenBLAS threads a large product over every CPU, so two queries calling it
# at once oversubscribe the CPUs and stretch the tail of both. The lock costs
# little: the interpreter lock already serializes the Python part of a query,
# with one client nothing waits on it, and with OPENBLAS_NUM_THREADS=1 a wait
# lasts one single-threaded product.
_PRODUCT_LOCK = threading.Lock()


@dataclass(eq=False)  # equality is identity: the fields are numpy arrays
class DenseIndex:
    dim: int
    ids: list[str]  # ascending; row i is ids[i]
    vectors: np.ndarray  # (count, dim) float32
    id_to_row: dict[str, int]

    @property
    def count(self) -> int:
        return len(self.ids)


def build_dense_index(corpus_ids: list[str], vectors: np.ndarray) -> DenseIndex:
    """The only constructor: validates the input and stores rows in ascending doc-id order."""
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] != len(corpus_ids):
        raise SizeMismatch(f"vectors shape {arr.shape} does not match {len(corpus_ids)} ids")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise NonFiniteVector(f"non-finite value in row {int(np.argmin(finite))}")
    order = sorted(range(len(corpus_ids)), key=corpus_ids.__getitem__)
    ids = [corpus_ids[i] for i in order]
    id_to_row = {doc_id: row for row, doc_id in enumerate(ids)}
    if len(id_to_row) < len(ids):
        raise DuplicateDocId(next(a for a, b in zip(ids, ids[1:]) if a == b))
    return DenseIndex(arr.shape[1], ids, arr[order], id_to_row)


def write_embeddings(out_dir: str, ids: list[str], vectors: np.ndarray, name: str = "embeddings") -> str:
    """Write a bundle load_bundle can read; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    arr = np.ascontiguousarray(vectors, dtype="<f4")
    if arr.ndim != 2 or arr.shape[0] != len(ids):
        raise SizeMismatch(f"vectors shape {arr.shape} does not match {len(ids)} ids")
    vec_path = os.path.join(out_dir, f"{name}.f32")
    id_path = os.path.join(out_dir, f"{name}.ids.txt")
    manifest_path = os.path.join(out_dir, f"{name}.manifest.json")
    arr.tofile(vec_path)
    with open(id_path, "w", encoding="utf-8") as f:
        for doc_id in ids:
            f.write(doc_id + "\n")
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(
            {"dim": arr.shape[1], "count": arr.shape[0], "id_file": os.path.basename(id_path),
             "vectors_file": os.path.basename(vec_path)},
            f,
            indent=2,
        )
        f.write("\n")
    return manifest_path


def load_bundle(manifest_path: str, vectors_path: str | None = None) -> DenseIndex:
    """Read a bundle; vectors_path overrides the manifest's own vectors_file."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        dim, count = int(manifest["dim"]), int(manifest["count"])
        id_file = os.path.join(base, manifest["id_file"])
        vectors_path = vectors_path or os.path.join(base, manifest["vectors_file"])
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedRecord(None, f"bad manifest {manifest_path}: {exc!r}") from exc
    expected = count * dim * 4
    actual = os.path.getsize(vectors_path)
    if dim < 1 or count < 0 or actual != expected:
        raise SizeMismatch(
            f"vectors file is {actual} bytes, expected {expected} ({count} x {dim} float32)"
        )
    ids = [line for _, line in _records(id_file)]
    return build_dense_index(ids, np.fromfile(vectors_path, dtype="<f4").reshape(count, dim))


def fetch_embedding(index: DenseIndex, doc_id: str) -> np.ndarray:
    """Exact stored row; no copy-time transformation."""
    row = index.id_to_row.get(doc_id)
    if row is None:
        raise UnknownDocId(doc_id)
    return index.vectors[row]


def dense_search(index: DenseIndex, query_vector: np.ndarray, k: int) -> RankedList:
    """Top-k by inner product over every row, ties broken by ascending doc_id.

    The product runs in the index's float32 whatever the query's dtype; a
    finite query value past float32's range gives a non-finite score.
    """
    q = np.asarray(query_vector)
    if q.shape != (index.dim,):
        raise DimMismatch(f"query has shape {q.shape}, index dim is {index.dim}")
    if not np.isfinite(q).all():
        raise NonFiniteVector("query vector holds a NaN or inf")
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteVector below
        q = q.astype(index.vectors.dtype, copy=False)  # a float64 query would upcast every row
        with _PRODUCT_LOCK:
            scores = index.vectors @ q
    if not np.isfinite(scores).all():
        raise NonFiniteVector("inner product overflows: a score is NaN or inf")
    return _top_k(index.ids, scores, None, k)


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

    The HTTP errors are typed as the gateway's, by ``gateway._post_json``."""

    def __init__(self, url: str, dim: int | None = None, timeout: float = 30.0):
        if dim is not None:
            check_count("dim", dim, 1)
        self.url = url
        self.dim = dim
        self.timeout = timeout

    def encode(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("texts must be a non-empty list")
        obj = _post_json(self.url, {"texts": texts}, self.timeout)
        try:
            arr = np.asarray(obj["vectors"], dtype=np.float32)
        except (KeyError, ValueError, TypeError) as exc:
            raise BackendUnavailable(f"encoder backend at {self.url}: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != len(texts):
            raise DimMismatch(f"backend returned shape {arr.shape} for {len(texts)} texts")
        if self.dim is None:
            self.dim = int(arr.shape[1])
        elif arr.shape[1] != self.dim:
            raise DimMismatch(f"backend returned dim {arr.shape[1]}, expected {self.dim}")
        if not np.isfinite(arr).all():
            raise NonFiniteVector(f"encoder backend at {self.url} returned a non-finite value")
        return arr
