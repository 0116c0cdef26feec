"""Sparse-dense score fusion for the initial retrieval stage.

Each leg's finite scores are min-max normalized over its own candidate
list, candidates missing from a leg score 0 there, and the fused score is
``alpha * sparse + (1 - alpha) * dense``. Fusion works on index rows: legs
selected over one id array (the engine's) or over equal ones bring their
rows, ascending and unsorted by score, and any other lists are numbered by
the sorted union of their doc_ids. The union of the legs' rows is marked in
a boolean array over that id list, and each leg's normalized scores are
scattered into an array over it, so no row list is sorted or searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import RankedList, _top_k
from .dense import DenseIndex, dense_search
from .errors import PreconditionViolation, check_count, check_real
from .sparse import SparseIndex, sparse_search


@dataclass
class FusionConfig:
    alpha: float = 0.5          # sparse weight
    pool_depth: int | None = None  # None: max(k, 100)

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha, 1)
        if self.pool_depth is not None:
            check_count("pool_depth", self.pool_depth, 1)


def _min_max(scores: np.ndarray) -> np.ndarray:
    """Min-max normalized float64 scores; all-equal scores map to 1.0.

    Fusion's one normalization rule: ``fuse`` applies it to each leg's finite
    scores, in ascending row order on the row path and in entry order on the
    renumbering path. lo and hi are the first minimum and the first maximum
    (``argmin``/``argmax``), which is what Python ``min``/``max`` keep, ±0.0
    included. Both orders give the same lo and hi: entries hold tied scores
    in row order, so the first of the tied minima (or maxima) is the
    lowest-numbered row either way. An empty array stays empty. When lo and
    hi are more than the largest float64 apart, both terms are halved, so
    the result stays in [0, 1] instead of dividing inf by inf.
    """
    if not len(scores):
        return np.zeros(0)
    lo, hi = float(scores[scores.argmin()]), float(scores[scores.argmax()])
    if hi == lo:
        return np.ones(len(scores))
    scores = scores.astype(np.float64)
    if math.isinf(hi - lo):
        return (scores / 2 - lo / 2) / (hi / 2 - lo / 2)
    return (scores - lo) / (hi - lo)


def _leg_rows(sparse_results: RankedList, dense_results: RankedList):
    """(doc_ids, (rows, scores) per leg); a leg's scores follow its rows.

    Two lists selected over one id array, or over equal id arrays
    (``np.array_equal``: an ``==`` of two arrays is an array, whose truth is
    an error), keep their own hits, rows ascending; any others are given
    rows in rank order by numbering the sorted union of the doc_ids of
    their ``ranking()``.
    """
    a, b = sparse_results.hits, dense_results.hits
    if a is not None and b is not None and (a[0] is b[0] or np.array_equal(a[0], b[0])):
        return a[0], (a[1], a[2]), (b[1], b[2])
    legs = sparse_results.ranking(), dense_results.ranking()
    doc_ids = sorted({doc_id for ids, _ in legs for doc_id in ids})
    row = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    return doc_ids, *((np.array([row[d] for d in ids], dtype=np.intp), np.array(scores, dtype=np.float64))
                      for ids, scores in legs)


def fuse(sparse_results: RankedList, dense_results: RankedList, alpha: float, k: int) -> RankedList:
    """Fuse two already-retrieved candidate lists over index rows.

    ``alpha`` is checked as ``FusionConfig`` checks it: a finite number in
    [0, 1], else ValueError. A NaN or ±inf score in either leg raises
    ``PreconditionViolation``. The
    union of the legs' rows is marked over the id list; each leg's normalized
    scores are scattered into a zeroed array over it, so a row missing from a
    leg scores 0.0 there. ``_top_k`` selects the best k of the union, ties by
    ascending doc_id; they are ordered only by the result's ``ranking()``,
    and paired into (doc_id, score) tuples only when its entries are read.
    """
    check_real("alpha", alpha, 1)
    doc_ids, (sparse_rows, sparse_scores), (dense_rows, dense_scores) = _leg_rows(
        sparse_results, dense_results)
    query_id = sparse_results.query_id or dense_results.query_id
    if not (np.isfinite(sparse_scores).all() and np.isfinite(dense_scores).all()):
        raise PreconditionViolation(f"fusion needs finite scores; a leg of {query_id!r} has NaN or inf")
    member = np.zeros(len(doc_ids), dtype=bool)
    member[sparse_rows] = member[dense_rows] = True
    rows = np.flatnonzero(member)
    sparse_norm, dense_norm = np.zeros(len(doc_ids)), np.zeros(len(doc_ids))
    sparse_norm[sparse_rows] = _min_max(sparse_scores)
    dense_norm[dense_rows] = _min_max(dense_scores)
    fused = np.empty(len(doc_ids))
    fused[rows] = alpha * sparse_norm[rows] + (1 - alpha) * dense_norm[rows]
    result = _top_k(doc_ids, fused, rows, k)
    result.query_id = query_id
    return result


def hybrid_search(
    sparse_index: SparseIndex,
    dense_index: DenseIndex,
    query_text: str,
    query_vector: np.ndarray,
    k: int,
    config: FusionConfig | None = None,
) -> RankedList:
    """Run both legs to pool depth and fuse; returns the top-k fused candidates."""
    config = config or FusionConfig()
    depth = config.pool_depth if config.pool_depth is not None else max(k, 100)
    sparse_results = sparse_search(sparse_index, query_text, depth)
    dense_results = dense_search(dense_index, query_vector, depth)
    return fuse(sparse_results, dense_results, config.alpha, k)
