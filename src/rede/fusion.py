"""Sparse-dense score fusion for the initial retrieval stage.

Each leg is min-max normalized over its own candidate list, candidates
missing from a leg score 0 there, and the fused score is
``alpha * sparse + (1 - alpha) * dense``. Fusion works on index rows: legs
ranked over one id list (the engine's) bring their rows along, and any
other lists are numbered by the sorted union of their doc_ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import RankedList, _top_k
from .dense import DenseIndex, dense_search
from .sparse import SparseIndex, sparse_search


@dataclass
class FusionConfig:
    alpha: float = 0.5          # sparse weight
    pool_depth: int | None = None  # None: max(k, 100)

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.pool_depth is not None and self.pool_depth < 1:
            raise ValueError(f"pool_depth must be >= 1, got {self.pool_depth}")


def _min_max(scores: np.ndarray) -> np.ndarray:
    """Min-max normalized float64 scores; all-equal scores map to 1.0.

    lo and hi are Python ``min``/``max`` over the scores in list order, so a
    NaN counts only where it stands first; an empty array stays empty.
    """
    values = scores.tolist()
    if not values:
        return np.zeros(0)
    lo, hi = min(values), max(values)
    if hi == lo:
        return np.ones(len(values))
    with np.errstate(over="ignore", invalid="ignore"):
        return (scores.astype(np.float64) - lo) / (hi - lo)


def normalize_scores(entries: RankedList) -> RankedList:
    """Min-max normalize; all-equal scores map to 1.0; empty list unchanged."""
    scores = _min_max(np.array([s for _, s in entries.entries], dtype=np.float64))
    return RankedList(entries.query_id, list(zip(entries.doc_ids(), scores.tolist())))


def _leg_rows(sparse_results: RankedList, dense_results: RankedList):
    """(doc_ids, (rows, scores) per leg) with scores in entry order.

    Two lists ranked over one id list keep their own hits; any others are
    given rows by numbering the sorted union of their doc_ids.
    """
    a, b = sparse_results.hits, dense_results.hits
    if a is not None and b is not None and a[0] is b[0]:
        return a[0], (a[1], a[2]), (b[1], b[2])
    doc_ids = sorted({d for d, _ in sparse_results.entries} | {d for d, _ in dense_results.entries})
    row = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    def leg(results: RankedList) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([row[d] for d, _ in results.entries], dtype=np.intp),
                np.array([s for _, s in results.entries], dtype=np.float64))

    return doc_ids, leg(sparse_results), leg(dense_results)


def fuse(sparse_results: RankedList, dense_results: RankedList, alpha: float, k: int) -> RankedList:
    """Fuse two already-retrieved candidate lists over index rows.

    ``_top_k`` ranks the union of the legs' rows, ties by ascending doc_id;
    (doc_id, score) tuples are built only for the k entries returned.
    """
    doc_ids, (sparse_rows, sparse_scores), (dense_rows, dense_scores) = _leg_rows(
        sparse_results, dense_results)
    rows = np.sort(np.concatenate((sparse_rows, dense_rows)))  # np.union1d, without np.unique's cost
    distinct = np.ones(len(rows), dtype=bool)
    distinct[1:] = rows[1:] != rows[:-1]
    rows = rows[distinct]
    sparse_norm, dense_norm = np.zeros(len(rows)), np.zeros(len(rows))
    sparse_norm[np.searchsorted(rows, sparse_rows)] = _min_max(sparse_scores)
    dense_norm[np.searchsorted(rows, dense_rows)] = _min_max(dense_scores)
    fused = np.empty(len(doc_ids))
    with np.errstate(over="ignore", invalid="ignore"):
        fused[rows] = alpha * sparse_norm + (1 - alpha) * dense_norm
    result = _top_k(doc_ids, fused, rows, k)
    result.query_id = sparse_results.query_id or dense_results.query_id
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    config = config or FusionConfig()
    depth = config.pool_depth if config.pool_depth is not None else max(k, 100)
    sparse_results = sparse_search(sparse_index, query_text, depth)
    dense_results = dense_search(dense_index, query_vector, depth)
    return fuse(sparse_results, dense_results, config.alpha, k)
