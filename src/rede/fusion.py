"""Sparse-dense score fusion for the initial retrieval stage.

Each leg is min-max normalized over its own candidate list, candidates
missing from a leg score 0 there, and the fused score is
``alpha * sparse + (1 - alpha) * dense``.
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


def normalize_scores(entries: RankedList) -> RankedList:
    """Min-max normalize; all-equal scores map to 1.0; empty list unchanged."""
    if not entries.entries:
        return RankedList(entries.query_id, [])
    scores = [s for _, s in entries.entries]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return RankedList(entries.query_id, [(d, 1.0) for d, _ in entries.entries])
    return RankedList(entries.query_id, [(d, (s - lo) / (hi - lo)) for d, s in entries.entries])


def fuse(sparse_results: RankedList, dense_results: RankedList, alpha: float, k: int) -> RankedList:
    """Fuse two already-retrieved candidate lists; ``_top_k`` ranks the union, ties by ascending doc_id."""
    sparse_norm = dict(normalize_scores(sparse_results).entries)
    dense_norm = dict(normalize_scores(dense_results).entries)
    doc_ids = sorted(sparse_norm.keys() | dense_norm.keys())
    fused = np.array([alpha * sparse_norm.get(doc_id, 0.0) + (1 - alpha) * dense_norm.get(doc_id, 0.0)
                      for doc_id in doc_ids], dtype=np.float64)
    result = _top_k(doc_ids, fused, np.arange(len(doc_ids)), k)
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
