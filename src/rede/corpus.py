"""Corpus, query, qrels and run-file I/O plus the shared tokenizer.

File formats:
  corpus  - JSONL with ``_id``/``title``/``text`` keys, or TSV with
            ``id<TAB>text`` / ``id<TAB>title<TAB>text`` columns
  queries - JSONL with ``_id``/``text``, or two-column TSV ``id<TAB>text``
  qrels   - whitespace-separated ``qid iter docid rel`` (iter ignored)
  run     - ``qid Q0 docid rank score tag``, rank from 1, score %.6f
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateDocId,
    DuplicateQueryId,
    MalformedRecord,
    NegativeRelevance,
    PreconditionViolation,
)

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint; no stemming."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str

    @property
    def search_text(self) -> str:
        """The single concatenation point every downstream consumer uses."""
        return f"{self.title}. {self.text}" if self.title else self.text


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str


@dataclass(frozen=True)
class QrelEntry:
    query_id: str
    doc_id: str
    relevance: int


@dataclass
class RankedList:
    """Ordered (doc_id, score) results for one query.

    Invariants: scores non-increasing, doc_ids distinct.
    """

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def validate(self) -> None:
        seen: set[str] = set()
        prev = None
        for doc_id, score in self.entries:
            if doc_id in seen:
                raise PreconditionViolation(
                    f"duplicate doc_id {doc_id!r} in ranked list for {self.query_id!r}"
                )
            seen.add(doc_id)
            if math.isnan(score):
                raise PreconditionViolation(f"NaN score for {doc_id!r} in ranked list for {self.query_id!r}")
            if prev is not None and score > prev:
                raise PreconditionViolation(
                    f"scores not non-increasing in ranked list for {self.query_id!r}"
                )
            prev = score

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def _top_k(doc_ids: Sequence[str], scores: np.ndarray, rows: np.ndarray, k: int) -> RankedList:
    """The k best of ``rows`` by descending score, ties broken by ascending doc_id.

    Row i is ``doc_ids[i]``. Both ``doc_ids`` and ``rows`` must be ascending, so
    a stable sort on descending score keeps tied rows in doc-id order.
    """
    best = rows[np.argsort(-scores[rows], kind="stable")[:k]]
    return RankedList("", [(doc_ids[i], float(scores[i])) for i in best.tolist()])


Corpus = dict[str, Document]
Qrels = dict[str, dict[str, int]]


def load_corpus(path: str, format: str = "jsonl") -> Corpus:
    """Load a corpus file into a doc_id -> Document map."""
    corpus: Corpus = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format == "jsonl":
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
                if "_id" not in obj or "text" not in obj:
                    raise MalformedRecord(line_no, "missing '_id' or 'text' field")
                doc = Document(str(obj["_id"]), str(obj.get("title", "") or ""), str(obj["text"]))
            elif format == "tsv":
                cols = line.split("\t")
                if len(cols) == 2:
                    doc = Document(cols[0], "", cols[1])
                elif len(cols) == 3:
                    doc = Document(cols[0], cols[1], cols[2])
                else:
                    raise MalformedRecord(line_no, f"expected 2 or 3 columns, got {len(cols)}")
            else:
                raise ValueError(f"unsupported corpus format: {format!r}")
            if not doc.doc_id:
                raise MalformedRecord(line_no, "empty doc_id")
            if doc.doc_id in corpus:
                raise DuplicateDocId(doc.doc_id)
            corpus[doc.doc_id] = doc
    return corpus


def load_queries(path: str, format: str = "jsonl") -> list[Query]:
    """Load queries in file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format == "jsonl":
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
                if "_id" not in obj or "text" not in obj:
                    raise MalformedRecord(line_no, "missing '_id' or 'text' field")
                query = Query(str(obj["_id"]), str(obj["text"]))
            elif format == "tsv":
                cols = line.split("\t", 1)
                if len(cols) != 2:
                    raise MalformedRecord(line_no, "expected 'id<TAB>text'")
                query = Query(cols[0], cols[1])
            else:
                raise ValueError(f"unsupported query format: {format!r}")
            if not query.query_id:
                raise MalformedRecord(line_no, "empty query_id")
            if not query.text.strip():
                raise MalformedRecord(line_no, "blank query text")
            if query.query_id in seen:
                raise DuplicateQueryId(query.query_id)
            seen.add(query.query_id)
            queries.append(query)
    return queries


def load_qrels(path: str) -> Qrels:
    """Load TREC qrels; relevance-0 entries are kept (explicit non-relevant)."""
    qrels: Qrels = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            cols = line.split()
            if len(cols) != 4:
                raise MalformedRecord(line_no, f"expected 'qid iter docid rel', got {len(cols)} fields")
            entry = _parse_qrel(cols, line_no)
            per_query = qrels.setdefault(entry.query_id, {})
            if entry.doc_id in per_query:
                raise MalformedRecord(line_no, f"duplicate qrel for ({entry.query_id}, {entry.doc_id})")
            per_query[entry.doc_id] = entry.relevance
    return qrels


def _parse_qrel(cols: list[str], line_no: int) -> QrelEntry:
    try:
        rel = int(cols[3])
    except ValueError as exc:
        raise MalformedRecord(line_no, f"non-integer relevance {cols[3]!r}") from exc
    if rel < 0:
        raise NegativeRelevance(f"line {line_no}: relevance {rel} < 0")
    return QrelEntry(cols[0], cols[2], rel)


def write_run_file(path: str, runs: list[RankedList], tag: str) -> None:
    """Write a TREC run file; query order and within-query order preserved."""
    for run in runs:
        run.validate()
    with open(path, "w", encoding="utf-8") as f:
        for run in runs:
            for rank, (doc_id, score) in enumerate(run.entries, 1):
                f.write(f"{run.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_run_file(path: str) -> list[RankedList]:
    """Read a TREC run file back into RankedLists, in file order."""
    runs: list[RankedList] = []
    current: RankedList | None = None
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            cols = line.split()
            if len(cols) != 6:
                raise MalformedRecord(line_no, f"expected 6 run-file fields, got {len(cols)}")
            qid, _, doc_id, _, score, _ = cols
            try:
                value = float(score)
            except ValueError as exc:
                raise MalformedRecord(line_no, f"non-numeric score {score!r}") from exc
            if current is None or current.query_id != qid:
                current = RankedList(qid)
                runs.append(current)
            current.entries.append((doc_id, value))
    for run in runs:
        run.validate()
    return runs
