"""Corpus, query, qrels and run-file I/O plus the shared tokenizer.

Every file is UTF-8 text read one non-blank line per record (``_records``).
File formats:
  corpus  - JSONL with ``_id``/``title``/``text`` keys, or TSV with
            ``id<TAB>text`` / ``id<TAB>title<TAB>text`` columns
  queries - JSONL with ``_id``/``text``, or two-column TSV ``id<TAB>text``
  qrels   - whitespace-separated ``qid iter docid rel`` (iter ignored)
  run     - ``qid Q0 docid rank score tag``, rank from 1, score %.6f; a
            query's lines are contiguous and no field holds whitespace
A corpus or query file is JSONL if its first record starts with ``{``,
and TSV otherwise. A JSONL line is decoded as ``json.loads`` decodes it
(``_jsonl_record``); its ``_id`` is a string or an integer, ``text`` a
string, and ``title`` a string, null or absent.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateDocId,
    DuplicateQueryId,
    MalformedRecord,
    NegativeRelevance,
    PreconditionViolation,
    check_count,
)

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)
# The sparse index build's table for an ASCII document, where [^\W_] is exactly [A-Za-z0-9]: it
# folds in the lowercasing. ASCII letters lowercased, digits kept, every other ASCII byte (`_` and
# the control characters included) a space for split. No byte >= 0x80 occurs in an ASCII text; the
# upper half is identity only because bytes.translate takes a table of 256 entries.
_ASCII_BYTES = bytes(ord(chr(c).lower()) if chr(c).isalnum() else 32 for c in range(128)) + bytes(range(128, 256))


def tokenize(text: str) -> list[str]:
    """Lowercase, then keep the maximal runs of alphanumeric codepoints; no stemming."""
    return _TOKEN.findall(text.lower())


@dataclass(slots=True)
class Document:
    """A plain record, not frozen: a frozen ``__init__`` sets each field through
    ``object.__setattr__``, and slots leave no per-instance ``__dict__``."""

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


class RankedList:
    """Ordered (doc_id, score) results for one query.

    Invariants: scores non-increasing, doc_ids distinct. A list passes
    through up to three forms, each made from the one before on first need
    and then kept. ``_top_k`` gives it its ``hits``: the id array it
    selected over, and its rows, ascending, with their scores, so fusion can
    work on rows. ``ranking()`` orders them, by one stable argsort on
    descending score (ties stay in row order, which is doc-id order), into
    two plain lists: the ids, gathered by one take from the id array, and
    the scores, in rank order. ``entries`` pairs those lists into
    ``(doc_id, score)`` tuples the first time it is read; every reader in
    the package reads the two lists instead (``read_run_file`` only fills
    the entries it gives a list), so a list that only the package reads
    never builds its pairs.
    ``entries`` cannot be assigned, but once built it can be edited in place,
    so from then on it speaks for the list, and ``ranking()`` reads it; the
    hits speak for the list only while its entries are unbuilt
    (``_unread_hits``). Equality and repr see only ``query_id`` and the ranking.
    ``entries`` stays a list: perfbench's ``check_rankings`` compares it with one.
    """

    def __init__(self, query_id: str, entries: list[tuple[str, float]] | None = None,
                 hits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                 ranking: tuple[list[str], list[float]] | None = None):
        self.query_id = query_id
        self.hits, self._ranking = hits, ranking
        self._entries = [] if entries is None and hits is None and ranking is None else entries

    def ranking(self) -> tuple[list[str], list[float]]:
        """The ids and the scores in rank order; the caller must not edit them."""
        if self._entries is not None:
            return [doc_id for doc_id, _ in self._entries], [score for _, score in self._entries]
        if self._ranking is None:
            doc_ids, rows, scores = self.hits
            order = np.argsort(-scores, kind="stable")
            self._ranking = doc_ids[rows[order]].tolist(), scores[order].tolist()
        return self._ranking

    @property
    def entries(self) -> list[tuple[str, float]]:
        if self._entries is None:
            self._entries = list(zip(*self.ranking()))
        return self._entries

    def _unread_hits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The hits while the entries are unbuilt, else None."""
        return self.hits if self._entries is None else None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.query_id, *self.ranking()) == (other.query_id, *other.ranking())

    def __repr__(self) -> str:
        pairs = ", ".join(f"({doc_id!r}, {score!r})" for doc_id, score in zip(*self.ranking()))
        return f"RankedList(query_id={self.query_id!r}, entries=[{pairs}])"

    def validate(self) -> None:
        seen: set[str] = set()
        prev = None
        for doc_id, score in zip(*self.ranking()):
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
        return list(self.ranking()[0])


def _strictly_ascending(ids: Sequence[str]) -> bool:
    """True if every id is less than the next: ascending and distinct. Walks the ids in place."""
    return all(map(operator.lt, ids, itertools.islice(ids, 1, None)))


def _id_array(ids: Sequence[str]) -> np.ndarray:
    """The ids as one read-only object array: a pointer (8 B) per id, the strings shared."""
    array = np.array(ids, dtype=object)
    array.flags.writeable = False
    return array


def _top_k(doc_ids: Sequence[str], scores: np.ndarray, rows: np.ndarray | None, k: int) -> RankedList:
    """The k best of ``rows`` by descending score, ties by ascending doc_id, for an integer k >= 1.

    Row i is ``doc_ids[i]`` and scores ``scores[i]``. Both ``doc_ids`` and
    ``rows`` must be ascending; ``rows=None`` means every row, and spares
    the gather of all the scores through a row list. An index hands its
    ``id_array``, which is kept as it is; any other sequence is made an
    object array here. The result only selects: it holds its hits
    ``(id array, best rows ascending, their scores)``, and is ordered by
    its ``ranking()``.
    ``np.partition`` finds the k-th best score; the rows strictly better
    are kept, and the lowest-numbered rows tied with it fill the rest, as a
    full stable sort on descending score would. The scores of ``rows`` must
    hold no NaN: every ranking path refuses one before it gets here (BM25
    is finite by construction, ``dense_search`` checks its product and
    ``fuse`` its legs).
    """
    check_count("k", k, 1)
    neg = -(scores if rows is None else scores[rows])
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        better, tied = neg < kth, neg == kth
        better[np.flatnonzero(tied)[: k - np.count_nonzero(better)]] = True
        keep = np.flatnonzero(better)
        rows = keep if rows is None else rows[keep]
    elif rows is None:
        rows = np.arange(len(neg))
    return RankedList("", hits=(np.asarray(doc_ids, dtype=object), rows, scores[rows]))


Corpus = dict[str, Document]
Qrels = dict[str, dict[str, int]]


def _records(path: str) -> Iterator[tuple[int, str]]:
    """(line_no, line) per non-blank line of a UTF-8 file, newline and any leading BOM stripped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            for line_no, line in enumerate(f, 1):
                if not line.isspace():  # never "": a file yields no empty line
                    yield line_no, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(None, f"{path} is not UTF-8 text: {exc}") from exc


_JSON = json.JSONDecoder()  # set up as the decoder json.loads uses


def _jsonl_record(line_no: int, line: str) -> tuple[str, str, str]:
    """(id, title, text) of one JSONL line, decoded as ``json.loads(line)`` decodes it.

    ``json.loads`` is ``raw_decode`` between two whitespace passes, so a line that
    ``raw_decode`` reads whole from its first character gives the same object. Any
    other line (whitespace around the object, a BOM, data after it, invalid JSON)
    goes to ``json.loads`` itself, for its object or its error. JSON decodes to
    exact types, so exact-type checks do what ``isinstance`` checks would.
    """
    try:
        obj, end = _JSON.raw_decode(line)
    except json.JSONDecodeError:
        end = None
    if end != len(line):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
    if type(obj) is not dict or "_id" not in obj or "text" not in obj:
        raise MalformedRecord(line_no, "expected a JSON object with '_id' and 'text'")
    record_id, title, text = obj["_id"], obj.get("title"), obj["text"]
    if type(record_id) is not str:
        if type(record_id) is not int:  # a JSON true is a bool, not an int
            raise MalformedRecord(line_no, "'_id' must be a JSON string or integer")
        record_id = str(record_id)
    if type(text) is not str:
        raise MalformedRecord(line_no, "'text' must be a JSON string")
    if type(title) is not str:
        if title is not None:
            raise MalformedRecord(line_no, "'title' must be a JSON string or null")
        title = ""
    return record_id, title, text


def _id_title_text(path: str, split_tsv: Callable) -> Iterator[tuple[int, tuple[str, str, str]]]:
    """(line_no, (id, title, text)) per record; JSONL if the first starts with '{', else TSV."""
    parse = None
    for line_no, line in _records(path):
        if parse is None:
            parse = _jsonl_record if line.startswith("{") else split_tsv
        yield line_no, parse(line_no, line)


def _split_doc(line_no: int, line: str) -> tuple[str, str, str]:
    cols = line.split("\t")
    if len(cols) == 2:
        return cols[0], "", cols[1]
    if len(cols) == 3:
        return cols[0], cols[1], cols[2]
    raise MalformedRecord(line_no, f"expected 2 or 3 columns, got {len(cols)}")


def _split_query(line_no: int, line: str) -> tuple[str, str, str]:
    cols = line.split("\t", 1)
    if len(cols) != 2:
        raise MalformedRecord(line_no, "expected 'id<TAB>text'")
    return cols[0], "", cols[1]


def load_corpus(path: str) -> Corpus:
    """Load a corpus file into a doc_id -> Document map."""
    corpus: Corpus = {}
    for line_no, (doc_id, title, text) in _id_title_text(path, _split_doc):
        if not doc_id:
            raise MalformedRecord(line_no, "empty doc_id")
        if doc_id in corpus:
            raise DuplicateDocId(doc_id)
        corpus[doc_id] = Document(doc_id, title, text)
    return corpus


def load_queries(path: str) -> list[Query]:
    """Load queries in file order."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, (query_id, _, text) in _id_title_text(path, _split_query):
        if not query_id:
            raise MalformedRecord(line_no, "empty query_id")
        if not text.strip():
            raise MalformedRecord(line_no, "blank query text")
        if query_id in seen:
            raise DuplicateQueryId(query_id)
        seen.add(query_id)
        queries.append(Query(query_id, text))
    return queries


def load_qrels(path: str) -> Qrels:
    """Load TREC qrels; relevance-0 entries are kept (explicit non-relevant)."""
    qrels: Qrels = {}
    for line_no, line in _records(path):
        cols = line.split()
        if len(cols) != 4:
            raise MalformedRecord(line_no, f"expected 'qid iter docid rel', got {len(cols)} fields")
        query_id, _, doc_id, rel = cols
        try:
            relevance = int(rel)
        except ValueError as exc:
            raise MalformedRecord(line_no, f"non-integer relevance {rel!r}") from exc
        if relevance < 0:
            raise NegativeRelevance(f"line {line_no}: relevance {relevance} < 0")
        per_query = qrels.setdefault(query_id, {})
        if doc_id in per_query:
            raise MalformedRecord(line_no, f"duplicate qrel for ({query_id}, {doc_id})")
        per_query[doc_id] = relevance
    return qrels


def write_run_file(path: str, runs: list[RankedList], tag: str) -> None:
    """Write a TREC run file; query order and within-query order preserved.

    A field that is empty or holds whitespace would not read back, so it is refused first.
    """
    if tag.split() != [tag]:
        raise ValueError(f"run tag {tag!r} must be non-empty and hold no whitespace")
    for run in runs:
        run.validate()
        for name in (run.query_id, *run.ranking()[0]):
            if name.split() != [name]:
                raise PreconditionViolation(
                    f"id {name!r} in ranked list for {run.query_id!r} is empty or holds whitespace"
                )
    with open(path, "w", encoding="utf-8") as f:
        for run in runs:
            for rank, (doc_id, score) in enumerate(zip(*run.ranking()), 1):
                f.write(f"{run.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_run_file(path: str) -> list[RankedList]:
    """Read a TREC run file into RankedLists in file order; a query's lines must be contiguous."""
    runs: list[RankedList] = []
    seen: set[str] = set()
    for line_no, line in _records(path):
        cols = line.split()
        if len(cols) != 6:
            raise MalformedRecord(line_no, f"expected 6 run-file fields, got {len(cols)}")
        qid, _, doc_id, _, score, _ = cols
        try:
            value = float(score)
        except ValueError as exc:
            raise MalformedRecord(line_no, f"non-numeric score {score!r}") from exc
        if not runs or runs[-1].query_id != qid:
            if qid in seen:
                raise MalformedRecord(line_no, f"lines of query {qid!r} are not contiguous")
            seen.add(qid)
            runs.append(RankedList(qid))
        runs[-1].entries.append((doc_id, value))
    for run in runs:
        run.validate()
    return runs
