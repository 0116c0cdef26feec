"""Outside-in span recorder.

Spans are recorded around calls into the program's public functions by
replacing the bindings their callers look up at call time (for example
``rede.fusion.sparse_search``, which ``hybrid_search`` calls) and the
methods of the engine's encoder and judge instances. Nothing in the program
changes. A thread-local stack gives each span its parent; the thread pools
the judge and HyDE layers create are swapped for a subclass that carries
the submitting thread's current span into the worker, so spans in worker
threads keep their query. Spans stay in memory until ``write``.

If a call site moves (the pipeline stops calling ``rede.pipeline.dense_search``,
say), the span stops firing and the traced run fails on the missing span
instead of reporting zero.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import rede.fusion
import rede.hyde
import rede.judge
import rede.pipeline
from rede.corpus import tokenize


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    query_id: str
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on it is atomic under the GIL
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, query_id: str | None = None) -> Span:
        parent = self.current()
        if query_id is None:
            query_id = parent.query_id if parent is not None else ""
        span = Span(name, next(self._ids), parent.span_id if parent else None, query_id,
                    time.perf_counter())
        self._stack().append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped in a span; ``attrs(args, result)`` adds attributes after it ends."""
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.close(span, exc)
                raise
            recorder.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, engine, query_texts: set[str]) -> None:
        """Wrap the bindings the pipeline's layers call, and the engine's backends."""
        def postings(args, _result):
            index, terms = args[0], set(tokenize(args[1]))
            return {"postings": sum(len(index.postings.get(t, ())) for t in terms)}

        def pool(args, _result):
            return {"pool": len({d for d, _ in args[0].entries} | {d for d, _ in args[1].entries})}

        def relevant(_args, result):
            return {"relevant": result > 0.5}

        def samples(_args, result):
            return {"samples": len(result)}

        for module in (rede.fusion, rede.pipeline):
            self._replace(module, "sparse_search",
                          self.wrap("sparse.search", module.sparse_search, postings))
        self._replace(rede.fusion, "dense_search",
                      self.wrap("dense.pool_search", rede.fusion.dense_search))
        self._replace(rede.pipeline, "dense_search",
                      self.wrap("dense.final_search", rede.pipeline.dense_search))
        self._replace(rede.fusion, "fuse", self.wrap("fusion.fuse", rede.fusion.fuse, pool))
        self._replace(rede.pipeline, "hybrid_search",
                      self.wrap("fusion.hybrid", rede.pipeline.hybrid_search))
        self._replace(rede.pipeline, "judge_candidates",
                      self.wrap("judge.candidates", rede.pipeline.judge_candidates))
        self._replace(rede.pipeline, "generate_hypothetical_docs",
                      self.wrap("hyde.generate", rede.pipeline.generate_hypothetical_docs, samples))
        self._replace(rede.judge, "complete", self.wrap("judge.complete", rede.judge.complete))
        self._replace(rede.hyde, "complete", self.wrap("hyde.complete", rede.hyde.complete))
        executor = _propagating_executor(self)
        for module in (rede.judge, rede.hyde):
            self._replace(module, "ThreadPoolExecutor", executor)
        if engine.judge is not None:
            self._replace(engine.judge, "p_relevant",
                          self.wrap("judge.p_relevant", engine.judge.p_relevant, relevant))

        encode = engine.encoder.encode
        query_encode = self.wrap("encoder.query", encode)
        hyde_encode = self.wrap("hyde.encode", encode)

        def classify(texts):
            # the engine encodes one query text per query; anything else is HyDE samples
            return query_encode(texts) if texts[0] in query_texts else hyde_encode(texts)

        self._replace(engine.encoder, "encode", classify)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "id": s.span_id, "parent": s.parent_id, "query": s.query_id,
                    "start": s.start, "end": s.end, "error": s.error, **s.attrs,
                }) + "\n")


_MISSING = object()


def _propagating_executor(recorder: Recorder):
    class PropagatingExecutor(ThreadPoolExecutor):
        """Runs each task under the span that was current where it was submitted."""

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def run(*a, **kw):
                stack = recorder._stack()
                if parent is not None:
                    stack.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    if parent is not None:
                        stack.pop()

            return super().submit(run, *args, **kwargs)

    return PropagatingExecutor


def self_ms(spans: list[Span]) -> dict[int, float]:
    """Span id -> span time minus the part of it its child spans cover, in ms."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.ms - covered * 1000.0
    return out
