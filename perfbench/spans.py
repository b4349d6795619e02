"""Span recorder for the traced benchmark run.

The recorder replaces public functions at their module (or class)
attributes with wrappers that record one span per call: id, parent id,
name, thread id, start, end, the benchmark job that was running, and a
few counts read from the arguments or the result. The program's own
code is not changed; because it looks these functions up by attribute
at call time, the wrappers see every call. Spans stay in memory and are
written out when the benchmark ends.

A span opened on a pool thread with nothing open on that thread is a
child of the span open on the main thread, which is the one that
started the pool. A span's self time is its duration minus the part of
it that its children cover, so time a parent spends waiting on pool
threads is not counted as its own.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


def _bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def layer_targets(cli, ontology, prompts, gateway, filtration, matcher, metrics, requests):
    """(owner, attribute, span name, counts from (args, result)) for
    every traced boundary; ``result`` is None when the call raised."""
    return [
        (ontology, "parse_ontology", "ontology.parse_ontology",
         lambda a, r: {"bytes": _bytes(a[0]), "statements": len(r or ())}),
        (ontology, "filter_statements", "ontology.filter_statements",
         lambda a, r: {"parsed": r.counts.parsed, "kept": r.counts.kept} if r is not None else {}),
        (prompts, "render_prompt", "prompts.render_prompt", None),
        (gateway, "complete", "gateway.complete",
         lambda a, r: {"hit": int(r is not None and r.from_cache),
                       "http_sent": int(not a[1].is_mock and not (r is not None and r.from_cache)),
                       "failed": int(r is None)}),
        (gateway, "extract_questions", "gateway.extract_questions",
         lambda a, r: {"questions": len(r or ())}),
        (gateway.ResponseCache, "get", "gateway.ResponseCache.get", None),
        (gateway.ResponseCache, "put", "gateway.ResponseCache.put", None),
        (requests, "post", "requests.post",
         lambda a, r: {"ok": int(r is not None and r.status_code == 200)}),
        (filtration, "filter_questions", "filtration.filter_questions",
         lambda a, r: {"questions": len(r or ()), "kept": sum(c.kept for c in r or ()),
                       **Counter(f"removed.{c.removal_reason.value}"
                                 for c in r or () if c.removal_reason)}),
        (filtration, "dedup", "filtration.dedup", None),
        (filtration, "is_duplicate", "filtration.is_duplicate", None),
        (filtration, "is_modelling_primitive", "filtration.is_modelling_primitive", None),
        (filtration, "is_subjective_narrative", "filtration.is_subjective_narrative", None),
        (matcher, "embed_batch", "matcher.embed_batch", lambda a, r: {"texts": len(a[0])}),
        (matcher, "match_candidates", "matcher.match_candidates",
         lambda a, r: {"candidates": len(r.candidate_matches), "validated": r.validated_count}
         if r is not None else {}),
        (metrics, "compute_metrics", "metrics.compute_metrics", None),
        (metrics, "unmatched_stats", "metrics.unmatched_stats", None),
        (cli, "run_extract", "cli.run_extract", None),
        (cli, "run_generate", "cli.run_generate", None),
        (cli, "run_evaluate", "cli.run_evaluate", None),
    ]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            main = rec._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(rec._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = counts(args, result) if counts else None
                rec.spans.append(
                    (sid, parent, name, threading.get_ident(), t0, t1, rec.job, info)
                )

        return traced

    def install(self, targets) -> None:
        for owner, attr, name, counts in targets:
            fn = owner.__dict__[attr]
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: ``<name>.busy_s``, ``<name>.self_s`` and
    ``<name>.calls``, plus the sum of every count the spans carry as
    ``<name>.<count>``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, _tid, t0, t1, _job, _info in spans:
        children[parent].append((t0, t1))
    out: Counter = Counter()
    for sid, _parent, name, _tid, t0, t1, _job, info in spans:
        covered = _union_length(
            [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        )
        out[f"{name}.busy_s"] += t1 - t0
        out[f"{name}.self_s"] += (t1 - t0) - covered
        out[f"{name}.calls"] += 1
        for key, value in (info or {}).items():
            out[f"{name}.{key}"] += value
    return dict(out)
