"""Spans around the CLI's calls into the package, and the per-layer metrics.

``Tracer.install`` wraps every public function of the traced modules at its
module attribute, and at every other ``crs_bias`` module attribute bound to
the same function (the CLI imports some of them by name). A wrapper records a
span only when its caller is the CLI module itself, so the spans follow the
calls ``crs_bias.cli`` makes today, whatever it makes in a later version,
without copying any command body. The offline backend's ``generate`` is
recorded on every call, under the ``build_pool`` span that drives it.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

TRACED_MODULES = ("corpus", "popularity", "augment", "metrics", "synthgen")
CLI_MODULE = "crs_bias.cli"
BACKEND_SPAN = "synthgen.backend.generate"
COMMANDS = ("generate", "stats", "augment", "evaluate", "report")
IMPORT_PACKAGES = ("scipy", "numpy", "yaml", "requests")
SKIP_REASONS = ("first_episode", "no_previous_episode", "no_targets", "empty_ranked_list",
                "insufficient_overlap")


@dataclass
class Span:
    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one trace id per CLI command."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's first span hangs under the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(parent.trace_id if parent else name, len(self.spans),
                        parent.span_id if parent else None, name, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn, always: bool = False):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") != CLI_MODULE:
                return fn(*args, **kwargs)
            span = tracer.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except Exception as exc:  # a changed return type must not break the run
                    span.counts = {"error": f"{exc.__class__.__name__}: {exc}"}
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"crs_bias.{m}") for m in TRACED_MODULES}
        importlib.import_module(CLI_MODULE)
        package_modules = [m for n, m in list(sys.modules.items())
                           if n == "crs_bias" or n.startswith("crs_bias.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in package_modules:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapper)
        backend = modules["synthgen"].OfflineTemplateBackend
        self._patch(backend, "generate", self._wrap(BACKEND_SPAN, backend.generate, always=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.duration - covered
        return result

    def records(self) -> list[dict]:
        own = self.self_times()
        return [
            {"trace_id": s.trace_id, "span_id": s.span_id, "parent_id": s.parent_id,
             "name": s.name, "start": s.start, "end": s.end, "self_s": own[s.span_id],
             "counts": s.counts}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# counts taken at the call boundaries


def _size(path) -> int:
    return os.path.getsize(path)


def _pop_nudge_counts(args, kwargs, plan):
    train, pool, table = args[0], args[1], args[2]
    # candidates_scanned is computed here from the table, not counted by the
    # sampler: each anchor's candidate prefix is every pool item at most as
    # popular as the anchor's most popular item
    pool_pops = sorted(table.pop_of(pool.item_of[d.dialogue_id]) for d in pool.dialogues)
    by_id = train.by_id()
    anchors = [a for batch in plan.batches for a in batch.anchor_ids]
    scanned = sum(
        bisect.bisect_right(pool_pops, max((table.pop_of(i) for i in by_id[a].item_ids()), default=0.0))
        for a in anchors
    )
    return {
        "anchors": len(anchors),
        "draws": sum(len(s) for batch in plan.batches for s in batch.samples.values()),
        "k": plan.k,
        "candidates_scanned": scanned,
        "anchors_without_candidates": plan.n_anchors_without_candidates,
        "anchors_truncated": plan.n_anchors_truncated,
    }


def _evaluate_counts(args, kwargs, report):
    skipped: dict[str, int] = {}
    scored = attempted = 0
    for summary in report.metrics.values():
        scored += summary.n
        attempted += summary.n + summary.n_skipped
        for reason, count in summary.skip_reasons.items():
            skipped[reason] = skipped.get(reason, 0) + count
    return {"scored": scored, "attempted": attempted, "skipped": skipped}


COUNTERS = {
    "corpus.load_corpus": lambda a, kw, r: {
        "dialogues": r[1].n_dialogues, "turns": r[1].n_turns,
        "unknown_mentions": r[1].n_unknown_mentions, "bytes_read": _size(a[0]) + _size(a[1]),
    },
    "corpus.save_corpus": lambda a, kw, r: {"bytes_written": _size(a[1])},
    "popularity.build_popularity": lambda a, kw, r: {"popular_items": len(r.popular_set)},
    "augment.load_pool": lambda a, kw, r: {"pool_size": len(r)},
    "augment.pop_nudge": _pop_nudge_counts,
    "augment.save_plan": lambda a, kw, r: {"plan_bytes": _size(a[1])},
    "augment.materialize_flat": lambda a, kw, r: {"appended": len(r.dialogues) - len(a[1].dialogues)},
    "augment.once_aug": lambda a, kw, r: {"appended": len(r.dialogues) - len(a[0].dialogues)},
    "metrics.load_run": lambda a, kw, r: {"entries": len(r.entries), "bytes": _size(a[0])},
    "metrics.evaluate_run": _evaluate_counts,
    "synthgen.build_pool": lambda a, kw, r: {"accepted": len(r[0])},
}

# per-layer time metric -> span name; the value is the summed span duration
TIME_METRICS = {
    "corpus.load_corpus_s": "corpus.load_corpus",
    "corpus.segment_s": "corpus.segment_corpus",
    "corpus.save_s": "corpus.save_corpus",
    "popularity.build_s": "popularity.build_popularity",
    "popularity.save_table_s": "popularity.save_table",
    "metrics.iic_s": "metrics.initial_item_coverage",
    "augment.load_pool_s": "augment.load_pool",
    "augment.pop_nudge_s": "augment.pop_nudge",
    "augment.audit_s": "augment.audit_plan",
    "augment.save_plan_s": "augment.save_plan",
    "augment.materialize_s": "augment.materialize_flat",
    "augment.once_aug_s": "augment.once_aug",
    "augment.longtail_s": "augment.longtail_report",
    "metrics.load_run_s": "metrics.load_run",
    "metrics.evaluate_run_s": "metrics.evaluate_run",
    "metrics.save_report_s": "metrics.save_report",
    "metrics.load_report_s": "metrics.load_report_records",
    "metrics.format_table_s": "metrics.format_report_table",
    "synthgen.build_pool_s": "synthgen.build_pool",
    "synthgen.backend_s": BACKEND_SPAN,
}

# per-layer count metric -> (span name, count key); summed over the pipeline's
# calls, so corpus.dialogues_loaded counts every dialogue every command loads
SUM_COUNTS = {
    "corpus.dialogues_loaded": ("corpus.load_corpus", "dialogues"),
    "corpus.turns_loaded": ("corpus.load_corpus", "turns"),
    "corpus.bytes_read": ("corpus.load_corpus", "bytes_read"),
    "corpus.unknown_mentions": ("corpus.load_corpus", "unknown_mentions"),
    "corpus.bytes_written": ("corpus.save_corpus", "bytes_written"),
    "augment.anchors": ("augment.pop_nudge", "anchors"),
    "augment.draws": ("augment.pop_nudge", "draws"),
    "augment.candidates_scanned": ("augment.pop_nudge", "candidates_scanned"),
    "augment.anchors_without_candidates": ("augment.pop_nudge", "anchors_without_candidates"),
    "augment.anchors_truncated": ("augment.pop_nudge", "anchors_truncated"),
    "augment.plan_bytes": ("augment.save_plan", "plan_bytes"),
    "metrics.run_entries": ("metrics.load_run", "entries"),
    "metrics.run_bytes": ("metrics.load_run", "bytes"),
    "synthgen.accepted": ("synthgen.build_pool", "accepted"),
}

# sizes of the data rather than work done: the largest value seen
MAX_COUNTS = {
    "popularity.popular_items": ("popularity.build_popularity", "popular_items"),
    "augment.pool_size": ("augment.load_pool", "pool_size"),
}


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span records of the pipeline's commands."""
    by_name: dict[str, list[dict]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(r["end"] - r["start"] for r in by_name.get(name, ()))
        return sum(r["counts"].get(key, 0) for r in by_name.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {m: total(n) for m, n in TIME_METRICS.items()}
    out.update({m: total(n, k) for m, (n, k) in SUM_COUNTS.items()})
    out.update({m: max((r["counts"].get(k, 0) for r in by_name.get(n, ())), default=0)
                for m, (n, k) in MAX_COUNTS.items()})
    out["augment.appended"] = total("augment.materialize_flat", "appended") + total(
        "augment.once_aug", "appended")
    nudges = by_name.get("augment.pop_nudge", ())
    out["augment.draw_fill"] = ratio(
        out["augment.draws"], sum(r["counts"].get("k", 0) * r["counts"].get("anchors", 0) for r in nudges)
    )
    out["metrics.scored_ratio"] = ratio(total("metrics.evaluate_run", "scored"),
                                        total("metrics.evaluate_run", "attempted"))
    for reason in SKIP_REASONS:
        out[f"metrics.skipped.{reason}"] = sum(
            r["counts"].get("skipped", {}).get(reason, 0) for r in by_name.get("metrics.evaluate_run", ())
        )
    out["synthgen.attempts"] = len(by_name.get(BACKEND_SPAN, ()))
    out["synthgen.accept_ratio"] = ratio(out["synthgen.accepted"], out["synthgen.attempts"])
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = sum(r["self_s"] for r in by_name.get(f"cli.{command}", ()))
    return out


def command_accounting(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per command: its span, the sum of its direct children and its self time."""
    result = {}
    for record in records:
        if record["parent_id"] is None:
            children = sum(r["end"] - r["start"] for r in records
                           if r["trace_id"] == record["trace_id"] and r["parent_id"] == record["span_id"])
            result[record["name"]] = {"span_s": record["end"] - record["start"],
                                      "children_s": children, "self_s": record["self_s"]}
    return result


# ---------------------------------------------------------------------------
# python -X importtime


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds each package adds to ``import crs_bias.cli``.

    A third-party package's time is the cumulative time of its outermost
    import lines, which includes the dependencies it pulls in first; the
    package's own time is the self time of its ``crs_bias.*`` modules.
    """
    rows = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us, cumulative_us, indent, module = match.groups()
            rows.append((len(indent) // 2, module.split(".")[0], int(self_us), int(cumulative_us)))
    totals = {p: 0 for p in IMPORT_PACKAGES}
    totals["crs_bias"] = 0
    parents: list[str] = []
    # importtime prints children before their parent; walk parents first
    for depth, package, self_us, cumulative_us in reversed(rows):
        del parents[depth:]
        parent = parents[depth - 1] if depth > 0 and len(parents) >= depth else None
        if package == "crs_bias":
            totals["crs_bias"] += self_us
        elif package in totals and parent != package:
            totals[package] += cumulative_us
        parents.append(package)
    return {f"import.{p}_s": us / 1e6 for p, us in totals.items()}


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
