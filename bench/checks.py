"""Output checks, one per CLI command.

Each check compares a command's files with what the workload generator knows
(or with numbers recomputed here, independently of the package) and returns
a list of problems; an empty list passes. Only the augment check calls into
the package, because the issue it guards is "the saved plan passes the
package's own ``audit_plan``".
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workload import K, MIN_COUNT, Workload

# Means recomputed here sum in a different order than the package's fsum;
# 1e-9 relative is far above float64 reassociation error for ~18k terms and
# far below any real scoring difference.
MEAN_REL_TOL = 1e-9
# IIC and the popular ratio are count / catalog size on both sides.
RATIO_REL_TOL = 1e-12


def _jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(name: str, got, want, rel_tol: float) -> list[str]:
    if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0):
        return [f"{name}: got {got!r}, expected {want!r}"]
    return []


def check_generate(w: Workload, stdout: str) -> list[str]:
    pool = _jsonl(w.pool)
    problems = []
    if len(pool) != w.n_items:
        problems.append(f"pool has {len(pool)} dialogues for {w.n_items} catalog items")
    items = []
    for record in pool:
        ids = {i for turn in record["turns"] for i in turn["items"] + turn["targets"]}
        if len(ids) != 1:
            problems.append(f"pool dialogue {record['dialogue_id']} mentions {sorted(ids)}")
            break
        items.append(ids.pop())
    if sorted(items) != w.item_ids:
        problems.append("pool items are not exactly one dialogue per catalog item")
    log = json.loads((w.output_dir / "generation_log.json").read_text(encoding="utf-8"))
    if log.get("n_skipped") != 0:
        problems.append(f"generation skipped {log.get('n_skipped')} items")
    return problems


def check_stats(w: Workload, stdout: str) -> list[str]:
    stats = json.loads((w.output_dir / "stats.json").read_text(encoding="utf-8"))
    problems = _close("iic", stats.get("iic"), w.expected_iic(), RATIO_REL_TOL)
    problems += _close(
        "popular_item_ratio", stats.get("popular_item_ratio"), w.expected_popular_ratio(), RATIO_REL_TOL
    )
    if stats.get("dialogues") != w.split_counts:
        problems.append(f"dialogues per split {stats.get('dialogues')} != {w.split_counts}")
    if stats.get("items") != w.n_items:
        problems.append(f"items {stats.get('items')} != {w.n_items}")
    if stats.get("n_unknown_mentions") != w.n_unknown_mentions:
        problems.append(
            f"n_unknown_mentions {stats.get('n_unknown_mentions')} != {w.n_unknown_mentions}"
        )
    table = _jsonl(w.output_dir / "popularity.jsonl")
    freq = {r["item_id"]: r["freq"] for r in table}
    if [freq.get(i) for i in w.item_ids] != w.train_freq.tolist():
        problems.append("popularity.jsonl frequencies differ from the generator's counts")
    return problems


def check_augment(w: Workload, stdout: str) -> list[str]:
    out = w.output_dir
    augmented = _jsonl(out / "augmented_corpus.jsonl")
    train_after = sum(1 for r in augmented if r["split"] == "train")
    synthetic = sum(1 for r in augmented if r.get("provenance") == "synthetic")
    problems = []
    if w.spec.strategy == "pop_nudge":
        from crs_bias import augment as aug
        from crs_bias.corpus import load_corpus
        from crs_bias.popularity import ThresholdPolicy, build_popularity

        plan = aug.load_plan(out / "plan.jsonl")
        if plan.seed != w.seed or plan.k != K:
            problems.append(f"plan header seed={plan.seed} k={plan.k}, config seed={w.seed} k={K}")
        corpus, _ = load_corpus(w.corpus, w.catalog)
        pool = aug.load_pool(w.pool)
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(MIN_COUNT))
        violations = aug.audit_plan(plan, corpus, pool, table)
        if violations:
            problems.append(f"audit_plan: {len(violations)} violations, first: {violations[0]}")
        appended = len(plan.appended_ids())
    else:
        appended = w.n_items
    if synthetic != appended:
        problems.append(f"augmented corpus has {synthetic} synthetic dialogues, expected {appended}")
    if train_after != w.split_counts["train"] + appended:
        problems.append(
            f"train size after augmentation {train_after} != "
            f"{w.split_counts['train']} before + {appended} appended"
        )
    summary = json.loads((out / "augment_summary.json").read_text(encoding="utf-8"))
    if summary.get("n_train_dialogues_after") != train_after:
        problems.append(
            f"augment_summary n_train_dialogues_after {summary.get('n_train_dialogues_after')} "
            f"!= {train_after} in the written corpus"
        )
    return problems


def expected_means(w: Workload, model: str) -> dict[str, tuple[float, int]]:
    """pop_bias and hit@10 (mean, n) recomputed from the generator's data."""
    ranked = w.runs_ranked[model]
    popular = w.train_freq > MIN_COUNT
    is_popular = popular[ranked]
    discount = 1.0 / (np.log(np.arange(1, ranked.shape[1] + 1)) + 1.0)
    pop_bias = (is_popular @ discount) * is_popular.mean(axis=1)
    hits = [
        any(t >= 0 and t in top for t in targets)
        for targets, top in zip(w.runs_targets[model], ranked[:, :10].tolist())
        if targets
    ]
    return {
        "pop_bias": (float(pop_bias.mean()), len(pop_bias)),
        "hit@10": (float(np.mean(hits)), len(hits)),
    }


def check_evaluate(w: Workload, stdout: str) -> list[str]:
    problems = []
    for run in w.runs:
        model = run.stem
        records = {r["metric"]: r for r in _jsonl(w.output_dir / f"{model}.report.jsonl")}
        for metric, (mean, n) in expected_means(w, model).items():
            record = records.get(metric)
            if record is None:
                problems.append(f"{model}: report has no {metric}")
                continue
            problems += _close(f"{model} {metric} mean", record["mean"], mean, MEAN_REL_TOL)
            if record["n"] != n:
                problems.append(f"{model} {metric}: n={record['n']}, expected {n}")
    return problems


def check_report(w: Workload, stdout: str) -> list[str]:
    # report re-renders the saved reports, in file-name order instead of
    # config order, so the rows must match evaluate's table as a set
    table = (w.output_dir / "report_table.txt").read_text(encoding="utf-8")
    if sorted(stdout.splitlines()) != sorted(table.splitlines()):
        return ["report output differs from evaluate's report_table.txt"]
    return []


CHECKS = {
    "generate": check_generate,
    "stats": check_stats,
    "augment": check_augment,
    "evaluate": check_evaluate,
    "report": check_report,
}
