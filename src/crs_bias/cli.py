"""Command-line entry points: stats, generate, augment, evaluate, report.

Every command is driven by one config file (see ``config.load_config``) with
flag overrides, writes its outputs plus a redacted config echo into the
configured output directory, and is reproducible from config + seed alone
(except ``generate`` with the ``http_chat`` backend, which sends no seed).

Exit codes: 0 success, 2 config/input error, 3 generation-backend error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import augment as aug
from . import metrics as met
from . import popularity as pop
from .config import ConfigError, RunConfig, load_config
from .corpus import CorpusError, load_catalog, load_corpus, save_corpus, segment_corpus, write_lines
from .synthgen import (
    POOL_FORMAT,
    BackendError,
    HttpChatBackend,
    OfflineTemplateBackend,
    build_pool,
    builtin_template,
    load_template,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INVARIANT = 4


def _write_json(path: Path, payload: dict) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _prepare_output_dir(config: RunConfig) -> Path:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config_echo.json", config.echo_dict())
    return out


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def cmd_stats(config: RunConfig) -> int:
    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")
    out = _prepare_output_dir(config)

    corpus, summary = load_corpus(corpus_path, catalog_path)
    table = pop.build_popularity(corpus, config.eta_policy)
    stats = {
        "dialogues": {
            "train": summary.dialogues_per_split.get("train", 0),
            "valid": summary.dialogues_per_split.get("valid", 0),
            "test": summary.dialogues_per_split.get("test", 0),
        },
        "items": len(corpus.catalog),
        "iic": pop.item_coverage(table.freq),
        "popular_item_ratio": pop.popular_item_ratio(table, corpus.catalog),
        "n_unknown_mentions": summary.n_unknown_mentions,
    }
    _write_json(out / "stats.json", stats)
    pop.save_table(table, out / "popularity.jsonl")

    print(f"dialogues: train={stats['dialogues']['train']} "
          f"valid={stats['dialogues']['valid']} test={stats['dialogues']['test']}")
    print(f"items: {stats['items']}")
    print(f"IIC: {_percent(stats['iic'])}")
    print(f"popular items: {_percent(stats['popular_item_ratio'])}")
    if summary.n_unknown_mentions:
        print(f"unknown mentions: {summary.n_unknown_mentions} "
              f"({len(summary.unknown_item_ids)} distinct ids)")
    return EXIT_OK


def _make_backend(config: RunConfig):
    gen = config.generation
    if gen.backend == "offline_template":
        return OfflineTemplateBackend()
    if gen.http.base_url is None or gen.http.model is None:
        raise ConfigError("generation.http.base_url and generation.http.model are "
                          "required for the http_chat backend")
    return HttpChatBackend(
        base_url=gen.http.base_url,
        model=gen.http.model,
        token_env=gen.http.token_env,
        timeout=gen.http.timeout,
        max_attempts=gen.max_attempts,
        concurrency=gen.concurrency,
    )


def cmd_generate(config: RunConfig) -> int:
    seed = config.require_seed()
    catalog_path = config.require_path("catalog")
    out = _prepare_output_dir(config)

    catalog = load_catalog(catalog_path)
    if config.generation.items is None:
        items = list(catalog.items.items())
    else:
        unknown = [i for i in config.generation.items if i not in catalog]
        if unknown:
            raise ConfigError(f"generation.items: unknown item ids {unknown}")
        items = [(i, catalog.name_of(i)) for i in config.generation.items]

    template_path = config.generation.template
    if template_path is not None:
        if not template_path.exists():
            raise ConfigError(f"generation.template: no such file: {template_path}")
        try:
            template = load_template(template_path)
        except (OSError, ValueError) as exc:  # a directory, non-UTF-8, bad header or body
            raise ConfigError(f"generation.template {template_path}: {exc}") from None
    else:
        template = builtin_template(config.generation.language)
    backend = _make_backend(config)

    pool_path = config.pool if config.pool is not None else out / "pool.jsonl"
    synthetic_pool, record = build_pool(
        backend,
        template,
        items,
        seed,
        output_path=pool_path,
        max_attempts=config.generation.max_attempts,
    )
    skipped = record.skipped
    _write_json(out / "generation_log.json", {
        "backend": config.generation.backend,
        "template_id": template.template_id,
        "pool_format": POOL_FORMAT,
        "n_items": len(items),
        "n_accepted": len(synthetic_pool),
        "n_skipped": len(skipped),
        "skipped": [{"item_id": s.item_id, "reason": s.reason} for s in skipped],
        "attempts": record.attempts,
        "rejected": record.rejected,
    })
    print(f"pool: {len(synthetic_pool)} dialogues -> {pool_path}")
    if skipped:
        print(f"skipped {len(skipped)} items (see generation_log.json)")
    return EXIT_OK


def cmd_augment(config: RunConfig) -> int:
    seed = config.require_seed()
    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")
    pool_path = config.require_path("pool")
    out = _prepare_output_dir(config)

    corpus, _ = load_corpus(corpus_path, catalog_path)
    # one item index for corpus and pool: catalog order, unknown ids appended
    pool = aug.load_pool(pool_path, items=corpus.columns.items)

    plan = None
    if config.strategy == "once_aug":
        augmented = aug.once_aug(corpus, pool)
        plan_path = None
    else:
        table = pop.build_popularity(corpus, config.eta_policy)
        plan = aug.pop_nudge(corpus, pool, table, config.k, config.batch_size, seed)
        violations = aug.audit_plan(plan, corpus, pool, table)
        if violations:
            raise aug.AuditError(
                f"plan failed popularity-filter audit ({len(violations)} violations); "
                f"first: {violations[0]}"
            )
        plan_path = out / "plan.jsonl"
        aug.save_plan(plan, plan_path)
        augmented = aug.materialize_flat(plan, corpus, pool)

    corpus_out = out / "augmented_corpus.jsonl"
    save_corpus(augmented, corpus_out)
    tail = aug.longtail_report(corpus, augmented)

    summary = {
        "strategy": config.strategy,
        "k": config.k if config.strategy == "pop_nudge" else None,
        "batch_size": config.batch_size if config.strategy == "pop_nudge" else None,
        "seed": seed,
        "iic_before": tail.coverage_before,
        "iic_after": tail.coverage_after,
        "rank_correlation": tail.rank_correlation,
        "n_items_gained": tail.n_items_gained,
        "max_frequency_drop": tail.max_frequency_drop,
        "n_train_dialogues_after": len(augmented.split_rows("train")),
        "n_anchors_without_candidates": plan.n_anchors_without_candidates if plan else None,
        "n_anchors_truncated": plan.n_anchors_truncated if plan else None,
    }
    _write_json(out / "augment_summary.json", summary)

    print(f"strategy: {config.strategy}")
    print(f"IIC: {_percent(tail.coverage_before)} -> {_percent(tail.coverage_after)}")
    print(f"long-tail rank correlation: {tail.rank_correlation:.4f}")
    print(f"items gained: {tail.n_items_gained}")
    if plan is not None and (plan.n_anchors_without_candidates or plan.n_anchors_truncated):
        print(f"anchors without candidates: {plan.n_anchors_without_candidates}, "
              f"anchors with fewer than k candidates: {plan.n_anchors_truncated}")
    print(f"augmented corpus -> {corpus_out}")
    if plan_path is not None:
        print(f"plan -> {plan_path}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")
    if not config.runs:
        raise ConfigError("paths.runs must list at least one run file")
    for run_path in config.runs:
        if not run_path.exists():
            raise ConfigError(f"paths.runs: no such file: {run_path}")
    out = _prepare_output_dir(config)

    corpus, _ = load_corpus(corpus_path, catalog_path)
    # explicit policy validates that the files carry episode indices;
    # accept_boundary (re)derives them from the accepted-target rule
    corpus = segment_corpus(corpus, config.episode_policy)
    table = pop.build_popularity(corpus, config.eta_policy)

    # one item index for every run: catalog order, unknown ids appended
    items = pop.ItemIndex(corpus.catalog.items)
    reports = []
    for run_path in config.runs:
        # a run's columns are dropped once scored, before the next file loads
        run = met.load_run(run_path, cutoffs=config.cutoffs, items=items)
        report = met.evaluate_run(run, corpus, table, log_base=config.log_base)
        del run
        met.save_report(report, out / f"{report.model_name}.report.jsonl")
        reports.append(report)

    table_text = met.format_report_table(reports)
    write_lines(out / "report_table.txt", [table_text])
    print(table_text)
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    out = config.output_dir
    report_files = sorted(out.glob("*.report.jsonl"))
    if not report_files:
        raise ConfigError(f"no *.report.jsonl files found in {out}")
    reports = []
    for path in report_files:
        records = met.load_report_records(path)
        metrics = {
            r["metric"]: met.MetricSummary(
                mean=r["mean"],
                std=r["std"],
                n=r["n"],
                n_skipped=r["n_skipped"],
                skip_reasons=r.get("skip_reasons", {}),
            )
            for r in records
        }
        n_entries = max((m.n + m.n_skipped for m in metrics.values()), default=0)
        model = records[0]["model"] if records else path.stem
        reports.append(met.BiasReport(model_name=model, n_entries=n_entries, metrics=metrics))
    print(met.format_report_table(reports))
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "generate": cmd_generate,
    "augment": cmd_augment,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crs-bias",
        description="Corpus bias statistics, augmentation and run evaluation "
                    "for conversational recommendation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--k", type=int, default=None, help="override augmentation k")
        cmd.add_argument("--batch-size", type=int, default=None, help="override batch size")
        cmd.add_argument(
            "--strategy", choices=("once_aug", "pop_nudge"), default=None,
            help="override augmentation strategy",
        )
        cmd.add_argument("--output-dir", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides={
            "seed": args.seed,
            "k": args.k,
            "batch_size": args.batch_size,
            "strategy": args.strategy,
            "output_dir": args.output_dir,
        })
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, aug.AugmentError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except aug.AuditError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
