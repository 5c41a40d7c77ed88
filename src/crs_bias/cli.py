"""Command-line entry points: stats, generate, augment, evaluate, report.

Every command is driven by one config file (see ``config.load_config``) with
flag overrides, writes its outputs plus a redacted config echo into the
configured output directory, and is reproducible from config + seed alone
(except ``generate`` with the ``http_chat`` backend, which sends no seed).

Exit codes: 0 success, 2 config/input error (a file-system error too),
3 generation-backend error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import augment as aug
from . import metrics as met
from . import popularity as pop
from .config import STRATEGIES, ConfigError, RunConfig, load_config
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

# evaluate writes <model>.report.jsonl per run; report reads every such file
REPORT_SUFFIX = ".report.jsonl"


def _write_json(path: Path, payload: dict) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _prepare_output_dir(config: RunConfig) -> Path:
    out = config.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"paths.output_dir: cannot create {out}: {exc.strerror}") from None
    _write_json(out / "config_echo.json", config.echo_dict())
    return out


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def cmd_stats(config: RunConfig) -> int:
    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")

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
    out = _prepare_output_dir(config)
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
    catalog = load_catalog(config.require_path("catalog"))
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
    pool_path = config.pool if config.pool is not None else config.output_dir / "pool.jsonl"
    # the output directory is made below; any other must exist before generation starts
    if pool_path.parent != config.output_dir and not pool_path.parent.is_dir():
        raise ConfigError(f"paths.pool: no such directory: {pool_path.parent}")
    out = _prepare_output_dir(config)

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

    corpus, _ = load_corpus(corpus_path, catalog_path)
    # one item index for corpus and pool: catalog order, unknown ids appended
    pool = aug.load_pool(pool_path, items=corpus.columns.items)

    plan = plan_path = None
    if config.strategy == "once_aug":
        augmented = aug.once_aug(corpus, pool)
        out = _prepare_output_dir(config)
    else:
        table = pop.build_popularity(corpus, config.eta_policy)
        plan = aug.pop_nudge(corpus, pool, table, config.k, config.batch_size, seed)
        violations = aug.audit_plan(plan, corpus, pool, table)
        if violations:
            raise aug.AuditError(
                f"plan failed popularity-filter audit ({len(violations)} violations); "
                f"first: {violations[0]}"
            )
        out = _prepare_output_dir(config)
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
    # a run's report is named for its model, the run file's stem
    by_model: dict[str, Path] = {}
    for run_path in config.runs:
        if not run_path.is_file():
            raise ConfigError(f"paths.runs: no such file: {run_path}")
        other = by_model.setdefault(run_path.stem, run_path)
        if other is not run_path:
            raise ConfigError(
                f"paths.runs: {other} and {run_path} would both write "
                f"{run_path.stem}{REPORT_SUFFIX}"
            )
    # run files load in one forked process, one file ahead of scoring, while
    # this one loads the corpus; each run interns its ids into its own index.
    # Errors surface in the sequential order: the corpus's, then run by run
    # its load's and its join's; nothing is written before every run scored
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    sys.stdout.flush()  # or a forked child could print buffered output again
    sys.stderr.flush()
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("fork")) as loader:
        try:
            loading = loader.submit(met.load_run, config.runs[0])
            corpus, _ = load_corpus(corpus_path, catalog_path)
            # explicit policy validates that the files carry episode indices;
            # accept_boundary (re)derives them from the accepted-target rule
            corpus = segment_corpus(corpus, config.episode_policy)
            table = pop.build_popularity(corpus, config.eta_policy)
            reports = []
            for next_path in [*config.runs[1:], None]:
                run = loading.result()
                if next_path is not None:
                    loading = loader.submit(met.load_run, next_path)
                reports.append(met.evaluate_run(
                    run, corpus, table, cutoffs=config.cutoffs, log_base=config.log_base
                ))
                del run  # scored: at most this run and the next one are held
        except BaseException:
            loader.shutdown(cancel_futures=True)
            raise

    out = _prepare_output_dir(config)
    for report in reports:
        met.save_report(report, out / f"{report.model_name}{REPORT_SUFFIX}")
    table_text = met.format_report_table(reports)
    write_lines(out / "report_table.txt", [table_text])
    print(table_text)
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    out = config.output_dir
    report_files = sorted(out.glob(f"*{REPORT_SUFFIX}"))
    if not report_files:
        raise ConfigError(f"no *{REPORT_SUFFIX} files found in {out}")
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
        cmd.add_argument("--seed", type=int, help="override config seed")
        cmd.add_argument("--k", type=int, help="override augmentation k")
        cmd.add_argument("--batch-size", type=int, help="override batch size")
        cmd.add_argument("--strategy", choices=STRATEGIES, help="override augmentation strategy")
        cmd.add_argument("--output-dir", help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the override flags' destinations are the names of the fields they set
        config = load_config(args.config, overrides=vars(args))
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # OSError: an input that cannot be read, or an output that cannot be written
    except (CorpusError, aug.AugmentError, OSError) as exc:
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
