"""Command-line entry points: stats, generate, augment, evaluate, report.

Every command is driven by one config file (see ``config.load_config``) with
flag overrides, writes its outputs plus a redacted config echo into the
configured output directory, and is reproducible from config + seed alone
(except ``generate`` with the ``http_chat`` backend, which sends no seed).

Exit codes: 0 success, 2 config/input error (a file-system error too),
3 generation-backend error, 4 internal invariant violation.

At top level this module imports only the config parser and ``records``;
each command imports the package modules it calls when it starts, so
``report`` and ``--help`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .records import OFFLINE_BACKEND, AugmentError, AuditError, BackendError, CorpusError
from .records import format_report_table, load_report_records, write_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INVARIANT = 4

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


def _pool_path(config: RunConfig) -> Path:
    """The pool file: ``paths.pool``, or ``pool.jsonl`` in the output directory."""
    return config.output_dir / "pool.jsonl" if config.pool is None else config.pool


def _corpus_snapshot(config: RunConfig) -> Path:
    """The corpus's column snapshot, which ``stats`` writes and ``augment``
    and ``evaluate`` read while it matches the corpus file."""
    return config.output_dir / "corpus.cols"


def _report_paths(config: RunConfig) -> list[Path]:
    """Each run's report, ``<output_dir>/<run stem>.report.jsonl``, in config order."""
    if not config.runs:
        raise ConfigError("paths.runs must list at least one run file")
    runs: dict[Path, Path] = {}  # report -> its run
    for run_path in config.runs:
        report = config.output_dir / f"{run_path.stem}{REPORT_SUFFIX}"
        other = runs.setdefault(report, run_path)
        if other is not run_path:
            raise ConfigError(f"paths.runs: {other} and {run_path} would both write {report.name}")
    return list(runs)


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def cmd_stats(config: RunConfig) -> int:
    from . import popularity as pop
    from .corpus import load_corpus, write_snapshot

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
        "iic": pop.item_coverage(table.counts),
        "popular_item_ratio": pop.popular_item_ratio(table),
        "n_unknown_mentions": summary.n_unknown_mentions,
    }
    out = _prepare_output_dir(config)
    _write_json(out / "stats.json", stats)
    pop.save_table(table, out / "popularity.jsonl")
    write_snapshot(_corpus_snapshot(config), corpus.columns, summary.source_sha256)

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
    from .synthgen import HttpChatBackend, OfflineTemplateBackend

    gen = config.generation
    if gen.backend == OFFLINE_BACKEND:
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
    from .corpus import load_catalog
    from .synthgen import POOL_FORMAT, build_pool, builtin_template, load_template

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
    pool_path = _pool_path(config)
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
    from . import augment as aug
    from . import popularity as pop
    from .corpus import load_corpus, save_corpus

    seed = config.require_seed()
    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")
    if not (pool_path := _pool_path(config)).is_file():
        raise ConfigError(f"paths.pool: no such file: {pool_path}")

    corpus, _ = load_corpus(corpus_path, catalog_path, _corpus_snapshot(config))
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
            raise AuditError(
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
        # NaN (a constant frequency column) is not JSON: it is written as null
        "rank_correlation": None if math.isnan(tail.rank_correlation) else tail.rank_correlation,
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


def _loader_count(n_runs: int) -> int:
    """How many processes load ``n_runs`` run files: one per CPU this process
    may use, and no more than the runs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        cpus = os.cpu_count() or 1
    return min(n_runs, cpus)


def cmd_evaluate(config: RunConfig) -> int:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # imported before the loader processes fork, so that they inherit every
    # module and import none of their own
    from . import metrics as met
    from . import popularity as pop
    from .corpus import load_corpus, segment_corpus

    corpus_path = config.require_path("corpus")
    catalog_path = config.require_path("catalog")
    report_paths = _report_paths(config)
    for run_path in config.runs:
        if not run_path.is_file():
            raise ConfigError(f"paths.runs: no such file: {run_path}")
    # run files load ahead of scoring in forked processes, one per CPU this
    # one may use, while this one loads the corpus; each run interns its ids
    # into its own index. Results are taken in config order, so errors
    # surface in the sequential order: the corpus's, then run by run its
    # load's and its join's; nothing is written before every run scored
    loaders = _loader_count(len(config.runs))
    sys.stdout.flush()  # or a forked child could print buffered output again
    sys.stderr.flush()
    with ProcessPoolExecutor(max_workers=loaders, mp_context=get_context("fork")) as pool:
        try:
            loading = deque(pool.submit(met.load_run, path) for path in config.runs[:loaders])
            corpus, _ = load_corpus(corpus_path, catalog_path, _corpus_snapshot(config))
            # training counts read no episodes: they need no segmentation
            table = pop.build_popularity(corpus, config.eta_policy)
            # explicit policy validates that the files carry episode indices;
            # accept_boundary (re)derives them from the accepted-target rule
            corpus = segment_corpus(corpus, config.episode_policy)
            reports = []
            for next_path in [*config.runs[loaders:], *[None] * loaders]:
                run = loading.popleft().result()
                if next_path is not None:
                    loading.append(pool.submit(met.load_run, next_path))
                reports.append(met.evaluate_run(
                    run, corpus, table, cutoffs=config.cutoffs, log_base=config.log_base
                ))
                del run  # scored: at most this run and `loaders` loaded ones are held
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    out = _prepare_output_dir(config)
    for report, path in zip(reports, report_paths):
        met.save_report(report, path)
    table_text = format_report_table(r for report in reports for r in report.to_records())
    write_lines(out / "report_table.txt", [table_text])
    print(table_text)
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    paths = _report_paths(config)
    print(format_report_table(r for path in paths for r in load_report_records(path)))
    return EXIT_OK


# each command's function and the override flags it reads; a flag sets the
# config field its destination names
_COMMANDS = {
    "stats": (cmd_stats, ("--output-dir",)),
    "generate": (cmd_generate, ("--seed", "--output-dir")),
    "augment": (cmd_augment, ("--seed", "--k", "--batch-size", "--strategy", "--output-dir")),
    "evaluate": (cmd_evaluate, ("--output-dir",)),
    "report": (cmd_report, ("--output-dir",)),
}
_FLAGS = {
    "--seed": {"type": int, "help": "override seed"},
    "--k": {"type": int, "help": "override augment.k"},
    "--batch-size": {"type": int, "help": "override augment.batch_size"},
    "--strategy": {"help": "override augment.strategy"},
    "--output-dir": {"help": "override paths.output_dir"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crs-bias",
        description="Corpus bias statistics, augmentation and run evaluation "
                    "for conversational recommendation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides=vars(args))
        return _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # OSError: an input that cannot be read, or an output that cannot be written
    except (CorpusError, AugmentError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except AuditError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
