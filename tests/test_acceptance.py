"""Acceptance suite: one test per release criterion, at its stated tolerance.

The summary hook in conftest prints one PASS/FAIL line per criterion at the
end of the run. Criteria that depend on the real public datasets are skipped
unless CRS_BIAS_DATA_DIR points at prepared corpus/catalog files (see
README), since those files cannot be bundled here.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from math import fsum
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats as scipy_stats

from crs_bias.augment import (
    audit_plan,
    longtail_report,
    materialize_flat,
    once_aug,
    pop_nudge,
    weighted_sample_without_replacement,
)
from crs_bias.cli import main
from crs_bias.corpus import load_corpus, save_catalog, save_corpus, save_dialogues
from crs_bias.metrics import (
    RankedRun,
    RunEntry,
    Skipped,
    cross_episode_popularity,
    evaluate_run,
    initial_item_coverage,
    intent_oriented_popularity,
    pearson,
    popularity_bias,
    rank_metrics,
)
from crs_bias.popularity import PopularityTable, ThresholdPolicy, build_popularity

from helpers import build_standard_corpus, scalar_report, single_mention_pool

DATA = Path(__file__).parent / "data"
REAL_DATA_ENV = "CRS_BIAS_DATA_DIR"


# -- criterion 1: initial item coverage ------------------------------------


def test_c01_iic_exact_on_fixture(tmp_path, capsys):
    corpus, _ = load_corpus(DATA / "corpus_small.jsonl", DATA / "catalog_small.jsonl")
    assert initial_item_coverage(corpus) == 0.75  # exact, no tolerance

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {
            "corpus": str(DATA / "corpus_small.jsonl"),
            "catalog": str(DATA / "catalog_small.jsonl"),
            "output_dir": str(tmp_path / "out"),
        },
    }))
    assert main(["stats", "--config", str(config)]) == 0
    capsys.readouterr()
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["iic"] == 0.75


def test_c01_stats_runtime_on_10k_dialogues(tmp_path, capsys):
    rng = np.random.default_rng(123)
    n_items, n_mentioned = 2000, 1500
    catalog_path = tmp_path / "catalog.jsonl"
    with catalog_path.open("w") as fh:
        for i in range(n_items):
            fh.write(json.dumps({"item_id": f"x{i:04d}", "name": f"Item {i}"}) + "\n")
    weights = 1.0 / np.arange(1, n_mentioned + 1) ** 1.05
    weights /= weights.sum()
    corpus_path = tmp_path / "corpus.jsonl"
    with corpus_path.open("w") as fh:
        for n in range(10_000):
            split = "train" if n < 8000 else ("valid" if n < 9000 else "test")
            picks = rng.choice(n_mentioned, size=int(rng.integers(1, 4)), replace=False, p=weights)
            items = [f"x{int(i):04d}" for i in picks]
            fh.write(json.dumps({
                "dialogue_id": f"d{n:05d}",
                "split": split,
                "turns": [
                    {"speaker": "seeker", "text": "any ideas?", "items": [], "targets": []},
                    {"speaker": "recommender", "text": "sure", "items": items,
                     "targets": [items[0]]},
                ],
            }) + "\n")

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {
            "corpus": str(corpus_path),
            "catalog": str(catalog_path),
            "output_dir": str(tmp_path / "out"),
        },
    }))
    started = time.perf_counter()
    assert main(["stats", "--config", str(config)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert elapsed < 30.0, f"cmd_stats took {elapsed:.1f}s on 10k dialogues"


@pytest.mark.skipif(
    REAL_DATA_ENV not in os.environ,
    reason=f"set {REAL_DATA_ENV} to a directory with redial/ and tgredial/ "
    f"corpus.jsonl + catalog.jsonl to check the published dataset statistics",
)
@pytest.mark.parametrize(
    "dataset,expected_iic,expected_popular",
    [("redial", 0.7275, 0.2655), ("tgredial", 0.3482, 0.0374)],
)
def test_c01_table_statistics_on_real_data(dataset, expected_iic, expected_popular):
    root = Path(os.environ[REAL_DATA_ENV]) / dataset
    corpus, _ = load_corpus(root / "corpus.jsonl", root / "catalog.jsonl")
    table = build_popularity(corpus, ThresholdPolicy.count_threshold(5))
    assert abs(initial_item_coverage(corpus) - expected_iic) <= 1e-4  # +-0.01 pp
    ratio = len(table.popular_set) / len(corpus.catalog)
    assert abs(ratio - expected_popular) <= 1e-4


# -- criterion 2: once_aug coverage -----------------------------------------


def test_c02_once_aug_reaches_full_coverage(standard_corpus, standard_pool):
    augmented = once_aug(standard_corpus, standard_pool)
    assert initial_item_coverage(augmented) == 1.0  # exact


# -- criterion 3: pop_nudge coverage monotone in k ---------------------------


def test_c03_pop_nudge_coverage_monotone_in_k(standard_corpus, standard_pool, standard_table):
    started = time.perf_counter()
    coverage = {}
    for k in (1, 5, 10, 50):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, k, 32, seed=1234)
        augmented = materialize_flat(plan, standard_corpus, standard_pool)
        coverage[k] = initial_item_coverage(augmented)
    elapsed = time.perf_counter() - started

    base = initial_item_coverage(standard_corpus)
    assert base < 1.0
    previous = base
    for k in (1, 5, 10, 50):
        assert coverage[k] >= previous, f"coverage dropped at k={k}"
        previous = coverage[k]
    assert coverage[50] == 1.0  # exact
    assert elapsed < 10.0, f"pop_nudge sweep took {elapsed:.1f}s"


# -- criterion 4: popularity-bias closed form vs brute-force oracle ----------


def test_c04_pop_bias_matches_bruteforce_oracle():
    items = [f"i{n}" for n in range(6)]
    max_error = 0.0
    n_checked = 0
    for popular in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(7)
    )):
        for length in range(1, 6):
            for ranked in itertools.permutations(items, length):
                # oracle: direct summation straight from the definitions
                utility = 0.0
                n_popular = 0
                for rank, item in enumerate(ranked, start=1):
                    if item in popular:
                        utility += 1.0 / (math.log(rank) + 1.0)
                        n_popular += 1
                expected = utility * (n_popular / len(ranked))
                got = popularity_bias(ranked, popular)
                max_error = max(max_error, abs(got - expected))
                n_checked += 1
    assert n_checked == 64 * (6 + 30 + 120 + 360 + 720)
    assert max_error <= 1e-9, f"max |closed form - oracle| = {max_error:.2e}"


# -- criterion 5: CEP/UIOP bounds and skip routing ---------------------------


def test_c05_cep_uiop_bounds_and_skip_routing():
    rng = np.random.default_rng(20240601)
    items = [f"i{n}" for n in range(50)]
    pop = {i: float(rng.random()) for i in items}
    table = PopularityTable(
        freq={i: 0 for i in items},
        pop=pop,
        popular_set=frozenset(i for i in items if pop[i] > 0.6),
        eta_policy=ThresholdPolicy.count_threshold(5),
    )

    def random_list(min_size=0, max_size=10):
        size = int(rng.integers(min_size, max_size + 1))
        if size == 0:
            return ()
        return tuple(rng.choice(items, size=size, replace=False))

    n_entries = 10_000
    expected_skips = {"first_episode": 0, "no_previous_episode": 0,
                      "empty_ranked_list": 0, "insufficient_overlap": 0}
    observed_skips = dict.fromkeys(expected_skips, 0)
    n_scored = 0

    for index in range(n_entries):
        episode = int(rng.integers(0, 3))
        ranked = random_list(0 if rng.random() < 0.05 else 1)
        targets = random_list(0, 2)
        entry = RunEntry("d", index, episode, ranked, targets)

        if rng.random() < 0.15:
            previous = []
        else:
            previous = [
                RunEntry("d", t, episode - 1, random_list(0, 10))
                for t in range(int(rng.integers(1, 4)))
            ]

        bias = popularity_bias(ranked, table.popular_set) if ranked else 0.0

        # expected routing, mirrored independently from the data
        if episode == 0:
            expected_skips["first_episode"] += 1
        elif not previous:
            expected_skips["no_previous_episode"] += 1
        elif not ranked:
            expected_skips["empty_ranked_list"] += 1
        else:
            last = max(previous, key=lambda e: e.turn_index)
            overlap = min(len(ranked), len(last.ranked_item_ids))
            if overlap < 2:
                expected_skips["insufficient_overlap"] += 1

        result = cross_episode_popularity(entry, previous, table)
        if isinstance(result, Skipped):
            observed_skips[result.reason] += 1
        else:
            n_scored += 1
            assert 0.0 <= result <= bias  # exact: |rho| <= 1
            last = max(previous, key=lambda e: e.turn_index)
            overlap = min(len(ranked), len(last.ranked_item_ids))
            rho = pearson(
                [table.pop_of(i) for i in ranked[:overlap]],
                [table.pop_of(i) for i in last.ranked_item_ids[:overlap]],
            )
            assert result == bias * abs(rho)

        gap = intent_oriented_popularity(entry, table)
        if not isinstance(gap, Skipped):
            assert gap >= 0.0
            expected_gap = fsum(abs(table.pop_of(t) - bias) for t in targets) / len(targets)
            assert gap == expected_gap  # exact identity
        else:
            assert gap.reason in ("no_targets", "empty_ranked_list")

    assert observed_skips == expected_skips
    assert n_scored > 1000

    # zero-variance popularity profiles correlate as zero by definition,
    # no matter which side is flat
    flat_table = PopularityTable(
        freq={i: 0 for i in ("f1", "f2", "f3", "v1", "v2", "v3")},
        pop={"f1": 0.5, "f2": 0.5, "f3": 0.5, "v1": 0.9, "v2": 0.3, "v3": 0.1},
        popular_set=frozenset({"f1", "v1"}),
        eta_policy=ThresholdPolicy.count_threshold(5),
    )
    n_zero_variance = 0
    varied = ("v1", "v2", "v3")
    for flat in itertools.permutations(("f1", "f2", "f3")):
        current_flat = RunEntry("d", 1, 1, flat)
        assert cross_episode_popularity(
            current_flat, [RunEntry("d", 0, 0, varied)], flat_table
        ) == 0.0
        current_varied = RunEntry("d", 1, 1, varied)
        assert cross_episode_popularity(
            current_varied, [RunEntry("d", 0, 0, flat)], flat_table
        ) == 0.0
        n_zero_variance += 2
    assert n_zero_variance == 12


# -- criterion 6: rank metrics against a hand-computed table -----------------


def test_c06_rank_metrics_hand_table():
    log2 = math.log2
    cases = [
        # (ranked, targets, k, hit, ndcg, mrr)
        (("b", "a"), ("a",), 2, 1.0, 1 / log2(3), 0.5),
        (("a", "b"), ("a",), 10, 1.0, 1.0, 1.0),
        (("b", "c", "a"), ("a",), 2, 0.0, 0.0, 0.0),
        ((), ("a",), 10, 0.0, 0.0, 0.0),
        (("a", "b", "c"), ("a", "c"), 3, 1.0,
         (1.0 + 1 / log2(4)) / (1.0 + 1 / log2(3)), 1.0),
        (("x", "a"), ("a", "b"), 2, 1.0, (1 / log2(3)) / (1.0 + 1 / log2(3)), 0.5),
        (("b", "a"), ("a",), 1, 0.0, 0.0, 0.0),
        (("a",), ("a",), 10, 1.0, 1.0, 1.0),
        # cutoff below the target count: the untruncated ideal still normalizes
        (("b", "x"), ("a", "b"), 1, 1.0, 1.0 / (1.0 + 1 / log2(3)), 1.0),
        (("c", "d", "a", "b"), ("a", "b"), 4, 1.0,
         (1 / log2(4) + 1 / log2(5)) / (1.0 + 1 / log2(3)), 1 / 3),
        (("x", "y", "z", "a"), ("a",), 3, 0.0, 0.0, 0.0),
        (("x", "y", "z", "a"), ("a",), 4, 1.0, 1 / log2(5), 0.25),
    ]
    assert len(cases) == 12
    for ranked, targets, k, hit, ndcg, mrr in cases:
        scores = rank_metrics(RunEntry("d", 0, 0, ranked, targets), cutoffs=(k,))
        assert abs(scores[f"hit@{k}"] - hit) <= 1e-9, (ranked, targets, k)
        assert abs(scores[f"ndcg@{k}"] - ndcg) <= 1e-9, (ranked, targets, k)
        assert abs(scores[f"mrr@{k}"] - mrr) <= 1e-9, (ranked, targets, k)
    assert rank_metrics(RunEntry("d", 0, 0, ("a",), ())) == Skipped("no_targets")


def test_c06_rank_metrics_monotone_over_random_entries():
    rng = np.random.default_rng(99)
    items = [f"i{n}" for n in range(60)]
    cutoffs = (1, 3, 10, 50)
    for _ in range(1000):
        size = int(rng.integers(1, 56))
        ranked = tuple(rng.choice(items, size=size, replace=False))
        targets = tuple(rng.choice(items, size=int(rng.integers(1, 4)), replace=False))
        scores = rank_metrics(RunEntry("d", 0, 0, ranked, targets), cutoffs=cutoffs)
        for prefix in ("hit", "ndcg", "mrr"):
            values = [scores[f"{prefix}@{k}"] for k in cutoffs]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        for k in cutoffs:
            assert scores[f"mrr@{k}"] <= scores[f"hit@{k}"]
            assert 0.0 <= scores[f"ndcg@{k}"] <= 1.0


# -- criterion 7: weighted sampling distribution ----------------------------


def test_c07_weighted_sampling_distribution():
    rng = np.random.default_rng(4242)
    draws = 100_000
    hits = sum(
        weighted_sample_without_replacement(["a", "b"], [2, 1], 1, rng) == ["a"]
        for _ in range(draws)
    )
    frequency = hits / draws
    assert abs(frequency - 2 / 3) <= 0.01, f"freq(a) = {frequency:.4f}"


# -- criterion 8: determinism ------------------------------------------------


def _write_standard_workspace(tmp_path: Path) -> Path:
    corpus = build_standard_corpus()
    pool = single_mention_pool(corpus.catalog)
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    save_catalog(corpus.catalog, tmp_path / "catalog.jsonl")
    save_dialogues(pool.dialogues, tmp_path / "pool.jsonl")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {
            "corpus": "corpus.jsonl",
            "catalog": "catalog.jsonl",
            "pool": "pool.jsonl",
            "output_dir": "out",
        },
        "augment": {"strategy": "pop_nudge", "k": 5, "batch_size": 32},
        "seed": 1234,
    }))
    return config


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_c08_cmd_augment_byte_identical(tmp_path, capsys):
    config = _write_standard_workspace(tmp_path)
    assert main(["augment", "--config", str(config)]) == 0
    first = _snapshot(tmp_path / "out")
    assert main(["augment", "--config", str(config)]) == 0
    second = _snapshot(tmp_path / "out")
    capsys.readouterr()
    assert first == second
    assert "plan.jsonl" in first and "augmented_corpus.jsonl" in first


def test_c08_cmd_generate_byte_identical(tmp_path, capsys):
    corpus = build_standard_corpus()
    save_catalog(corpus.catalog, tmp_path / "catalog.jsonl")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {"catalog": "catalog.jsonl", "output_dir": "out"},
        "generation": {"backend": "offline_template", "language": "en"},
        "seed": 77,
    }))
    assert main(["generate", "--config", str(config)]) == 0
    first = _snapshot(tmp_path / "out")
    assert main(["generate", "--config", str(config)]) == 0
    second = _snapshot(tmp_path / "out")
    capsys.readouterr()
    assert first == second
    assert "pool.jsonl" in first


def test_c08_columnar_evaluation_equals_scalar(standard_corpus, standard_table):
    rng = np.random.default_rng(321)
    items = list(standard_corpus.catalog.items)
    entries = []
    for dialogue in standard_corpus.dialogues:
        episodes = dialogue.episode_index_per_turn
        for turn_index, turn in enumerate(dialogue.turns):
            if turn.speaker != "recommender":
                continue
            ranked = tuple(rng.choice(items, size=10, replace=False))
            entries.append(RunEntry(
                dialogue.dialogue_id, turn_index, episodes[turn_index],
                ranked, turn.target_item_ids,
            ))
    run = RankedRun("det-check", tuple(entries))
    columnar = evaluate_run(run, standard_corpus, standard_table)
    assert columnar == scalar_report(run, standard_table)
    assert columnar == evaluate_run(run, standard_corpus, standard_table)


# -- criterion 9: popularity-filter invariant --------------------------------


def test_c09_every_appended_dialogue_respects_the_filter(
    standard_corpus, standard_pool, standard_table
):
    train_by_id = {d.dialogue_id: d for d in standard_corpus.dialogues}
    audited = 0
    for k in (1, 5, 10, 50):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, k, 32, seed=1234)
        # independent checker: straight dictionary lookups, no package helpers
        for batch in plan.batches:
            for anchor_id, sampled in batch.samples.items():
                anchor = train_by_id[anchor_id]
                anchor_pop = 0.0
                for turn in anchor.turns:
                    for iid in turn.mentioned_item_ids + turn.target_item_ids:
                        anchor_pop = max(anchor_pop, standard_table.pop.get(iid, 0.0))
                for synthetic_id in sampled:
                    item = standard_pool.item_of[synthetic_id]
                    assert standard_table.pop.get(item, 0.0) <= anchor_pop, (
                        f"k={k}: {synthetic_id} more popular than anchor {anchor_id}"
                    )
                    audited += 1
        # the package's own audit pass must agree
        assert audit_plan(plan, standard_corpus, standard_pool, standard_table) == []
    assert audited > 10_000


# -- criterion 10: long-tail preservation ------------------------------------


def test_c10_longtail_rank_correlation_and_no_frequency_loss(
    standard_corpus, standard_pool, standard_table
):
    def frequencies(corpus) -> dict[str, int]:
        freq = {i: 0 for i in corpus.catalog.items}
        for dialogue in corpus.dialogues:
            if dialogue.split != "train":
                continue
            for turn in dialogue.turns:
                for iid in dict.fromkeys(turn.mentioned_item_ids + turn.target_item_ids):
                    if iid in freq:
                        freq[iid] += 1
        return freq

    before = frequencies(standard_corpus)
    for k in (1, 5, 10):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, k, 32, seed=1234)
        augmented = materialize_flat(plan, standard_corpus, standard_pool)
        after = frequencies(augmented)
        items = list(before)
        rho = float(scipy_stats.spearmanr(
            [before[i] for i in items], [after[i] for i in items]
        ).statistic)
        assert rho >= 0.9, f"k={k}: spearman {rho:.4f}"
        assert all(after[i] >= before[i] for i in items), f"k={k}: a frequency decreased"
        report = longtail_report(standard_corpus, augmented)
        assert abs(report.rank_correlation - rho) <= 1e-12
        assert report.max_frequency_drop <= 0
