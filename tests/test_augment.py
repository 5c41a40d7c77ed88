from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crs_bias.augment import (
    _STREAM_ANCHOR,
    AugmentError,
    AugmentationPlan,
    PlanBatch,
    SyntheticPool,
    anchor_popularity,
    audit_plan,
    iter_batches,
    load_plan,
    load_pool,
    longtail_report,
    materialize_flat,
    once_aug,
    pool_digest,
    pop_nudge,
    save_plan,
    spearman,
    weighted_sample_without_replacement,
)
from crs_bias.corpus import Corpus, CorpusError, Dialogue, ItemCatalog, Turn
from crs_bias.metrics import initial_item_coverage
from crs_bias.popularity import PopularityTable, ThresholdPolicy, train_frequencies

from helpers import make_dialogue, reference_sample


def _synthetic(dialogue_id: str, item: str) -> Dialogue:
    return Dialogue(
        dialogue_id,
        (
            Turn("seeker", "any ideas?"),
            Turn("recommender", f"take @{item}", (item,), (item,)),
        ),
        split="train",
        provenance="synthetic",
    )


def _pool(items: dict[str, str]) -> SyntheticPool:
    return SyntheticPool.from_dialogues([_synthetic(d, i) for d, i in items.items()])


def _pop_table(freq: dict[str, int]) -> PopularityTable:
    """A table with the given training frequencies and pop = freq / max."""
    top = max(freq.values(), default=0)
    return PopularityTable(
        freq=freq,
        pop={i: f / top if top else 0.0 for i, f in freq.items()},
        popular_set=frozenset(),
        eta_policy=ThresholdPolicy.count_threshold(5),
    )


# training frequencies with many ties and zeros, plus large values
_FREQS = st.one_of(
    st.sampled_from([0, 0, 1, 2, 5, 10]),
    st.integers(0, 2**40),
)

# sha256 of save_plan(pop_nudge(standard fixture, k=5, batch_size=32, seed=42)):
# plan format 2. Its batch lines equal those of the format-1 file
# (sha256 6de7de99ecf54e71ae1c5f0e3fa72382be11492d6bbecf2b082e9d0369ef536a),
# whose header had no format_version
_STANDARD_PLAN_SHA256 = "57f3f1d6e6fc0816b4b5028770342bc87da746573e2aa872aba3652e88951cc7"


def _assert_samples_match_reference(
    pool_freqs: list[int], anchor_freqs: list[int], k: int, batch_size: int, seed: int
) -> None:
    """Every anchor's samples equal the integer reference loop run on the
    anchor's candidate prefix with the anchor's own RNG stream."""
    freq = {f"p{i}": f for i, f in enumerate(pool_freqs)}
    freq.update({f"a{j}": f for j, f in enumerate(anchor_freqs)})
    table = _pop_table(freq)
    catalog = ItemCatalog({item: item.upper() for item in freq})
    train = Corpus(
        catalog, tuple(make_dialogue(f"d{j}", [f"a{j}"]) for j in range(len(anchor_freqs)))
    )
    pool = _pool({f"s{i}": f"p{i}" for i in range(len(pool_freqs))})
    plan = pop_nudge(train, pool, table, k, batch_size, seed)

    ranked = sorted(pool.item_of, key=lambda s: (freq[pool.item_of[s]], s))
    ranked_freqs = [freq[pool.item_of[s]] for s in ranked]
    for batch in plan.batches:
        for position, anchor_id in enumerate(batch.anchor_ids):
            cut = bisect_right(ranked_freqs, anchor_freqs[int(anchor_id[1:])])
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, _STREAM_ANCHOR, batch.index, position))
            )
            expected = [ranked[i] for i in reference_sample(ranked_freqs[:cut], k, rng)]
            assert batch.samples[anchor_id] == tuple(expected)


class TestPool:
    def test_multi_item_dialogue_rejected(self):
        bad = Dialogue(
            "s1",
            (Turn("recommender", "@a @b", ("a", "b")),),
            provenance="synthetic",
        )
        with pytest.raises(AugmentError, match="exactly one"):
            SyntheticPool.from_dialogues([bad])

    def test_non_synthetic_rejected(self):
        with pytest.raises(AugmentError, match="not synthetic"):
            SyntheticPool.from_dialogues([make_dialogue("d1", ["a"])])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AugmentError, match="duplicate"):
            SyntheticPool.from_dialogues([_synthetic("s", "a"), _synthetic("s", "b")])

    @pytest.mark.parametrize("lead, second, message", [
        (0, {"provenance": "original"}, "pool.jsonl:3: pool dialogue 's2' is not synthetic"),
        (0, {"items": ["a", "b"]},
         "pool.jsonl:3: pool dialogue 's2' mentions 2 distinct items; exactly one is required"),
        # behind 300 good dialogues, s2's line comes from the second checked run of 256
        (300, {"provenance": "original"}, "pool.jsonl:303: pool dialogue 's2' is not synthetic"),
    ])
    def test_pool_rule_errors_name_path_and_line(self, tmp_path, lead, second, message):
        def line(dialogue_id: str, items=("a",), provenance="synthetic") -> str:
            turn = {"speaker": "recommender", "text": "try it", "items": list(items), "targets": []}
            return json.dumps({"dialogue_id": dialogue_id, "split": "train",
                               "provenance": provenance, "turns": [turn]})

        path = tmp_path / "pool.jsonl"
        # a blank line before s2: the error names the file line, not the record number
        head = "".join(line(f"lead{n}") + "\n" for n in range(lead))
        path.write_text(
            head + line("s1") + "\n\n" + line("s2", **second) + "\n" + line("s3", ["b", "c"])
        )
        with pytest.raises(AugmentError) as error:
            load_pool(path)
        assert str(error.value) == f"{tmp_path}/{message}"

    def test_digest_is_order_independent(self):
        one = _pool({"s1": "a", "s2": "b"})
        other = SyntheticPool.from_dialogues([_synthetic("s2", "b"), _synthetic("s1", "a")])
        assert pool_digest(one) == pool_digest(other)


class TestOnceAug:
    def test_counts(self):
        catalog = ItemCatalog({c: c.upper() for c in "abcdef"})
        train = Corpus(catalog, tuple(make_dialogue(f"d{i}", ["a"]) for i in range(10)))
        pool = _pool({f"s{i}": c for i, c in enumerate("abcdef")})
        augmented = once_aug(train, pool)
        assert len(augmented.split("train")) == 16

    def test_covering_pool_reaches_full_coverage(self, standard_corpus, standard_pool):
        augmented = once_aug(standard_corpus, standard_pool)
        assert initial_item_coverage(augmented) == 1.0

    def test_empty_pool_is_identity(self):
        catalog = ItemCatalog({"a": "A"})
        train = Corpus(catalog, (make_dialogue("d1", ["a"]),))
        augmented = once_aug(train, SyntheticPool.from_dialogues([]))
        assert augmented == train

    def test_valid_and_test_untouched(self, standard_corpus, standard_pool):
        augmented = once_aug(standard_corpus, standard_pool)
        assert augmented.split("valid") == standard_corpus.split("valid")
        assert augmented.split("test") == standard_corpus.split("test")

    def test_id_collision_rejected(self):
        catalog = ItemCatalog({"a": "A"})
        train = Corpus(catalog, (make_dialogue("same-id", ["a"]),))
        pool = _pool({"same-id": "a"})
        with pytest.raises(CorpusError, match="duplicate"):
            once_aug(train, pool)


class TestWeightedSampling:
    def test_degenerate_mass(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert weighted_sample_without_replacement(["a", "b", "c"], [1, 0, 0], 1, rng) == ["a"]

    def test_full_draw_is_permutation(self):
        rng = np.random.default_rng(3)
        drawn = weighted_sample_without_replacement(list("abcd"), [4, 3, 2, 1], 4, rng)
        assert sorted(drawn) == list("abcd")

    def test_k_larger_than_population_takes_all(self):
        rng = np.random.default_rng(3)
        drawn = weighted_sample_without_replacement(["a", "b"], [1, 1], 10, rng)
        assert sorted(drawn) == ["a", "b"]

    def test_all_zero_weights_fall_back_to_uniform(self):
        seen = set()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            seen.update(weighted_sample_without_replacement(list("abc"), [0, 0, 0], 1, rng))
        assert seen == {"a", "b", "c"}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AugmentError, match="equal length"):
            weighted_sample_without_replacement(["a"], [1, 2], 1, np.random.default_rng(0))

    def test_negative_weights_rejected(self):
        with pytest.raises(AugmentError, match="non-negative"):
            weighted_sample_without_replacement(["a"], [-1], 1, np.random.default_rng(0))

    @pytest.mark.parametrize("weights", [[2.0, 1.0], [0.5, 1], [True, False], ["2", "1"]])
    def test_non_integer_weights_rejected(self, weights):
        with pytest.raises(AugmentError, match="integers"):
            weighted_sample_without_replacement(["a", "b"], weights, 1, np.random.default_rng(0))

    def test_total_weight_of_2_53_rejected(self):
        rng = np.random.default_rng(0)
        assert weighted_sample_without_replacement(["a", "b"], [2**52, 2**52 - 1], 1, rng)
        with pytest.raises(AugmentError, match="2\\*\\*53"):
            weighted_sample_without_replacement(["a", "b"], [2**52, 2**52], 1, rng)

    def test_empty_population_draws_nothing(self):
        assert weighted_sample_without_replacement([], [], 3, np.random.default_rng(0)) == []


class _ScriptedRng:
    """Stands in for a Generator, returning scripted variates in order."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)

    def integers(self, n: int) -> int:
        return int(next(self.values) * n)


class TestIntegerDraws:
    TOP = 1 - 2**-53  # the largest variate Generator.random returns

    def test_top_variate_at_totals_near_2_52_hits_the_last_unit_of_mass(self):
        # u = 1 - 2**-53 puts the target at total - 1, the last unit of live
        # weight, so each draw takes the last live index with positive weight
        # (never the trailing zeros) until only zero weights remain
        weights = [2**50, 0, 2**51 + 7, 3, 2**51 - 11, 0]
        assert 2**52 < sum(weights) < 2**53
        script = [self.TOP] * 4 + [0.9, 0.2]
        drawn = weighted_sample_without_replacement(
            list(range(6)), weights, 6, _ScriptedRng(script)
        )
        assert drawn == [4, 3, 2, 0, 5, 1]
        assert drawn == reference_sample(weights, 6, _ScriptedRng(script))

    @pytest.mark.parametrize("u", [TOP, 1.0])
    def test_target_is_clamped_inside_the_live_mass(self, u):
        # a variate of 1.0 (outside Generator.random's range) must still land
        # on the last positive weight, not past it
        weights = [3, 2**52 - 5, 1, 0]
        drawn = weighted_sample_without_replacement(list(range(4)), weights, 3, _ScriptedRng([u] * 3))
        assert drawn == [2, 1, 0]

    @pytest.mark.parametrize("seed", range(40))
    def test_top_and_middle_variates_match_reference_near_2_52(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        weights = rng.integers(0, 2**53 // n, size=n)
        weights[rng.random(n) < 0.3] = 0
        weights = weights.tolist()
        script = [0.5, self.TOP, 0.25, self.TOP, self.TOP] if seed % 2 else [self.TOP] * 5
        got = weighted_sample_without_replacement(list(range(n)), weights, 5, _ScriptedRng(script))
        assert got == reference_sample(weights, 5, _ScriptedRng(script))

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(_FREQS, min_size=0, max_size=30),
        k=st.integers(1, 8),
        extra=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_grow_as_prefixes_in_k(self, weights, k, extra, seed):
        items = list(range(len(weights)))
        short = weighted_sample_without_replacement(items, weights, k, np.random.default_rng(seed))
        long = weighted_sample_without_replacement(
            items, weights, k + extra, np.random.default_rng(seed)
        )
        assert long[: len(short)] == short
        assert short == reference_sample(weights, k, np.random.default_rng(seed))


class TestPopNudge:
    def _small(self):
        catalog = ItemCatalog({c: c.upper() for c in "abcde"})
        train = Corpus(
            catalog,
            (
                make_dialogue("d-mid", ["b"]),    # anchor pop 0.5
                make_dialogue("d-top", ["a"]),    # anchor pop 1.0
            ),
        )
        # explicit frequencies so the filter example is exact:
        # pool item pops {s-hot: 0.9, s-warm: 0.4, s-cold: 0.2}
        table = _pop_table({"a": 10, "b": 5, "c": 9, "d": 4, "e": 2})
        pool = _pool({"s-hot": "c", "s-warm": "d", "s-cold": "e"})
        return train, pool, table

    def test_filter_keeps_less_popular_candidates_only(self):
        train, pool, table = self._small()
        plan = pop_nudge(train, pool, table, k=3, batch_size=2, seed=11)
        samples = {a: s for batch in plan.batches for a, s in batch.samples.items()}
        # the 0.5-pop anchor may only receive the 0.4 and 0.2 items
        assert set(samples["d-mid"]) == {"s-warm", "s-cold"}
        # the 1.0-pop anchor can receive everything
        assert set(samples["d-top"]) == {"s-hot", "s-warm", "s-cold"}

    def test_equally_popular_candidates_are_retained(self):
        # the filter removes strictly-more-popular items only
        catalog = ItemCatalog({"a": "A", "b": "B"})
        train = Corpus(catalog, (make_dialogue("d1", ["b"]),))
        table = _pop_table({"a": 2, "b": 1})
        pool = _pool({"s-same": "b"})
        plan = pop_nudge(train, pool, table, k=1, batch_size=1, seed=5)
        assert plan.batches[0].samples["d1"] == ("s-same",)

    def test_anchor_less_popular_than_whole_pool_gets_nothing(self):
        catalog = ItemCatalog({"a": "A", "b": "B"})
        train = Corpus(catalog, (make_dialogue("d1", ["b"]),))
        table = _pop_table({"a": 10, "b": 1})
        pool = _pool({"s1": "a"})
        plan = pop_nudge(train, pool, table, k=2, batch_size=1, seed=5)
        assert plan.batches[0].samples["d1"] == ()
        assert plan.n_anchors_without_candidates == 1

    def test_same_seed_same_plan(self, standard_corpus, standard_pool, standard_table):
        first = pop_nudge(standard_corpus, standard_pool, standard_table, 3, 32, seed=42)
        second = pop_nudge(standard_corpus, standard_pool, standard_table, 3, 32, seed=42)
        assert first == second

    def test_different_seed_differs(self, standard_corpus, standard_pool, standard_table):
        first = pop_nudge(standard_corpus, standard_pool, standard_table, 3, 32, seed=42)
        second = pop_nudge(standard_corpus, standard_pool, standard_table, 3, 32, seed=43)
        assert first != second

    def test_sample_sequences_grow_as_prefixes_in_k(
        self, standard_corpus, standard_pool, standard_table
    ):
        small = pop_nudge(standard_corpus, standard_pool, standard_table, 2, 32, seed=9)
        large = pop_nudge(standard_corpus, standard_pool, standard_table, 6, 32, seed=9)
        for batch_small, batch_large in zip(small.batches, large.batches):
            assert batch_small.anchor_ids == batch_large.anchor_ids
            for anchor in batch_small.anchor_ids:
                prefix = batch_small.samples[anchor]
                full = batch_large.samples[anchor]
                assert full[: len(prefix)] == prefix

    def test_empty_pool_rejected(self, standard_corpus, standard_table):
        with pytest.raises(AugmentError, match="empty"):
            pop_nudge(
                standard_corpus,
                SyntheticPool.from_dialogues([]),
                standard_table,
                1,
                32,
                seed=1,
            )

    def test_invalid_parameters_rejected(self, standard_corpus, standard_pool, standard_table):
        with pytest.raises(AugmentError):
            pop_nudge(standard_corpus, standard_pool, standard_table, 0, 32, seed=1)
        with pytest.raises(AugmentError):
            pop_nudge(standard_corpus, standard_pool, standard_table, 1, 0, seed=1)
        with pytest.raises(AugmentError):
            pop_nudge(standard_corpus, standard_pool, standard_table, 1, 32, seed=-4)

    def test_batches_cover_each_training_dialogue_once(
        self, standard_corpus, standard_pool, standard_table
    ):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, 1, 32, seed=0)
        anchors = [a for batch in plan.batches for a in batch.anchor_ids]
        assert sorted(anchors) == sorted(d.dialogue_id for d in standard_corpus.split("train"))
        assert all(len(b.anchor_ids) <= 32 for b in plan.batches)

    def test_draw_weights_proportional_to_item_popularity(self):
        # anchor pop 1.0 admits the whole pool; with k=1 the first draw lands
        # on the 0.9-pop item with probability 0.9/1.5 across seeds
        train, pool, table = self._small()
        hits = 0
        n_plans = 2000
        for seed in range(n_plans):
            plan = pop_nudge(train, pool, table, k=1, batch_size=2, seed=seed)
            samples = {a: s for b in plan.batches for a, s in b.samples.items()}
            hits += samples["d-top"] == ("s-hot",)
        assert abs(hits / n_plans - 0.9 / 1.5) < 0.03

    @settings(max_examples=150, deadline=None)
    @given(
        pool_freqs=st.lists(_FREQS, min_size=1, max_size=40),
        anchor_freqs=st.lists(_FREQS, min_size=1, max_size=12),
        k=st.integers(1, 6),
        batch_size=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # an all-zero candidate prefix with cut < k, zeros and ties at the cut
    @example(
        pool_freqs=[0, 0, 0, 5, 5], anchor_freqs=[0, 5, 10], k=4, batch_size=2, seed=3
    )
    # every candidate ties, so later draws step past drawn indices of equal weight
    @example(pool_freqs=[3] * 7, anchor_freqs=[3, 3], k=5, batch_size=2, seed=8)
    # cut == 0 and cut < k
    @example(pool_freqs=[25, 50], anchor_freqs=[10, 25], k=3, batch_size=1, seed=0)
    def test_samples_equal_integer_reference(self, pool_freqs, anchor_freqs, k, batch_size, seed):
        _assert_samples_match_reference(pool_freqs, anchor_freqs, k, batch_size, seed)

    def test_samples_equal_integer_reference_on_a_large_pool(self):
        # long prefixes, where the drawn indices sit far below the hit
        rng = np.random.default_rng(17)
        pool_freqs = np.where(rng.random(3000) < 0.2, 0, rng.integers(1, 500, 3000)).tolist()
        anchor_freqs = rng.integers(0, 500, 120).tolist()
        _assert_samples_match_reference(pool_freqs, anchor_freqs, k=5, batch_size=32, seed=99)

    @pytest.mark.parametrize("bad", [{"p0": 2**52, "p1": 2**52}, {"p0": 1.5, "p1": 2}])
    def test_unusable_frequencies_rejected(self, bad):
        catalog = ItemCatalog({"a": "A", "p0": "P0", "p1": "P1"})
        train = Corpus(catalog, (make_dialogue("d1", ["a"]),))
        table = _pop_table({"a": 1, **bad})
        pool = _pool({"s0": "p0", "s1": "p1"})
        with pytest.raises(AugmentError, match="2\\*\\*53|integers"):
            pop_nudge(train, pool, table, k=1, batch_size=1, seed=0)

    def test_order_and_cut_equal_the_popularity_order(
        self, standard_corpus, standard_pool, standard_table
    ):
        # with pop = freq / max_freq, sorting and cutting by frequency give
        # the candidate sets the popularity order gives
        freq, pops = standard_table.freq, standard_table.pop_of
        by_freq = sorted(standard_pool.item_of, key=lambda s: (freq[standard_pool.item_of[s]], s))
        by_pop = sorted(standard_pool.item_of, key=lambda s: (pops(standard_pool.item_of[s]), s))
        assert by_freq == by_pop
        freqs = [freq[standard_pool.item_of[s]] for s in by_freq]
        popularities = [pops(standard_pool.item_of[s]) for s in by_pop]
        for anchor in standard_corpus.split("train"):
            anchor_freq = max((freq[i] for i in anchor.item_ids()), default=0)
            assert bisect_right(freqs, anchor_freq) == bisect_right(
                popularities, anchor_popularity(anchor, standard_table)
            )

    def test_standard_plan_file_is_pinned(
        self, standard_corpus, standard_pool, standard_table, tmp_path
    ):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, 5, 32, seed=42)
        path = tmp_path / "plan.jsonl"
        save_plan(plan, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _STANDARD_PLAN_SHA256

    def test_originals_and_eval_splits_never_mutated(
        self, standard_corpus, standard_pool, standard_table
    ):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, 5, 32, seed=8)
        augmented = materialize_flat(plan, standard_corpus, standard_pool)
        by_id = augmented.by_id()
        for dialogue in standard_corpus.dialogues:
            assert by_id[dialogue.dialogue_id] == dialogue
        assert augmented.split("valid") == standard_corpus.split("valid")
        assert augmented.split("test") == standard_corpus.split("test")


class TestMaterialize:
    def test_flat_corpus_unions_each_appended_dialogue_once(self):
        train, pool, table = TestPopNudge()._small()
        plan = pop_nudge(train, pool, table, k=3, batch_size=1, seed=2)
        flat = materialize_flat(plan, train, pool)
        train_ids = [d.dialogue_id for d in flat.split("train")]
        assert len(train_ids) == len(set(train_ids))
        assert set(plan.appended_ids()) <= set(train_ids)

    def test_batch_stream_replays_plan(self):
        train, pool, table = TestPopNudge()._small()
        plan = pop_nudge(train, pool, table, k=2, batch_size=1, seed=2)
        batches = list(iter_batches(plan, train, pool))
        assert [b.index for b in batches] == [b.index for b in plan.batches]
        for materialized, planned in zip(batches, plan.batches):
            assert tuple(d.dialogue_id for d in materialized.anchors) == planned.anchor_ids
            assert tuple(d.dialogue_id for d in materialized.appended) == planned.appended_ids()

    def test_empty_plan_is_identity(self):
        train, pool, _ = TestPopNudge()._small()
        plan = AugmentationPlan(
            seed=0, k=1, batch_size=1, strategy="pop_nudge",
            pool_digest=pool_digest(pool), batches=(),
        )
        assert materialize_flat(plan, train, pool) == train

    def test_changed_pool_rejected(self):
        # same dialogue ids, one item changed: the plan's pool_digest no
        # longer matches, in both materializations
        train, pool, table = TestPopNudge()._small()
        plan = pop_nudge(train, pool, table, k=2, batch_size=1, seed=2)
        changed = _pool({"s-hot": "c", "s-warm": "e", "s-cold": "e"})
        assert set(changed.item_of) == set(pool.item_of)
        with pytest.raises(AugmentError, match="another pool"):
            materialize_flat(plan, train, changed)
        with pytest.raises(AugmentError, match="another pool"):
            iter_batches(plan, train, changed)

    def test_unknown_reference_rejected(self):
        train, pool, _ = TestPopNudge()._small()
        plan = AugmentationPlan(
            seed=0, k=1, batch_size=1, strategy="pop_nudge", pool_digest="x",
            batches=(PlanBatch(0, ("d-mid",), {"d-mid": ("nonexistent",)}),),
        )
        with pytest.raises(AugmentError, match="nonexistent"):
            materialize_flat(plan, train, pool)


class TestAudit:
    def test_clean_plan_passes(self, standard_corpus, standard_pool, standard_table):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, 5, 32, seed=3)
        assert audit_plan(plan, standard_corpus, standard_pool, standard_table) == []

    def test_tampered_plan_caught(self):
        train, pool, table = TestPopNudge()._small()
        plan = pop_nudge(train, pool, table, k=2, batch_size=2, seed=7)
        tampered_batches = []
        for batch in plan.batches:
            samples = dict(batch.samples)
            samples["d-mid"] = ("s-hot",)  # 0.9 > anchor pop 0.5
            tampered_batches.append(dataclasses.replace(batch, samples=samples))
        tampered = dataclasses.replace(plan, batches=tuple(tampered_batches))
        violations = audit_plan(tampered, train, pool, table)
        assert any("s-hot" in v for v in violations)


class TestPlanIO:
    def test_roundtrip(self, standard_corpus, standard_pool, standard_table, tmp_path):
        plan = pop_nudge(standard_corpus, standard_pool, standard_table, 2, 64, seed=21)
        path = tmp_path / "plan.jsonl"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_text('{"record": "batch", "index": 0, "anchors": [], "samples": {}}\n')
        with pytest.raises(AugmentError, match="header"):
            load_plan(path)

    HEADER = (
        b'{"record": "header", "seed": 1, "k": 1, "batch_size": 2, "strategy": "pop_nudge", '
        b'"pool_digest": "x"}\n'
    )
    BATCH = b'{"record": "batch", "index": 0, "anchors": ["d1"], "samples": {"d1": ["s1"]}}'

    def test_minimal_plan_loads(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER + self.BATCH + b"\n")
        plan = load_plan(path)
        assert (plan.seed, plan.k, plan.n_anchors_truncated) == (1, 1, 0)
        assert plan.batches == (PlanBatch(0, ("d1",), {"d1": ("s1",)}),)
        assert plan.format_version == 1  # a header without the field

    def test_format_version_2_loads(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER.replace(b"}", b', "format_version": 2}') + self.BATCH + b"\n")
        assert load_plan(path).format_version == 2

    def test_version_1_plan_roundtrips(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER + self.BATCH + b"\n")
        save_plan(load_plan(path), tmp_path / "again.jsonl")
        assert load_plan(tmp_path / "again.jsonl") == load_plan(path)

    @pytest.mark.parametrize(
        "value, message",
        [(b"3", "unsupported plan format_version 3"), (b'"2"', "plan field 'format_version'"),
         (b"true", "plan field 'format_version'"), (b"0", "unsupported plan format_version 0")],
    )
    def test_bad_format_version_names_path_and_line(self, tmp_path, value, message):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(
            self.HEADER.replace(b"}", b', "format_version": ' + value + b"}") + self.BATCH + b"\n"
        )
        with pytest.raises(AugmentError, match=r"plan\.jsonl:1: " + re.escape(message)):
            load_plan(path)

    @pytest.mark.parametrize(
        "line, error, message",
        [
            (b'{"record": "batch", "index": 0', CorpusError, "malformed record"),
            (b'{"record": "batch", "anchors": ["d\xff"]}', CorpusError, "malformed record"),
            (b'["batch"]', CorpusError, "record is not an object"),
            (BATCH.replace(b'"index": 0, ', b""), AugmentError, "plan record missing 'index'"),
            (BATCH.replace(b'"anchors": ["d1"], ', b""), AugmentError, "plan record missing 'anchors'"),
            (BATCH.replace(b', "samples": {"d1": ["s1"]}', b""), AugmentError,
             "plan record missing 'samples'"),
            (BATCH.replace(b'"index": 0', b'"index": "0"'), AugmentError, "plan field 'index'"),
            (BATCH.replace(b'"index": 0', b'"index": true'), AugmentError, "plan field 'index'"),
            (BATCH.replace(b'["d1"]', b"[1]"), AugmentError, "'anchors' must be an array of ids"),
            (BATCH.replace(b'["s1"]', b'"s1"'), AugmentError, "must be an array of ids"),
            (BATCH.replace(b'{"d1": ["s1"]}', b"[]"), AugmentError, "plan field 'samples'"),
            (HEADER.strip(), AugmentError, "second header record"),
            (b'{"record": "footer"}', AugmentError, "unknown plan record"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, error, message):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER + line + b"\n")
        with pytest.raises(error, match=r"plan\.jsonl:2: .*" + re.escape(message)):
            load_plan(path)

    def test_repeated_batch_index_rejected(self, tmp_path):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER + self.BATCH + b"\n" + self.BATCH + b"\n")
        with pytest.raises(AugmentError, match=r"plan\.jsonl:3: second batch with index 0"):
            load_plan(path)

    @pytest.mark.parametrize("field, value", [(b'"seed": 1', b'"seed": 1.0'), (b'"seed": 1, ', b"")])
    def test_bad_header_names_path_and_line(self, tmp_path, field, value):
        path = tmp_path / "plan.jsonl"
        path.write_bytes(self.HEADER.replace(field, value))
        with pytest.raises(AugmentError, match=r"plan\.jsonl:1: plan (field|record missing) 'seed'"):
            load_plan(path)


class TestLongtail:
    def test_identity_comparison(self, standard_corpus):
        report = longtail_report(standard_corpus, standard_corpus)
        assert report.rank_correlation == 1.0
        assert report.n_items_gained == 0
        assert report.max_frequency_drop == 0
        assert report.coverage_before == report.coverage_after

    def test_single_increment_weakly_raises_rank(self):
        catalog = ItemCatalog({"a": "A", "b": "B", "c": "C"})
        before = Corpus(
            catalog,
            (make_dialogue("d1", ["a"]), make_dialogue("d2", ["a"]), make_dialogue("d3", ["b"])),
        )
        extra = Dialogue(
            "s-b",
            (Turn("recommender", "@b", ("b",), ("b",)),),
            split="train",
            provenance="synthetic",
        )
        after = Corpus(catalog, before.dialogues + (extra,))
        report = longtail_report(before, after)
        assert report.freq_before == {"a": 2, "b": 1, "c": 0}
        assert report.freq_after == {"a": 2, "b": 2, "c": 0}
        assert report.max_frequency_drop <= 0
        assert report.curve_after == (2, 2, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=200))
    def test_spearman_equals_scipy_on_tied_integers(self, pairs):
        scipy_stats = pytest.importorskip("scipy.stats")
        x, y = (list(v) for v in zip(*pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant input warns
            expected = float(scipy_stats.spearmanr(x, y).statistic)
        got = spearman(x, y)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_spearman_constant_input_is_nan(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isnan(scipy_stats.spearmanr([2, 2, 2], [1, 3, 2]).statistic)
        assert math.isnan(spearman([2, 2, 2], [1, 3, 2]))

    def test_unchanged_frequencies_correlate_exactly_one(self):
        # x == y short-cuts to 1.0, even where the rank correlation is NaN
        catalog = ItemCatalog({"a": "A", "b": "B"})
        corpus = Corpus(catalog, (make_dialogue("d1", ["a"]), make_dialogue("d2", ["b"])))
        assert math.isnan(spearman([1, 1], [1, 1]))
        assert longtail_report(corpus, corpus).rank_correlation == 1.0

    def test_catalog_mismatch_rejected(self, standard_corpus):
        other = Corpus(ItemCatalog({"zz": "ZZ"}), (make_dialogue("d1", ["zz"]),))
        with pytest.raises(AugmentError, match="same catalog"):
            longtail_report(standard_corpus, other)

    def test_train_frequencies_ignore_other_splits(self):
        catalog = ItemCatalog({"a": "A"})
        corpus = Corpus(
            catalog,
            (make_dialogue("d1", ["a"], split="test"), make_dialogue("d2", ["a"])),
        )
        assert train_frequencies(corpus) == {"a": 1}


class TestAnchorPopularity:
    def test_max_over_items(self):
        table = _pop_table({"a": 3, "b": 9, "c": 10})
        assert anchor_popularity(make_dialogue("d", ["a", "b"]), table) == 0.9

    def test_no_items_is_zero(self):
        table = _pop_table({"a": 3})
        chat = Dialogue("d", (Turn("seeker", "hello"),))
        assert anchor_popularity(chat, table) == 0.0
