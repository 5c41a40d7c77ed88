from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crs_bias.corpus import Corpus, Dialogue, ItemCatalog, Turn
from crs_bias.popularity import (
    ItemIndex,
    ThresholdPolicy,
    build_popularity,
    item_coverage,
    popular_item_ratio,
    save_table,
    train_frequencies,
)

from helpers import make_dialogue


def _corpus_with_counts(counts: dict[str, int], extra_items: tuple[str, ...] = ()) -> Corpus:
    catalog = ItemCatalog({i: i.upper() for i in list(counts) + list(extra_items)})
    dialogues = []
    n = 0
    for item, count in counts.items():
        for _ in range(count):
            dialogues.append(make_dialogue(f"d{n:04d}", [item]))
            n += 1
    return Corpus(catalog, tuple(dialogues))


class TestBuild:
    def test_max_normalization(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert table.freq == {"a": 10, "b": 5, "c": 2, "d": 0}
        assert table.pop == {"a": 1.0, "b": 0.5, "c": 0.2, "d": 0.0}

    def test_count_threshold_is_strict(self, freq_corpus):
        # freq must exceed the threshold: b sits exactly at 5 and stays out
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert table.popular_set == {"a"}

    def test_quantile_top_fraction(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.quantile(0.25))
        assert table.popular_set == {"a"}

    def test_quantile_includes_boundary_ties(self):
        corpus = _corpus_with_counts({"a": 10, "b": 10, "c": 2}, extra_items=("d",))
        table = build_popularity(corpus, ThresholdPolicy.quantile(0.25))
        assert table.popular_set == {"a", "b"}

    def test_quantile_of_one_covers_catalog(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.quantile(1.0))
        assert table.popular_set == {"a", "b", "c", "d"}

    @pytest.mark.parametrize(
        "policy", [ThresholdPolicy.count_threshold(5), ThresholdPolicy.quantile(0.25)]
    )
    def test_empty_training_split_yields_zero_table(self, policy):
        catalog = ItemCatalog({"a": "A", "b": "B"})
        corpus = Corpus(catalog, (make_dialogue("t1", ["a"], split="test"),))
        table = build_popularity(corpus, policy)
        assert table.freq == {"a": 0, "b": 0}
        assert table.pop == {"a": 0.0, "b": 0.0}
        assert table.popular_set == frozenset()

    def test_item_counts_once_per_turn_even_as_mention_and_target(self):
        catalog = ItemCatalog({"a": "A"})
        turn = Turn("recommender", "take @a", mentioned_item_ids=("a",), target_item_ids=("a",))
        corpus = Corpus(catalog, (Dialogue("d1", (Turn("seeker", "hi"), turn)),))
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(5))
        assert table.freq["a"] == 1

    def test_unknown_items_not_tabulated(self):
        catalog = ItemCatalog({"a": "A"})
        turn = Turn("recommender", "@a @zz", mentioned_item_ids=("a", "zz"))
        corpus = Corpus(catalog, (Dialogue("d1", (turn,)),))
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        assert set(table.freq) == {"a"}

    def test_order_independent(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        reversed_corpus = Corpus(freq_corpus.catalog, tuple(reversed(freq_corpus.dialogues)))
        assert build_popularity(reversed_corpus, ThresholdPolicy.count_threshold(5)) == table

    def test_pop_of_unknown_is_zero(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert table.pop_of("nope") == 0.0


class TestPolicy:
    def test_min_count_validated(self):
        with pytest.raises(ValueError, match="min_count"):
            ThresholdPolicy.count_threshold(0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_top_fraction_validated(self, fraction):
        with pytest.raises(ValueError, match="top_fraction"):
            ThresholdPolicy.quantile(fraction)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            ThresholdPolicy(kind="zipf")


class TestRatioAndProperties:
    def test_popular_item_ratio_fixture(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert popular_item_ratio(table, freq_corpus.catalog) == 0.25

    @settings(max_examples=100)
    @given(
        counts=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.integers(min_value=0, max_value=20),
            min_size=1,
        ),
        low=st.integers(min_value=1, max_value=10),
        bump=st.integers(min_value=0, max_value=10),
    )
    def test_popular_set_monotone_in_threshold(self, counts, low, bump):
        corpus = _corpus_with_counts(counts)
        small = build_popularity(corpus, ThresholdPolicy.count_threshold(low))
        large = build_popularity(corpus, ThresholdPolicy.count_threshold(low + bump))
        assert large.popular_set <= small.popular_set

    @settings(max_examples=100)
    @given(
        counts=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=20),
            min_size=1,
        )
    )
    def test_pop_values_in_unit_interval_and_argmax_at_one(self, counts):
        corpus = _corpus_with_counts(counts)
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        assert all(0.0 <= p <= 1.0 for p in table.pop.values())
        max_freq = max(table.freq.values())
        if max_freq > 0:
            attains_one = {i for i, p in table.pop.items() if p == 1.0}
            assert attains_one == {i for i, f in table.freq.items() if f == max_freq}


class TestExport:
    def test_table_export_records(self, freq_corpus, tmp_path):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        out = tmp_path / "pop.jsonl"
        save_table(table, out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert {r["item_id"]: r["freq"] for r in records} == table.freq
        assert [r["is_popular"] for r in records if r["item_id"] == "a"] == [True]


class TestFrequencyCount:
    def test_table_uses_the_shared_count(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert table.freq == train_frequencies(freq_corpus) == {"a": 10, "b": 5, "c": 2, "d": 0}

    def test_coverage_counts_items_with_frequency(self, freq_corpus):
        assert item_coverage(train_frequencies(freq_corpus)) == 0.75
        assert item_coverage({"a": 0, "b": 0}) == 0.0


class TestItemIndex:
    def test_catalog_first_then_unknown_in_first_seen_order(self):
        index = ItemIndex(["a", "b"])
        assert [index.intern(i) for i in ("zz", "b", "yy", "zz")] == [2, 1, 3, 2]
        assert index.ids == ["a", "b", "zz", "yy"]
        assert len(index) == 4

    def test_table_arrays_follow_the_index(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        index = ItemIndex(["d", "a", "unknown"])
        pop, popular = table.arrays(index)
        assert pop.tolist() == [0.0, 1.0, 0.0]
        assert popular.tolist() == [False, True, False]
