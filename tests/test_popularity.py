from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crs_bias.corpus import _ENCODER, Corpus, Dialogue, ItemCatalog, Turn
from crs_bias.popularity import (
    ItemIndex,
    ThresholdPolicy,
    build_popularity,
    item_coverage,
    popular_item_ratio,
    save_table,
    train_counts,
)

from helpers import count_table, make_dialogue


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
        assert table.items.ids == ["a", "b", "c", "d"]
        assert table.counts.tolist() == [10, 5, 2, 0]
        assert table.pop.tolist() == [1.0, 0.5, 0.2, 0.0]

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
        assert table.counts.tolist() == [0, 0]
        assert table.pop.tolist() == [0.0, 0.0]
        assert table.popular.tolist() == [False, False]
        assert table.popular_set == frozenset()

    def test_item_counts_once_per_turn_even_as_mention_and_target(self):
        catalog = ItemCatalog({"a": "A"})
        turn = Turn("recommender", "take @a", mentioned_item_ids=("a",), target_item_ids=("a",))
        corpus = Corpus(catalog, (Dialogue("d1", (Turn("seeker", "hi"), turn)),))
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(5))
        assert table.counts.tolist() == [1]

    def test_unknown_items_not_tabulated(self):
        catalog = ItemCatalog({"a": "A"})
        turn = Turn("recommender", "@a @zz", mentioned_item_ids=("a", "zz"))
        corpus = Corpus(catalog, (Dialogue("d1", (turn,)),))
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        assert table.items.ids == ["a"]
        assert table.gather(ItemIndex(["zz", "a"]))[0].tolist() == [0, 1, 0]

    def test_order_independent(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        rows = list(reversed(range(len(freq_corpus.columns))))
        reversed_corpus = Corpus.from_columns(freq_corpus.catalog, freq_corpus.columns.take(rows))
        other = build_popularity(reversed_corpus, ThresholdPolicy.count_threshold(5))
        assert other.items.ids == table.items.ids
        assert np.array_equal(other.counts, table.counts)
        assert np.array_equal(other.popular, table.popular)

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
        assert popular_item_ratio(table) == 0.25

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
        pop, freq = table.pop.tolist(), table.counts.tolist()
        assert all(0.0 <= p <= 1.0 for p in pop)
        max_freq = max(freq)
        if max_freq > 0:
            attains_one = {i for i, p in zip(table.items.ids, pop) if p == 1.0}
            assert attains_one == {i for i, f in zip(table.items.ids, freq) if f == max_freq}


class TestExport:
    def test_table_export_records(self, freq_corpus, tmp_path):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        out = tmp_path / "pop.jsonl"
        save_table(table, out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["item_id"] for r in records] == table.items.ids
        assert [r["freq"] for r in records] == table.counts.tolist()
        assert [r["pop"] for r in records] == table.pop.tolist()
        assert [r["is_popular"] for r in records if r["item_id"] == "a"] == [True]

    @pytest.mark.parametrize("counts", [
        {"a": 7, "é\u2028": 3, 'q"\\\n\x00': 0, "m": 2**40, "🎬": 0},
        {"a": 0, "ß": 0},
    ], ids=["escaped-ids", "all-zero"])
    def test_table_lines_are_the_encoder_text(self, tmp_path, counts):
        table = count_table(counts, popular={"a", "m"})
        out = tmp_path / "pop.jsonl"
        save_table(table, out)
        records = zip(table.items.ids, table.counts.tolist(), table.pop.tolist(), table.popular.tolist())
        assert out.read_text(encoding="utf-8") == "".join(
            _ENCODER.encode({"item_id": i, "freq": f, "pop": p, "is_popular": b}) + "\n"
            for i, f, p, b in records
        )


class TestFrequencyCount:
    def test_table_uses_the_shared_count(self, freq_corpus):
        table = build_popularity(freq_corpus, ThresholdPolicy.count_threshold(5))
        assert table.counts.tolist() == train_counts(freq_corpus).tolist() == [10, 5, 2, 0]

    def test_coverage_counts_items_with_frequency(self, freq_corpus):
        assert item_coverage(train_counts(freq_corpus)) == 0.75
        assert item_coverage(np.array([0, 0])) == 0.0


class TestItemIndex:
    def test_catalog_first_then_unknown_in_first_seen_order(self):
        index = ItemIndex(["a", "b"])
        assert [index.intern(i) for i in ("zz", "b", "yy", "zz")] == [2, 1, 3, 2]
        assert index.ids == ["a", "b", "zz", "yy"]
        assert len(index) == 4

    @pytest.mark.parametrize("order", ["by_hand", "corpus_index", "reversed_catalog"])
    def test_table_gather_follows_the_index(self, order):
        # the freq_corpus counts, plus a test-split dialogue whose unknown ids
        # the corpus's own index appends after the catalog
        catalog = ItemCatalog({i: i.upper() for i in "abcd"})
        dialogues = [make_dialogue(f"d{n:02d}", [i]) for n, i in enumerate("a" * 10 + "b" * 5 + "cc")]
        dialogues.append(make_dialogue("u", ["zz", "a", "yy"], split="test"))
        corpus = Corpus(catalog, tuple(dialogues))
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(5))
        index = {
            "by_hand": ItemIndex(["d", "a", "unknown"]),
            "corpus_index": corpus.columns.items,
            "reversed_catalog": ItemIndex(["zz", *reversed(catalog.items)]),
        }[order]
        if order == "corpus_index":
            assert index.ids == ["a", "b", "c", "d", "zz", "yy"]
        freq = {"a": 10, "b": 5, "c": 2, "d": 0}
        counts, pop, popular = table.gather(index)
        # one trailing slot, read by padding code -1, as an item outside the catalog
        assert counts.tolist() == [freq.get(i, 0) for i in index.ids] + [0]
        assert pop.tolist() == [freq.get(i, 0) / 10 for i in index.ids] + [0.0]
        assert popular.tolist() == [i == "a" for i in index.ids] + [False]
        top = table.counts.max()
        for code, item in enumerate(table.items.ids):
            assert table.pop_of(item) == table.counts[code] / top
        assert table.popular_set == {i for i, p in zip(table.items.ids, table.popular) if p}
