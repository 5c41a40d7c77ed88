from __future__ import annotations

import hashlib
import json
import math
import tempfile
from math import fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crs_bias.corpus import (
    Corpus, CorpusError, Dialogue, ItemCatalog, Turn, load_corpus, read_json_lines,
)
from crs_bias.metrics import (
    RankedRun,
    RunColumns,
    RunEntry,
    Skipped,
    cross_episode_popularity,
    evaluate_run,
    format_report_table,
    initial_item_coverage,
    intent_oriented_popularity,
    load_run,
    pearson,
    popularity_bias,
    popularity_coverage,
    rank_metrics,
    ranking_utility,
    save_report,
    load_report_records,
)
from crs_bias.popularity import ItemIndex, PopularityTable, ThresholdPolicy, build_popularity

from crs_bias import metrics as metrics_module

from helpers import (
    build_standard_corpus,
    reference_run_columns,
    run_columns_lists,
    scalar_report,
    standard_run,
)

# hand-derived reference values (natural log, 1-based ranks)
PI_ABC = 1.0 + 1.0 / (math.log(3) + 1.0)          # [a,b,c] with popular {a,c}
BIAS_ABC = PI_ABC * (2.0 / 3.0)
RHO_EXAMPLE = math.sqrt(3.0) / 2.0                 # pops [.8,.2,.4] vs [.6,.1,.5]


def _table(pop: dict[str, float], popular: set[str]) -> PopularityTable:
    return PopularityTable(
        freq={i: 0 for i in pop},
        pop=pop,
        popular_set=frozenset(popular),
        eta_policy=ThresholdPolicy.count_threshold(5),
    )


class TestCoverage:
    def test_small_fixture(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        assert initial_item_coverage(corpus) == 0.75

    def test_unknown_items_do_not_count(self):
        catalog = ItemCatalog({"a": "A", "b": "B"})
        turn = Turn("recommender", "@a @zz", mentioned_item_ids=("a", "zz"))
        corpus = Corpus(catalog, (Dialogue("d", (turn,)),))
        assert initial_item_coverage(corpus) == 0.5


class TestRankingUtility:
    def test_hand_example(self):
        value = ranking_utility(["a", "b", "c"], {"a", "c"})
        assert value == pytest.approx(PI_ABC, abs=1e-12)
        assert value == pytest.approx(1.47651, abs=5e-6)

    def test_no_popular_items(self):
        assert ranking_utility(["a", "b", "c"], {"z"}) == 0.0

    def test_single_popular_top_item(self):
        assert ranking_utility(["a"], {"a"}) == 1.0

    def test_empty_list(self):
        assert ranking_utility([], {"a"}) == 0.0

    def test_configurable_log_base(self):
        # rank 2 with base 2: 1/(log2(2)+1) = 1/2
        assert ranking_utility(["x", "a"], {"a"}, log_base=2.0) == pytest.approx(0.5)


class TestPopularityCoverageAndBias:
    def test_coverage_two_thirds(self):
        assert popularity_coverage(["a", "b", "c"], {"a", "c"}) == pytest.approx(2 / 3)

    def test_coverage_extremes(self):
        assert popularity_coverage(["a", "b"], {"a", "b"}) == 1.0
        assert popularity_coverage(["a", "b"], set()) == 0.0
        assert popularity_coverage([], {"a"}) == 0.0

    def test_bias_is_product(self):
        value = popularity_bias(["a", "b", "c"], {"a", "c"})
        assert value == pytest.approx(BIAS_ABC, abs=1e-12)
        assert value == pytest.approx(0.98434, abs=5e-6)

    def test_bias_none_popular(self):
        assert popularity_bias(["a", "b"], set()) == 0.0

    def test_bias_matches_bruteforce_on_small_lists(self):
        # exhaustive check at small scale; the full sweep runs in acceptance
        import itertools

        items = ["i1", "i2", "i3", "i4"]
        popular = {"i1", "i3"}
        for length in (1, 2, 3):
            for ranked in itertools.permutations(items, length):
                direct = fsum(
                    1.0 / (math.log(rank) + 1.0)
                    for rank, item in enumerate(ranked, start=1)
                    if item in popular
                ) * (sum(1 for i in ranked if i in popular) / len(ranked))
                assert popularity_bias(ranked, popular) == pytest.approx(direct, abs=1e-12)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_zero_variance_defined_as_zero(self):
        assert pearson([0.5, 0.5, 0.5], [1.0, 0.2, 0.3]) == 0.0
        assert pearson([1.0, 0.2, 0.3], [0.5, 0.5, 0.5]) == 0.0

    def test_hand_example(self):
        assert pearson([0.8, 0.2, 0.4], [0.6, 0.1, 0.5]) == pytest.approx(RHO_EXAMPLE, abs=1e-12)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])


class TestCrossEpisodePopularity:
    def _setup(self):
        table = _table(
            {"a": 0.8, "b": 0.2, "c": 0.4, "x": 0.6, "y": 0.1, "z": 0.5},
            popular={"a", "c"},
        )
        current = RunEntry("d", 4, 1, ("a", "b", "c"))
        previous = RunEntry("d", 1, 0, ("x", "y", "z"))
        return table, current, previous

    def test_hand_example(self):
        table, current, previous = self._setup()
        value = cross_episode_popularity(current, [previous], table)
        assert value == pytest.approx(BIAS_ABC * RHO_EXAMPLE, abs=1e-12)

    def test_zero_variance_previous_gives_zero(self):
        table = _table(
            {"a": 0.8, "b": 0.2, "c": 0.4, "x": 0.5, "y": 0.5, "z": 0.5},
            popular={"a", "c"},
        )
        current = RunEntry("d", 4, 1, ("a", "b", "c"))
        previous = RunEntry("d", 1, 0, ("x", "y", "z"))
        assert cross_episode_popularity(current, [previous], table) == 0.0

    def test_first_episode_skips(self):
        table, current, previous = self._setup()
        first = RunEntry("d", 1, 0, ("a", "b", "c"))
        result = cross_episode_popularity(first, [], table)
        assert result == Skipped("first_episode")

    def test_no_previous_entries_skips(self):
        table, current, _ = self._setup()
        assert cross_episode_popularity(current, [], table) == Skipped("no_previous_episode")

    def test_insufficient_overlap_skips(self):
        table, current, _ = self._setup()
        previous = RunEntry("d", 1, 0, ("x",))
        result = cross_episode_popularity(current, [previous], table)
        assert result == Skipped("insufficient_overlap")

    def test_uses_last_turn_of_previous_episode(self):
        table, current, _ = self._setup()
        early = RunEntry("d", 1, 0, ("x", "x2", "x3"))
        late = RunEntry("d", 3, 0, ("z", "z", "z")[:1] + ("y", "x"))  # (z, y, x)
        with_both = cross_episode_popularity(current, [early, late], table)
        with_late_only = cross_episode_popularity(current, [late], table)
        assert with_both == with_late_only

    def test_vectors_truncate_to_shorter(self):
        table, current, _ = self._setup()
        previous = RunEntry("d", 1, 0, ("x", "y"))
        value = cross_episode_popularity(current, [previous], table)
        rho = pearson([0.8, 0.2], [0.6, 0.1])
        expected = popularity_bias(("a", "b", "c"), table.popular_set) * abs(rho)
        assert value == pytest.approx(expected, abs=1e-12)


class TestIntentOrientedPopularity:
    def test_hand_example(self):
        table = _table({"a": 0.9, "b": 0.1, "c": 0.5, "t": 0.3}, popular={"a", "c"})
        entry = RunEntry("d", 1, 0, ("a", "b", "c"), ("t",))
        assert intent_oriented_popularity(entry, table) == pytest.approx(
            abs(0.3 - BIAS_ABC), abs=1e-12
        )

    def test_reduces_to_target_pop_when_no_popular_items(self):
        table = _table({"a": 0.0, "b": 0.0, "t": 0.3}, popular=set())
        entry = RunEntry("d", 1, 0, ("a", "b"), ("t",))
        assert intent_oriented_popularity(entry, table) == pytest.approx(0.3)

    def test_zero_when_target_pop_equals_bias(self):
        table = _table({"a": 1.0, "t": 1.0}, popular={"a"})
        entry = RunEntry("d", 1, 0, ("a",), ("t",))
        # pi*P for ["a"] with a popular = 1.0; pop(t) = 1.0
        assert intent_oriented_popularity(entry, table) == 0.0

    def test_multiple_targets_average(self):
        table = _table({"a": 0.8, "t1": 0.2, "t2": 0.9}, popular={"a"})
        entry = RunEntry("d", 1, 0, ("a",), ("t1", "t2"))
        bias = popularity_bias(("a",), table.popular_set)
        expected = (abs(0.2 - bias) + abs(0.9 - bias)) / 2
        assert intent_oriented_popularity(entry, table) == pytest.approx(expected, abs=1e-12)

    def test_no_targets_skips(self):
        table = _table({"a": 0.8}, popular={"a"})
        entry = RunEntry("d", 1, 0, ("a",))
        assert intent_oriented_popularity(entry, table) == Skipped("no_targets")


class TestRankMetrics:
    def test_hand_example_b_a(self):
        entry = RunEntry("d", 1, 0, ("b", "a"), ("a",))
        scores = rank_metrics(entry, cutoffs=(2,))
        assert scores["hit@2"] == 1.0
        assert scores["ndcg@2"] == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert scores["ndcg@2"] == pytest.approx(0.63093, abs=5e-6)
        assert scores["mrr@2"] == 0.5

    def test_ideal_ranking(self):
        entry = RunEntry("d", 1, 0, ("a", "b"), ("a",))
        scores = rank_metrics(entry, cutoffs=(10,))
        assert scores == {"hit@10": 1.0, "ndcg@10": 1.0, "mrr@10": 1.0}

    def test_target_outside_cutoff(self):
        entry = RunEntry("d", 1, 0, ("b", "c", "a"), ("a",))
        scores = rank_metrics(entry, cutoffs=(2,))
        assert scores == {"hit@2": 0.0, "ndcg@2": 0.0, "mrr@2": 0.0}

    def test_no_targets_skips(self):
        entry = RunEntry("d", 1, 0, ("a", "b"))
        assert rank_metrics(entry) == Skipped("no_targets")

    def test_multi_target_ndcg(self):
        entry = RunEntry("d", 1, 0, ("a", "b", "c"), ("a", "c"))
        scores = rank_metrics(entry, cutoffs=(3,))
        dcg = 1.0 + 1.0 / math.log2(4)
        idcg = 1.0 + 1.0 / math.log2(3)
        assert scores["ndcg@3"] == pytest.approx(dcg / idcg, abs=1e-12)
        assert scores["mrr@3"] == 1.0


class TestRunLoading:
    def test_load_run_fixture(self, data_dir):
        run = load_run(data_dir / "run_small.jsonl")
        assert run.model_name == "run_small"
        assert len(run.entries) == 3
        assert run.entries[0].ranked_item_ids == ("m2", "m1", "m4")

    def test_duplicate_ranked_items_rejected(self, tmp_path):
        path = tmp_path / "bad_run.jsonl"
        path.write_text(
            '{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, '
            '"ranked": ["a", "a"], "targets": []}\n'
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_run(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["d1", 0, 0]', "not an object"),
            ('"just a string"', "not an object"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": "ab", '
             '"targets": []}', "'ranked' must be an array"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": null, '
             '"targets": []}', "'ranked' must be an array"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": [], '
             '"targets": "m1"}', "'targets' must be an array"),
            ('{"dialogue_id": "d1", "turn_index": "x", "episode_index": 0, "ranked": [], '
             '"targets": []}', "'turn_index' must be a non-negative"),
            ('{"dialogue_id": "d1", "turn_index": 1.7, "episode_index": 0, "ranked": [], '
             '"targets": []}', "'turn_index' must be a non-negative"),
            ('{"dialogue_id": "d1", "turn_index": true, "episode_index": 0, "ranked": [], '
             '"targets": []}', "'turn_index' must be a non-negative"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": -1, "ranked": [], '
             '"targets": []}', "'episode_index' must be a non-negative"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 99999999999999999999, '
             '"ranked": [], "targets": []}', "'episode_index' must be a non-negative"),
            ('{"dialogue_id": null, "turn_index": 0, "episode_index": 0, "ranked": [], '
             '"targets": []}', "'dialogue_id' must be a string"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": ["m1", [2]], '
             '"targets": []}', "'ranked' item must be a string"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": [], '
             '"targets": [false]}', "'targets' item must be a string"),
            ('{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, "ranked": []}',
             "missing 'targets'"),
            ('{"dialogue_id": "d1", "turn_index": 0,', "malformed record"),
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad_run.jsonl"
        path.write_text(
            '{"dialogue_id": "d0", "turn_index": 0, "episode_index": 0, '
            '"ranked": ["m1"], "targets": []}\n\n' + line + "\n"
        )
        with pytest.raises(CorpusError, match=f"bad_run.jsonl:3: .*{message}"):
            load_run(path)

    def test_invalid_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "bytes_run.jsonl"
        # a bad byte far into the file still names its own line
        good = "".join(
            f'{{"dialogue_id": "d0", "turn_index": {t}, "episode_index": 0, "ranked": [], '
            f'"targets": []}}\n' for t in range(2000)
        )
        path.write_bytes(good.encode() + b'{"dialogue_id": "d\xff"}\n')
        with pytest.raises(CorpusError, match="bytes_run.jsonl:2001: malformed record: .*utf-8"):
            load_run(path)

    def test_duplicate_entry_names_second_line(self, tmp_path):
        path = tmp_path / "dup_run.jsonl"
        record = {"dialogue_id": "d1", "turn_index": 3, "episode_index": 1,
                  "ranked": ["m1"], "targets": []}
        other = dict(record, turn_index=1)
        path.write_text("\n".join(json.dumps(r) for r in (record, other, record)) + "\n")
        with pytest.raises(CorpusError, match=r"dup_run.jsonl:3: duplicate run entry \('d1', turn 3\)"):
            load_run(path)

    def test_integer_ids_read_as_strings(self, tmp_path):
        path = tmp_path / "int_run.jsonl"
        path.write_text(
            '{"dialogue_id": 7, "turn_index": 1, "episode_index": 0, '
            '"ranked": [12, "m1"], "targets": [12]}\n'
        )
        entry = load_run(path).entries[0]
        assert entry == RunEntry("7", 1, 0, ("12", "m1"), ("12",))

    def test_columns_intern_catalog_first_and_rebuild_entries(self, data_dir, tmp_path):
        items = ItemIndex(["m1", "m2", "m3", "m4"])
        path = tmp_path / "extra.jsonl"
        path.write_text(
            (data_dir / "run_small.jsonl").read_text()
            + '{"dialogue_id": "d2", "turn_index": 0, "episode_index": 0, '
            '"ranked": [], "targets": ["zz", "m4", "zz"]}\n'
        )
        run = load_run(path, items=items)
        assert isinstance(run.entries, RunColumns)
        assert items.ids == ["m1", "m2", "m3", "m4", "zz"]
        assert len(run.entries) == 4
        assert run.entries.ranks.shape == (4, 3)
        assert run.entries.ranks[2].tolist() == [2, 1, -1]
        assert run.entries[-1] == RunEntry("d2", 0, 0, (), ("zz", "m4", "zz"))
        assert list(run.entries)[:3] == [
            RunEntry("d1", 1, 0, ("m2", "m1", "m4"), ("m1",)),
            RunEntry("d1", 3, 1, ("m1", "m3", "m2"), ("m2",)),
            RunEntry("d2", 1, 0, ("m3", "m2"), ("m3",)),
        ]
        with pytest.raises(IndexError):
            run.entries[4]


# run-file lines for the loader/reference comparison: valid records, and
# records that break one rule each
LOADER_CATALOG = ["i0", "i1", "i2"]
LOADER_IDS = st.sampled_from(["i0", "i1", "i2", "n0", "n1", 12, "12", 7])
LOADER_FAULTS = st.one_of(
    st.tuples(st.sampled_from(["turn_index", "episode_index"]),
              st.sampled_from([-1, "x", 1.7, True, None, 2**63, 2**64, -2**70])),
    st.tuples(st.just("dialogue_id"), st.sampled_from([None, 1.5, False, ["d0"]])),
    st.tuples(st.sampled_from(["ranked", "targets"]), st.sampled_from(["ab", None, 3, {"i0": 1}])),
    st.tuples(st.sampled_from(["ranked+", "targets+"]), st.sampled_from([None, 1.5, True, [2], {}])),
    st.tuples(st.sampled_from(["ranked", "targets", "dialogue_id", "turn_index"]), st.just("missing")),
    st.tuples(st.just("line"), st.sampled_from(['{"dialogue_id": "d0",', "[1, 2]", '"text"'])),
)


@st.composite
def loader_lines(draw) -> list[str]:
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        record = {
            "dialogue_id": draw(st.sampled_from(["d0", "d1", 7, "7"])),
            "turn_index": draw(st.integers(0, 12)),
            "episode_index": draw(st.integers(0, 3)),
            "ranked": draw(st.lists(LOADER_IDS, max_size=5, unique=True)),
            "targets": draw(st.lists(LOADER_IDS, max_size=3)),
        }
        line = None
        if draw(st.integers(0, 7)) == 0:
            key, value = draw(LOADER_FAULTS)
            if key == "line":
                line = value
            elif value == "missing":
                del record[key]
            elif key.endswith("+"):
                ids = record[key[:-1]]
                ids.insert(draw(st.integers(0, len(ids))), value)
            else:
                record[key] = value
        lines.append(json.dumps(record) if line is None else line)
        if draw(st.integers(0, 9)) == 0:
            lines.append("   ")
    return lines


def _load_outcome(load, path: Path, items: ItemIndex):
    try:
        return load(path, items)
    except CorpusError as exc:
        return str(exc)


def _load_file(path: Path, items: ItemIndex):
    return run_columns_lists(load_run(path, items=items).entries)


def _reference_file(path: Path, items: ItemIndex):
    return reference_run_columns(read_json_lines(path), items, lambda n: f"{path}:{n}: ")


def _run_line(dialogue_id="d0", turn_index=1, ranked=("i0",), targets=()) -> str:
    return json.dumps({"dialogue_id": dialogue_id, "turn_index": turn_index,
                       "episode_index": 0, "ranked": list(ranked), "targets": list(targets)})


@settings(max_examples=300, deadline=None)
@given(lines=loader_lines(), bulk=st.sampled_from([0, 0, 300]), cut=st.integers(0, 12))
@example(  # a repeated key is named before a bad ranked id
    lines=[_run_line(), _run_line(ranked=("n0", None))], bulk=300, cut=2
)
@example(  # a ranked duplicate is named before a bad target
    lines=[_run_line(ranked=("n1", 12, "12"), targets=(1.5,))], bulk=0, cut=1
)
def test_run_loader_matches_a_per_record_reference(lines, bulk, cut):
    """The same columns, interning order and first error as loading one
    record at a time: behind ``bulk`` valid records, the drawn lines fall in
    the second run of 256; a second file shares the first one's index."""
    head = [
        json.dumps({"dialogue_id": "bulk", "turn_index": n, "episode_index": 0,
                    "ranked": [f"b{n % 7}", "i1"], "targets": [f"b{n % 5}"]})
        for n in range(bulk)
    ]
    cut = min(cut, len(lines))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        first.write_text("".join(line + "\n" for line in head + lines[:cut]))
        second.write_text("".join(line + "\n" for line in lines[cut:]))
        outcomes = []
        for load in (_load_file, _reference_file):
            items = ItemIndex(LOADER_CATALOG)
            outcome = [_load_outcome(load, first, items)]
            if not isinstance(outcome[0], str):
                outcome.append(_load_outcome(load, second, items))
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]

        if not isinstance(outcomes[0][0], str):  # the same entries as a tuple
            loaded = load_run(first, items=ItemIndex(LOADER_CATALOG))
            corpus = Corpus(ItemCatalog({i: i for i in LOADER_CATALOG}), ())
            built = run_columns_lists(
                metrics_module._run_columns(RankedRun("m", tuple(loaded.entries)), corpus)
            )
            from_file = run_columns_lists(loaded.entries)
            assert built.pop("lines") == list(range(len(loaded.entries)))
            from_file.pop("lines")
            assert built == from_file


# item ids for the columnar/scalar comparison: u0 is outside the catalog but
# in the popularity table, u1 is in neither
CATALOG_IDS = [f"i{n}" for n in range(7)]
TABLE_IDS = CATALOG_IDS + ["u0", "zz"]
RUN_IDS = CATALOG_IDS + ["u0", "u1"]
RAGGED_TURNS = 10

# sha256 of save_report(evaluate_run(standard_run(standard fixture))), computed
# with the per-entry scorer this columnar one replaced
_STANDARD_REPORT_SHA256 = "daa70d4e21a354317e560b48625fa598e6abb69b484f2a7871a68a55bcdc57fd"


class TestEvaluateRun:
    def _mini(self):
        catalog = ItemCatalog({"a": "A", "b": "B", "c": "C"})
        dialogue = Dialogue(
            "d",
            tuple(Turn("recommender" if i % 2 else "seeker", f"t{i}") for i in range(4)),
        )
        corpus = Corpus(catalog, (dialogue,))
        table = _table({"a": 1.0, "b": 0.5, "c": 0.2}, popular={"a", "c"})
        return corpus, table

    def test_mean_of_two_entries(self):
        corpus, table = self._mini()
        run = RankedRun(
            "m",
            (
                RunEntry("d", 1, 0, ("a", "b", "c")),
                RunEntry("d", 3, 0, ("b",)),
            ),
        )
        report = evaluate_run(run, corpus, table)
        assert report.metrics["pop_bias"].mean == pytest.approx(BIAS_ABC / 2, abs=1e-12)
        assert report.metrics["pop_bias"].mean == pytest.approx(0.49217, abs=5e-6)
        assert report.metrics["pop_bias"].n == 2

    def test_metrics_absent_when_never_scored(self):
        corpus, table = self._mini()
        run = RankedRun("m", (RunEntry("d", 1, 0, ("a", "b")),))
        report = evaluate_run(run, corpus, table)
        assert "pop_bias" in report.metrics
        assert "hit@10" not in report.metrics
        assert "uiop" not in report.metrics
        assert "cep" not in report.metrics

    def test_skip_accounting(self):
        corpus, table = self._mini()
        run = RankedRun(
            "m",
            (
                RunEntry("d", 1, 0, ("a", "b"), ("a",)),
                RunEntry("d", 3, 0, (), ("a",)),
            ),
        )
        report = evaluate_run(run, corpus, table)
        assert report.metrics["pop_bias"].n_skipped == 1
        assert report.metrics["pop_bias"].skip_reasons == {"empty_ranked_list": 1}
        # both entries are first-episode, so cep never scores and is absent
        assert "cep" not in report.metrics

    def test_deterministic(self):
        corpus, table = self._mini()
        run = RankedRun("m", (RunEntry("d", 1, 0, ("a", "c"), ("a",)),))
        assert evaluate_run(run, corpus, table) == evaluate_run(run, corpus, table)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(("d0", "d1")),
                st.integers(0, RAGGED_TURNS - 1),
                st.integers(0, 3),
                st.lists(st.sampled_from(RUN_IDS), max_size=12, unique=True).map(tuple),
                st.lists(st.sampled_from(RUN_IDS), max_size=4).map(tuple),
            ),
            max_size=30,
            unique_by=lambda e: (e[0], e[1]),
        ),
        pops=st.lists(st.floats(0.0, 1.0), min_size=len(TABLE_IDS), max_size=len(TABLE_IDS)),
        popular=st.lists(st.booleans(), min_size=len(TABLE_IDS), max_size=len(TABLE_IDS)),
        cutoffs=st.lists(st.integers(1, 16), min_size=1, max_size=3).map(tuple),
        log_base=st.sampled_from((math.e, 2.0, 10.0, 0.3)),
    )
    @example(  # one dialogue, several entries per episode, a missing episode 1
        entries=[("d0", 0, 0, ("i0", "i1"), ("i0", "i0")), ("d0", 2, 0, ("i2", "i1", "u1"), ()),
                 ("d0", 5, 2, ("i1", "i2", "i3"), ("u1",)), ("d0", 6, 1, (), ("i2",)),
                 ("d0", 7, 3, ("i0", "i3"), ("i3", "u0"))],
        pops=[0.9, 0.3, 0.3, 0.0, 0.1, 0.0, 0.2, 0.5, 0.7],
        popular=[True, False, True, False, False, False, False, True, True],
        cutoffs=(1, 16),
        log_base=math.e,
    )
    @example(  # four entries of episode 1 share one previous row, two of them one overlap
        entries=[("d0", 0, 0, ("i0", "i1", "i2", "i3"), ()), ("d0", 2, 0, ("i4", "i2", "i0", "u0"), ()),
                 ("d0", 3, 1, ("i1", "i0", "i5"), ("i1",)), ("d0", 4, 1, ("i3", "i6", "i2"), ()),
                 ("d0", 5, 1, ("i0", "i5", "i1", "i2", "u1"), ()), ("d0", 6, 1, ("i6", "i0"), ())],
        pops=[0.9, 0.3, 0.6, 0.05, 0.1, 0.0, 0.2, 0.5, 0.7],
        popular=[True, False, True, False, False, False, False, True, True],
        cutoffs=(3,),
        log_base=math.e,
    )
    @example(  # row d1/1 is the current list with overlap 3 and the previous one with 4 and 3
        entries=[("d1", 0, 0, ("i0", "i1", "i2"), ()), ("d1", 1, 1, ("i2", "i0", "i4", "i3", "i5"), ()),
                 ("d1", 2, 2, ("i3", "i4", "i0", "i1"), ("i0",)), ("d0", 1, 1, ("i5", "i1"), ()),
                 ("d0", 0, 0, ("i2", "i0", "i4", "i3", "i5"), ()), ("d1", 3, 2, ("i6", "i1", "i0"), ())],
        pops=[0.9, 0.3, 0.6, 0.05, 0.1, 0.0, 0.2, 0.5, 0.7],
        popular=[True, False, True, False, False, False, False, True, True],
        cutoffs=(2, 5),
        log_base=2.0,
    )
    def test_columnar_matches_scalar(self, entries, pops, popular, cutoffs, log_base):
        _assert_columnar_matches_scalar(entries, pops, popular, cutoffs, log_base)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(("d0", "d1")),
                st.integers(0, RAGGED_TURNS - 1),
                st.integers(0, 3),
                st.lists(st.sampled_from(RUN_IDS), max_size=12, unique=True).map(tuple),
                st.lists(st.sampled_from(RUN_IDS), max_size=4).map(tuple),
            ),
            max_size=30,
            unique_by=lambda e: (e[0], e[1]),
        ),
        freqs=st.lists(st.integers(0, 5_000), min_size=len(TABLE_IDS), max_size=len(TABLE_IDS)),
        popular=st.lists(st.booleans(), min_size=len(TABLE_IDS), max_size=len(TABLE_IDS)),
    )
    def test_columnar_matches_scalar_on_count_ratios(self, entries, freqs, popular):
        # popularity as build_popularity makes it: the exact row sums take the CEP means
        top = max(freqs)
        pops = [f / top if top else 0.0 for f in freqs]
        assert metrics_module._fixed_point(np.array(pops + [0.0]), 12) is not None
        _assert_columnar_matches_scalar(entries, pops, popular, (5,), math.e)

    def test_cep_means_outside_the_limbs_fall_back_to_fsum(self):
        pops = [1.0, 2.0**-40, 0.3, 0.7, 2.0**-45, 0.0, 0.55, 1e-12, 0.125]
        assert metrics_module._fixed_point(np.array(pops + [0.0]), 4) is None
        entries = [("d0", 0, 0, ("i0", "i1", "i2", "i3"), ()), ("d0", 1, 1, ("i4", "i1", "u0", "i6"), ()),
                   ("d0", 2, 1, ("i3", "i4", "i0"), ("i1",)), ("d0", 3, 2, ("i2", "i4", "i6", "i1"), ())]
        _assert_columnar_matches_scalar(entries, pops, [True] * len(TABLE_IDS), (2,), math.e)

    def test_long_lists_fall_back_to_fsum_exactly(self):
        # over 1,200-item lists, discounts with a log base just above 1 and
        # popularities spread over ~100 binary orders of magnitude are out of
        # the two-limb fixed-point range, so utility and CEP means use fsum
        ids = [f"i{n}" for n in range(1_300)]
        catalog = ItemCatalog({i: i for i in ids})
        turns = tuple(Turn("recommender", f"t{t}") for t in range(4))
        corpus = Corpus(catalog, (Dialogue("d", turns),))
        rng = np.random.default_rng(5)
        pop = {i: float(rng.random()) ** 8 for i in ids}
        table = PopularityTable(
            freq={i: 0 for i in ids}, pop=pop,
            popular_set=frozenset(i for i in ids if pop[i] > 0.4 ** 8),
            eta_policy=ThresholdPolicy.count_threshold(5),
        )
        log_base = 1.0 + 2.0**-30
        discounts = [1.0 / (math.log(r) / math.log(log_base) + 1.0) for r in range(1, 1_201)]
        for terms in (discounts, list(pop.values())):
            assert metrics_module._fixed_point(np.array(terms), 1_200) is None
        entries = tuple(
            RunEntry("d", t, t // 2, tuple(rng.choice(ids, size=1_200, replace=False)),
                     tuple(rng.choice(ids, size=1_100, replace=False)))
            for t in range(4)
        )
        run = RankedRun("long", entries)
        assert evaluate_run(run, corpus, table, cutoffs=(10, 1_200), log_base=log_base) == (
            scalar_report(run, table, log_base, cutoffs=(10, 1_200))
        )

    def test_loaded_run_matches_entry_tuple(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        loaded = load_run(data_dir / "run_small.jsonl")
        direct = RankedRun(loaded.model_name, tuple(loaded.entries))
        assert evaluate_run(loaded, corpus, table) == evaluate_run(direct, corpus, table)
        assert evaluate_run(loaded, corpus, table) == scalar_report(direct, table)

    def test_one_loaded_run_scored_at_two_cutoff_sets(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        loaded = load_run(data_dir / "run_small.jsonl")
        direct = RankedRun(loaded.model_name, tuple(loaded.entries))
        for cutoffs in ((1, 2), (3, 50)):
            report = evaluate_run(loaded, corpus, table, cutoffs=cutoffs)
            assert report == scalar_report(direct, table, cutoffs=cutoffs)
            assert [name for name in report.metrics if name.startswith("hit@")] == [
                f"hit@{k}" for k in cutoffs
            ]

    def test_report_bytes_pinned(self, tmp_path, standard_corpus, standard_table):
        report = evaluate_run(
            standard_run(standard_corpus), standard_corpus, standard_table, cutoffs=(5, 10, 20)
        )
        path = tmp_path / "standard.report.jsonl"
        save_report(report, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _STANDARD_REPORT_SHA256

    def test_cep_squares_with_python_pow(self):
        # with glibc's libm, squaring these deviations as d * d instead of
        # Python's ** 2 (libm pow) changes pearson in the last bit
        freq = dict(zip("abcdefgh", (1, 2, 27, 30, 34, 11, 7, 27)))
        table = _table({i: f / 34 for i, f in freq.items()}, popular={"c", "d", "e"})
        turns = (Turn("recommender", "t0"), Turn("recommender", "t1"))
        corpus = Corpus(ItemCatalog({i: i.upper() for i in freq}), (Dialogue("d", turns),))
        previous = RunEntry("d", 0, 0, ("e", "f", "g", "h"))
        current = RunEntry("d", 1, 1, ("a", "b", "c", "d"))
        report = evaluate_run(RankedRun("m", (previous, current)), corpus, table)
        assert report.metrics["cep"].mean == cross_episode_popularity(current, [previous], table)

    def test_duplicate_entries_rejected(self):
        corpus, table = self._mini()
        run = RankedRun("m", (RunEntry("d", 1, 0, ("a",)), RunEntry("d", 1, 0, ("b",))))
        with pytest.raises(CorpusError, match=r"duplicate run entry \('d', turn 1\)"):
            evaluate_run(run, corpus, table)

    def test_unknown_dialogue_listed(self):
        corpus, table = self._mini()
        run = RankedRun("m", (RunEntry("ghost", 0, 0, ("a",)),))
        with pytest.raises(CorpusError, match="ghost"):
            evaluate_run(run, corpus, table)

    def test_turn_index_out_of_range(self):
        corpus, table = self._mini()
        run = RankedRun("m", (RunEntry("d", 99, 0, ("a",)),))
        with pytest.raises(CorpusError, match="out of range"):
            evaluate_run(run, corpus, table)

    def test_episode_mismatch_against_segmentation(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        run = RankedRun("m", (RunEntry("d1", 3, 0, ("m1",)),))  # corpus says episode 1
        with pytest.raises(CorpusError, match="does not match"):
            evaluate_run(run, corpus, table)

    def test_cep_uses_run_entries_of_previous_episode(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        run = load_run(data_dir / "run_small.jsonl")
        report = evaluate_run(run, corpus, table)
        # only the d1/episode-1 entry can be scored; both episode-0 entries skip
        assert report.metrics["cep"].n == 1
        assert report.metrics["cep"].skip_reasons == {"first_episode": 2}
        cur = [table.pop_of(i) for i in ("m1", "m3", "m2")]
        prev = [table.pop_of(i) for i in ("m2", "m1", "m4")]
        expected = popularity_bias(("m1", "m3", "m2"), table.popular_set) * abs(pearson(cur, prev))
        assert report.metrics["cep"].mean == pytest.approx(expected, abs=1e-12)


class TestReportIO:
    def test_records_roundtrip(self, tmp_path, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        report = evaluate_run(load_run(data_dir / "run_small.jsonl"), corpus, table)
        path = tmp_path / "r.report.jsonl"
        save_report(report, path)
        records = load_report_records(path)
        assert {r["metric"] for r in records} == set(report.metrics)
        by_metric = {r["metric"]: r for r in records}
        assert by_metric["pop_bias"]["mean"] == report.metrics["pop_bias"].mean

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"model": "m", "metric": "pop_bias", "mean": 0.5', "malformed record"),
            ('[1, 2]', "not an object"),
            ('{"model": "m", "metric": "pop_bias", "mean": 0.5, "std": 0.0, "n": 1}',
             "missing 'n_skipped'"),
            ('{"metric": "pop_bias", "mean": 0.5, "std": 0.0, "n": 1, "n_skipped": 0}',
             "missing 'model'"),
            ('{"model": "m", "metric": "pop_bias", "mean": "high", "std": 0.0, "n": 1, '
             '"n_skipped": 0}', "'mean'"),
            ('{"model": "m", "metric": "pop_bias", "mean": 0.5, "std": 0.0, "n": 1.5, '
             '"n_skipped": 0}', "'n'"),
            ('{"model": "m", "metric": "pop_bias", "mean": 0.5, "std": 0.0, "n": 1, '
             '"n_skipped": 0, "skip_reasons": []}', "'skip_reasons'"),
        ],
    )
    def test_malformed_report_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "m.report.jsonl"
        good = {"model": "m", "metric": "cep", "mean": 0.1, "std": 0.0, "n": 1, "n_skipped": 0}
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=f"m.report.jsonl:2: .*{message}"):
            load_report_records(path)

    def test_table_formatting(self, data_dir):
        corpus, _ = load_corpus(data_dir / "corpus_small.jsonl", data_dir / "catalog_small.jsonl")
        table = build_popularity(corpus, ThresholdPolicy.count_threshold(1))
        report = evaluate_run(load_run(data_dir / "run_small.jsonl"), corpus, table)
        text = format_report_table([report])
        assert "pop_bias" in text
        assert "run_small" in text
        header, separator, *rows = text.splitlines()
        assert header.split() == ["model", "metric", "mean", "std", "n", "skipped"]
        assert set(separator) == {"-"}


def _assert_columnar_matches_scalar(entries, pops, popular, cutoffs, log_base) -> None:
    """``evaluate_run`` over a two-dialogue corpus equals ``scalar_report``,
    or both raise ``ZeroDivisionError``."""
    catalog = ItemCatalog({i: i.upper() for i in CATALOG_IDS})
    turns = tuple(Turn("recommender", f"t{t}") for t in range(RAGGED_TURNS))
    corpus = Corpus(catalog, (Dialogue("d0", turns), Dialogue("d1", turns)))
    table = PopularityTable(
        freq={i: 0 for i in TABLE_IDS},
        pop=dict(zip(TABLE_IDS, pops)),
        popular_set=frozenset(i for i, p in zip(TABLE_IDS, popular) if p),
        eta_policy=ThresholdPolicy.count_threshold(5),
    )
    run = RankedRun("m", tuple(RunEntry(*e) for e in entries))

    def outcome(evaluate):
        try:
            return evaluate(run, table, cutoffs=cutoffs, log_base=log_base)
        except ZeroDivisionError:  # pearson on an underflowed variance product
            return ZeroDivisionError

    columnar = outcome(lambda *a, **kw: evaluate_run(a[0], corpus, *a[1:], **kw))
    assert columnar == outcome(scalar_report)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 9),
    terms=st.one_of(
        # count ratios, the popularity build_popularity makes: the limbs hold them
        st.lists(st.integers(0, 10**6), min_size=1, max_size=12).map(
            lambda fs: [f / max(fs) if max(fs) else 0.0 for f in fs]
        ),
        # full 53-bit mantissas over 0-60 binary orders of magnitude: either side of the range
        st.lists(
            st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1), st.integers(-60, 0)),
            min_size=1, max_size=12,
        ),
        # any finite doubles: mostly out of the limbs' range
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
    ),
)
def test_exact_row_sums_equal_fsum(data, width, terms):
    rows = data.draw(st.integers(0, 5))
    mask = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=width, max_size=width), min_size=rows, max_size=rows
    )), dtype=bool).reshape(rows, width)
    codes = np.array(data.draw(st.lists(
        st.lists(st.integers(0, len(terms) - 1), min_size=width, max_size=width),
        min_size=rows, max_size=rows,
    )), dtype=np.int64).reshape(rows, width)

    def outcome(sums):  # == takes -0.0 for 0.0: fsum's sign of a zero sum varies by Python version
        try:
            return list(sums())
        except OverflowError:  # fsum of finite terms past the float range
            return OverflowError

    by_code = outcome(lambda: metrics_module._exact_row_sums(mask, terms, codes))
    assert by_code == outcome(lambda: [
        fsum(terms[c] for c, used in zip(row, used_row) if used)
        for row, used_row in zip(codes.tolist(), mask.tolist())
    ])
    if width <= len(terms):
        by_column = outcome(lambda: metrics_module._exact_row_sums(mask, terms))
        assert by_column == outcome(lambda: [
            fsum(t for t, used in zip(terms, used_row) if used) for used_row in mask.tolist()
        ])


def test_exact_row_sums_round_once_at_the_limb_bound():
    # exact sum 2**88 + m lies just above a rounding midpoint; a high limb past
    # 2**53 would round to even first, then drop the low limb's 1
    m = (1 << 52) | (1 << 35) | 1
    terms = [1.0, math.ldexp(m, -88)]
    sums = metrics_module._exact_row_sums(np.ones((1, 2), dtype=bool), terms)
    assert sums.tolist() == [fsum(terms)] == [math.ldexp((1 << 52) + (1 << 16) + 1, -52)]


# ---------------------------------------------------------------------------
# properties

ITEMS = [f"i{n}" for n in range(8)]
POPULAR = frozenset({"i0", "i2", "i5"})

ranked_lists = st.lists(st.sampled_from(ITEMS), max_size=8, unique=True).map(tuple)
target_lists = st.lists(st.sampled_from(ITEMS), max_size=3, unique=True).map(tuple)


@settings(max_examples=200)
@given(ranked=ranked_lists)
def test_property_utility_and_coverage_bounds(ranked):
    pi = ranking_utility(ranked, POPULAR)
    cov = popularity_coverage(ranked, POPULAR)
    assert pi >= 0.0
    assert 0.0 <= cov <= 1.0
    assert (pi == 0.0) == all(i not in POPULAR for i in ranked)


@settings(max_examples=200)
@given(ranked=ranked_lists, targets=target_lists)
def test_property_rank_metric_relations(ranked, targets):
    entry = RunEntry("d", 0, 0, ranked, targets)
    scores = rank_metrics(entry, cutoffs=(3, 8))
    if isinstance(scores, Skipped):
        assert not targets
        return
    for k in (3, 8):
        assert 0.0 <= scores[f"ndcg@{k}"] <= 1.0
        assert scores[f"mrr@{k}"] <= scores[f"hit@{k}"]
    for prefix in ("hit", "ndcg", "mrr"):
        assert scores[f"{prefix}@3"] <= scores[f"{prefix}@8"]


@settings(max_examples=200)
@given(ranked=ranked_lists, targets=target_lists)
def test_property_item_renaming_leaves_metrics_unchanged(ranked, targets):
    def rename(i: str) -> str:
        return f"{i}_renamed"

    renamed_popular = frozenset(rename(i) for i in POPULAR)
    assert ranking_utility(ranked, POPULAR) == ranking_utility(
        tuple(rename(i) for i in ranked), renamed_popular
    )
    entry = RunEntry("d", 0, 0, ranked, targets)
    renamed_entry = RunEntry(
        "d", 0, 0, tuple(rename(i) for i in ranked), tuple(rename(i) for i in targets)
    )
    assert rank_metrics(entry) == rank_metrics(renamed_entry)


@settings(max_examples=200)
@given(ranked=st.lists(st.sampled_from(ITEMS), min_size=1, max_size=8, unique=True).map(tuple),
       n_extra=st.integers(min_value=1, max_value=4))
def test_property_tail_of_unpopular_items_dilutes_coverage(ranked, n_extra):
    extra = tuple(f"pad{n}" for n in range(n_extra))
    padded = ranked + extra
    assert ranking_utility(padded, POPULAR) == ranking_utility(ranked, POPULAR)
    before = popularity_coverage(ranked, POPULAR)
    after = popularity_coverage(padded, POPULAR)
    if before > 0.0:
        assert after < before
    else:
        assert after == 0.0
