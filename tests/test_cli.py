from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import inspect
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import requests
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crs_bias import augment as aug
from crs_bias import cli
from crs_bias import synthgen
from crs_bias.cli import main
from crs_bias.config import ConfigError, RunConfig, _redact, load_config
from crs_bias.augment import MaterializedBatch
from crs_bias.corpus import Dialogue, DialogueColumns, Turn
from crs_bias.corpus import load_corpus, segment_corpus, write_lines
from crs_bias.metrics import BiasReport, RunEntry, evaluate_run, format_report_table, load_run
from crs_bias.metrics import load_report_records, save_report
from crs_bias.popularity import ItemIndex, ThresholdPolicy, build_popularity
from crs_bias.synthgen import HttpChatBackend, OfflineTemplateBackend, build_pool

from helpers import FakeResponse, MALFORMED_REPLIES, SURROGATE_REPLY

DATA = Path(__file__).parent / "data"
GOOD_TURN = b'{"speaker": "seeker", "text": "hi", "items": [], "targets": []}'


def write_config(path: Path, **overrides) -> Path:
    config = {
        "paths": {
            "corpus": str(DATA / "corpus_small.jsonl"),
            "catalog": str(DATA / "catalog_small.jsonl"),
            "output_dir": str(path.parent / "out"),
        },
        "popularity": {"eta": {"kind": "count_threshold", "min_count": 5}},
        "seed": 1234,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path.write_text(yaml.safe_dump(config))
    return path


def snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestStats:
    def test_stats_on_small_fixture(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        assert main(["stats", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "IIC: 75.00%" in out
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["iic"] == 0.75
        assert stats["dialogues"] == {"train": 2, "valid": 0, "test": 1}
        assert (tmp_path / "out" / "config_echo.json").exists()

    def test_missing_catalog_names_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.yaml",
            paths={
                "corpus": str(DATA / "corpus_small.jsonl"),
                "catalog": str(tmp_path / "nope.jsonl"),
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["stats", "--config", str(config)]) == 2
        assert "paths.catalog" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["stats", "--config", str(tmp_path / "ghost.yaml")]) == 2
        assert "config" in capsys.readouterr().err

    def test_stats_outputs_are_pinned(self, tmp_path):
        # as written by the text-mode loader the per-line reader replaced
        config = write_config(tmp_path / "config.yaml")
        assert main(["stats", "--config", str(config)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("stats.json", "popularity.jsonl")
        }
        assert digests == {
            "stats.json": "2db8c929339e67294448f735cfa1cbcf10c2d44762567a026298fbbcee6392df",
            "popularity.jsonl": "c05a52e27e028a42f46f72753c65653edc9b273f9b35854d684fcbd7d7ea76f0",
        }

    @pytest.mark.parametrize(
        "line",
        [
            b'{"dialogue_id": "d4", "split": "train", "turns": [5]}',
            b'{"dialogue_id": "d4", "split": "train", "turns": [' + GOOD_TURN + b'], "episodes": ["x"]}',
            b'{"dialogue_id": "d4", "split": "train", "turns": [' + GOOD_TURN + b'], "episodes": 5}',
            b'{"dialogue_id": "d4", "split": "train", "turns": ['
            + GOOD_TURN.replace(b'"seeker"', b"5") + b"]}",
            b'{"dialogue_id": "d4", "split": "train", "turns": ['
            + GOOD_TURN.replace(b'"items": []', b'"items": "ab"') + b"]}",
            b'{"dialogue_id": "d\xff", "split": "train", "turns": [' + GOOD_TURN + b"]}",
            b'{"dialogue_id": "d4", "split": "train", "turns": ['
            + GOOD_TURN.replace(b'"hi"', b'"hi \\ud800"') + b"]}",
        ],
    )
    def test_malformed_corpus_line_exits_2_with_path_line(self, tmp_path, capsys, line):
        corpus = tmp_path / "bad_corpus.jsonl"
        corpus.write_bytes((DATA / "corpus_small.jsonl").read_bytes() + line + b"\n")
        config = write_config(tmp_path / "config.yaml", paths={"corpus": str(corpus)})
        assert main(["stats", "--config", str(config)]) == 2
        assert "bad_corpus.jsonl:4: " in capsys.readouterr().err

    def test_output_in_the_way_names_the_destination(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        (tmp_path / "out" / "stats.json").mkdir(parents=True)
        assert main(["stats", "--config", str(config)]) == 2
        destination = tmp_path / "out" / "stats.json"
        assert capsys.readouterr().err == (
            f"input error: [Errno {errno.EISDIR}] Is a directory: '{destination}'\n"
        )
        assert not [p for p in (tmp_path / "out").iterdir() if p.name.endswith(".tmp")]

    def test_catalog_ids_equal_after_normalizing_exit_2(self, tmp_path, capsys):
        catalog = tmp_path / "bad_catalog.jsonl"
        catalog.write_text('{"item_id": "7", "name": "A"}\n{"item_id": 7, "name": "B"}\n')
        config = write_config(tmp_path / "config.yaml", paths={"catalog": str(catalog)})
        assert main(["stats", "--config", str(config)]) == 2
        assert "bad_catalog.jsonl:2: duplicate item_id '7'" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"seed": "abc"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": -1}, "seed"),
            ({"generation": {"max_attempts": "x"}}, "generation.max_attempts"),
            ({"generation": {"max_attempts": 0}}, "generation.max_attempts"),
            ({"generation": {"concurrency": -3}}, "generation.concurrency"),
            ({"generation": {"concurrency": 2.0}}, "generation.concurrency"),
            ({"augment": {"k": False}}, "augment.k"),
            ({"augment": {"batch_size": "32"}}, "augment.batch_size"),
            ({"metrics": {"cutoffs": [1.5, 50]}}, "metrics.cutoffs"),
            ({"metrics": {"cutoffs": [True]}}, "metrics.cutoffs"),
            ({"metrics": {"cutoffs": [10, 0]}}, "metrics.cutoffs"),
            ({"metrics": {"cutoffs": 10}}, "metrics.cutoffs"),
            ({"metrics": {"cutoffs": []}}, "metrics.cutoffs"),
            ({"popularity": {"eta": {"min_count": 2.7}}}, "popularity.eta.min_count"),
            ({"popularity": {"eta": {"min_count": "5"}}}, "popularity.eta.min_count"),
            ({"popularity": {"eta": {"min_count": 0}}}, "popularity.eta.min_count"),
            ({"popularity": {"eta": {"kind": "quantile", "top_fraction": "0.5"}}},
             "popularity.eta.top_fraction"),
            ({"popularity": {"eta": {"kind": "quantile", "top_fraction": True}}},
             "popularity.eta.top_fraction"),
            ({"generation": {"http": {"timeout": "30"}}}, "generation.http.timeout"),
            ({"generation": {"http": {"timeout": True}}}, "generation.http.timeout"),
            ({"generation": {"http": {"timeout": -5}}}, "generation.http.timeout"),
            ({"generation": {"http": {"timeout": 0}}}, "generation.http.timeout"),
            ({"generation": {"http": {"timeout": float("inf")}}}, "generation.http.timeout"),
            ({"generation": {"http": {"timeout": 10**400}}}, "generation.http.timeout"),
            ({"generation": {"items": True}}, "generation.items"),
            ({"generation": {"items": 5}}, "generation.items"),
            ({"generation": {"items": "m1"}}, "generation.items"),
            ({"generation": {"items": []}}, "generation.items"),
            ({"generation": {"items": ["m1", True]}}, "generation.items"),
            ({"generation": {"items": ["m1", 1.5]}}, "generation.items"),
            ({"generation": {"items": ["m1", "m2", "m1"]}}, "generation.items"),
            ({"generation": {"language": 5}}, "generation.language"),
            ({"generation": {"language": "fr"}}, "generation.language"),
            ({"generation": {"language": ["en"]}}, "generation.language"),
            ({"metrics": {"log_base": "10"}}, "metrics.log_base"),
            ({"metrics": {"log_base": True}}, "metrics.log_base"),
            ({"metrics": {"log_base": [10]}}, "metrics.log_base"),
            ({"generation": {"http": {"base_url": 5}}}, "generation.http.base_url"),
            ({"generation": {"http": {"base_url": ["a"]}}}, "generation.http.base_url"),
            ({"generation": {"http": {"base_url": ""}}}, "generation.http.base_url"),
            ({"generation": {"http": {"base_url": "llm.example/v1"}}}, "generation.http.base_url"),
            ({"generation": {"http": {"base_url": "ftp://llm.example"}}}, "generation.http.base_url"),
            ({"generation": {"http": {"model": ["x"]}}}, "generation.http.model"),
            ({"generation": {"http": {"model": 5}}}, "generation.http.model"),
            ({"generation": {"http": {"token_env": 5}}}, "generation.http.token_env"),
            ({"generation": {"http": {"token_env": ""}}}, "generation.http.token_env"),
            ({"generation": {"http": {"token_env": None}}}, "generation.http.token_env"),
        ],
    )
    def test_bad_integer_fields_exit_2(self, tmp_path, capsys, overrides, field):
        config = write_config(tmp_path / "config.yaml", **overrides)
        assert main(["generate", "--config", str(config)]) == 2
        assert f"config error: {field} must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lone_surrogate_in_catalog_name_exits_2(self, tmp_path, capsys):
        catalog = tmp_path / "bad_catalog.jsonl"
        catalog.write_bytes(
            (DATA / "catalog_small.jsonl").read_bytes() + b'{"item_id": "m5", "name": "A\\udfff"}\n'
        )
        config = write_config(tmp_path / "config.yaml", paths={"catalog": str(catalog)})
        assert main(["generate", "--config", str(config)]) == 2
        assert "bad_catalog.jsonl:5: malformed record: lone surrogate" in capsys.readouterr().err

    def test_offline_generate_writes_pool(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        assert main(["generate", "--config", str(config)]) == 0
        pool_lines = (tmp_path / "out" / "pool.jsonl").read_text().splitlines()
        assert len(pool_lines) == 4  # one dialogue per catalog item
        log = json.loads((tmp_path / "out" / "generation_log.json").read_text())
        assert log["n_accepted"] == 4 and log["n_skipped"] == 0
        assert log["pool_format"] == 3
        assert log["attempts"] == 4 and log["rejected"] == {}

    def test_generation_log_counts_rejected_rows(self, tmp_path, monkeypatch):
        rounds = []

        class FirstRoundRejectsTwo(OfflineTemplateBackend):
            def generate_batch(self, template, items, seeds):
                rounds.append(len(items))
                texts = super().generate_batch(template, items, seeds)
                return ["no speakers" if len(rounds) == 1 and i in ("m1", "m3") else text
                        for (i, _), text in zip(items, texts)]

        monkeypatch.setattr(synthgen, "OfflineTemplateBackend", FirstRoundRejectsTwo)
        config = write_config(tmp_path / "config.yaml")
        assert main(["generate", "--config", str(config)]) == 0
        log = json.loads((tmp_path / "out" / "generation_log.json").read_text())
        assert log == {
            "attempts": 6,
            "backend": "offline_template",
            "n_accepted": 4,
            "n_items": 4,
            "n_skipped": 0,
            "pool_format": 3,
            "rejected": {"no_speaker_prefixes": 2},
            "skipped": [],
            "template_id": "redial_en",
        }
        assert rounds == [4, 2]

    def test_items_subset_with_integer_ids(self, tmp_path):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text('{"item_id": 7, "name": "Heat"}\n{"item_id": "m2", "name": "Alien"}\n')
        config = write_config(
            tmp_path / "config.yaml", paths={"catalog": str(catalog)}, generation={"items": [7]}
        )
        assert main(["generate", "--config", str(config)]) == 0
        pool = (tmp_path / "out" / "pool.jsonl").read_text().splitlines()
        assert [json.loads(line)["dialogue_id"] for line in pool] == ["syn-7"]

    def test_generate_requires_seed(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml", seed=None)
        assert main(["generate", "--config", str(config)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_rerun_same_seed_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        assert main(["generate", "--config", str(config)]) == 0
        first = snapshot(tmp_path / "out")
        assert main(["generate", "--config", str(config)]) == 0
        assert snapshot(tmp_path / "out") == first

    def test_http_backend_without_token_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CRSBIAS_LLM_TOKEN", raising=False)
        config = write_config(
            tmp_path / "config.yaml",
            generation={
                "backend": "http_chat",
                "http": {"base_url": "https://llm.example/v1", "model": "chat-1"},
            },
        )
        assert main(["generate", "--config", str(config)]) == 3
        assert "backend error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"only_one_word\nRecommend {item_name}.\n", "header must be"),
            (b"t1 en extra\nRecommend {item_name}.\n", "header must be"),
            (b"t1 fr\nRecommend {item_name}.\n", "unsupported template language 'fr'"),
            (b"t1 en\nRecommend something.\n", "exactly one {item_name}"),
            (b"", "empty template file"),
            (b"t1 en\nRecommend \xff{item_name}.\n", "can't decode"),
            (None, "Is a directory"),
        ],
    )
    def test_malformed_template_exits_2(self, tmp_path, capsys, content, message):
        template = tmp_path / "template.txt"
        if content is None:
            template.mkdir()
        else:
            template.write_bytes(content)
        config = write_config(tmp_path / "config.yaml", generation={"template": str(template)})
        assert main(["generate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: generation.template {template}: ")
        assert message in err
        assert not (tmp_path / "out" / "pool.jsonl").exists()

    def test_empty_catalog_name_skipped_with_http_backend(self, tmp_path, monkeypatch):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text('{"item_id": "m1", "name": "Heat"}\n{"item_id": "m2", "name": ""}\n')
        sent = []

        def fake_post(url, json=None, headers=None, timeout=None):
            prompt = json["messages"][1]["content"]
            if "Heat" not in prompt:
                raise AssertionError("the item with an empty name was sent")
            sent.append(prompt)
            return FakeResponse(content="User: hi\nSystem: watch Heat")

        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(requests, "post", fake_post)
        config = write_config(
            tmp_path / "config.yaml",
            paths={"catalog": str(catalog)},
            generation={
                "backend": "http_chat",
                "http": {"base_url": "http://127.0.0.1:9", "model": "chat-1"},
            },
        )
        assert main(["generate", "--config", str(config)]) == 0
        assert len(sent) == 1
        log = json.loads((tmp_path / "out" / "generation_log.json").read_text())
        assert log["skipped"] == [{"item_id": "m2", "reason": "item_name_not_found"}]
        assert log["n_accepted"] == 1 and log["attempts"] == 1

    def test_invalid_request_exits_3(self, tmp_path, capsys, monkeypatch):
        def fake_post(*args, **kwargs):
            raise requests.exceptions.InvalidURL("bad host")

        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(requests, "post", fake_post)
        config = write_config(
            tmp_path / "config.yaml",
            generation={
                "backend": "http_chat",
                "http": {"base_url": "http://[bad", "model": "chat-1"},
            },
        )
        assert main(["generate", "--config", str(config)]) == 3
        assert "backend error: request failed: InvalidURL" in capsys.readouterr().err

    def _http_config(self, tmp_path, monkeypatch, replies) -> Path:
        """A config for ``http_chat`` over the one-item catalog ``Alien``,
        whose requests are answered by ``replies`` in turn."""
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text('{"item_id": "m1", "name": "Alien"}\n')
        monkeypatch.setenv("CRSBIAS_LLM_TOKEN", "t")
        monkeypatch.setattr(requests, "post", lambda *a, **k: replies.pop(0))
        return write_config(
            tmp_path / "config.yaml",
            paths={"catalog": str(catalog)},
            generation={
                "backend": "http_chat",
                "max_attempts": 2,
                "http": {"base_url": "http://127.0.0.1:9", "model": "chat-1"},
            },
        )

    @pytest.mark.parametrize("body", MALFORMED_REPLIES)
    def test_malformed_reply_exits_3_without_a_pool(self, tmp_path, capsys, monkeypatch, body):
        config = self._http_config(tmp_path, monkeypatch, [FakeResponse(body=body)])
        assert main(["generate", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith("backend error: malformed backend response: ")
        assert not (tmp_path / "out" / "pool.jsonl").exists()

    def test_lone_surrogate_reply_is_a_counted_rejection(self, tmp_path, monkeypatch):
        replies = [FakeResponse(body=SURROGATE_REPLY), FakeResponse()]
        config = self._http_config(tmp_path, monkeypatch, replies)
        assert main(["generate", "--config", str(config)]) == 0
        log = json.loads((tmp_path / "out" / "generation_log.json").read_text())
        assert log["rejected"] == {"invalid_text": 1}
        assert log["attempts"] == 2 and log["n_accepted"] == 1 and log["skipped"] == []
        assert "watch @m1." in (tmp_path / "out" / "pool.jsonl").read_text(encoding="utf-8")

    def test_unknown_items_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml", generation={"items": ["m1", "zz"]})
        assert main(["generate", "--config", str(config)]) == 2
        assert "zz" in capsys.readouterr().err

    @pytest.fixture()
    def backend_calls(self, monkeypatch) -> list:
        """The rounds sent to any backend; a call also fails the command."""
        calls = []

        def generate_batch(self, template, items, seeds):
            calls.append(items)
            raise AssertionError("the backend was called")

        for backend in (OfflineTemplateBackend, HttpChatBackend):
            monkeypatch.setattr(backend, "generate_batch", generate_batch)
        return calls

    @pytest.mark.parametrize("overrides, message", [
        ({"generation": {"items": ["m1", "zz"]}}, "generation.items: unknown item ids ['zz']"),
        ({"generation": {"template": "missing.txt"}}, "generation.template: no such file: "),
        ({"generation": {"backend": "http_chat"}},
         "generation.http.base_url and generation.http.model are required"),
        ({"paths": {"pool": "missing/pool.jsonl"}}, "paths.pool: no such directory: "),
    ])
    def test_config_errors_come_before_output_and_generation(
        self, tmp_path, capsys, backend_calls, overrides, message
    ):
        config = write_config(tmp_path / "config.yaml", **overrides)
        assert main(["generate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()
        assert backend_calls == []

    def test_pool_directory_checked_against_the_output_dir_flag(
        self, tmp_path, capsys, backend_calls
    ):
        # the pool goes into out/, which only exists as the output directory
        config = write_config(tmp_path / "config.yaml", paths={"pool": "out/pool.jsonl"})
        elsewhere = tmp_path / "elsewhere"
        assert main(["generate", "--config", str(config), "--output-dir", str(elsewhere)]) == 2
        missing = tmp_path / "out"
        assert capsys.readouterr().err == f"config error: paths.pool: no such directory: {missing}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]
        assert backend_calls == []

    def test_pool_in_an_existing_directory(self, tmp_path):
        (tmp_path / "pools").mkdir()
        config = write_config(tmp_path / "config.yaml", paths={"pool": "pools/pool.jsonl"})
        assert main(["generate", "--config", str(config)]) == 0
        # the column snapshot goes beside the pool, and no temp file is left
        assert sorted(os.listdir(tmp_path / "pools")) == ["pool.jsonl", "pool.jsonl.cols"]
        assert sorted(os.listdir(tmp_path / "out")) == ["config_echo.json", "generation_log.json"]

    def test_unwritable_pool_names_the_pool_not_its_temp_file(self, tmp_path, capsys):
        # the pool's name fits in a directory entry; its longer temp file name does not
        pool = tmp_path / ("p" * 245 + ".jsonl")
        config = write_config(tmp_path / "config.yaml", paths={"pool": str(pool)})
        assert main(["generate", "--config", str(config)]) == 2
        too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
        assert capsys.readouterr().err == f"input error: {too_long}: '{pool}'\n"
        assert not pool.exists()


@pytest.fixture()
def workspace_with_pool(request, tmp_path) -> Path:
    """A config whose ``paths.pool`` is a pool ``generate`` wrote, moved out
    of the output directory alone, or with its column snapshot when the
    fixture is parametrized with ``"with snapshot"``."""
    config = write_config(tmp_path / "config.yaml")
    assert main(["generate", "--config", str(config)]) == 0
    pool = tmp_path / "pool.jsonl"
    shutil.move(tmp_path / "out" / "pool.jsonl", pool)
    if getattr(request, "param", None) == "with snapshot":
        shutil.move(tmp_path / "out" / "pool.jsonl.cols", tmp_path / "pool.jsonl.cols")
    shutil.rmtree(tmp_path / "out")
    write_config(
        tmp_path / "config.yaml",
        paths={
            "corpus": str(DATA / "corpus_small.jsonl"),
            "catalog": str(DATA / "catalog_small.jsonl"),
            "pool": str(pool),
            "output_dir": str(tmp_path / "out"),
        },
        augment={"strategy": "pop_nudge", "k": 1, "batch_size": 2},
    )
    return tmp_path / "config.yaml"


@pytest.mark.parametrize("command", ["stats", "augment", "evaluate"])
def test_input_error_leaves_no_output(workspace_with_pool, capsys, command):
    root = workspace_with_pool.parent
    corpus = root / "bad_corpus.jsonl"
    corpus.write_text('{"dialogue_id": "x"}\n')
    config = yaml.safe_load(workspace_with_pool.read_text())
    config["paths"].update(corpus=str(corpus), runs=[str(DATA / "run_small.jsonl")])
    workspace_with_pool.write_text(yaml.safe_dump(config))
    assert main([command, "--config", str(workspace_with_pool)]) == 2
    assert capsys.readouterr().err == f"input error: {corpus}:1: record missing 'split'\n"
    assert not (root / "out").exists()  # nor, for stats, a corpus.cols


class TestAugment:
    @pytest.mark.parametrize("flags", [[], ["--output-dir", "flagged"]])
    def test_augment_reads_the_pool_where_generate_wrote_it(self, tmp_path, monkeypatch, flags):
        # paths.pool unset: both commands use pool.jsonl in the output directory
        config = str(write_config(tmp_path / "config.yaml"))
        monkeypatch.chdir(tmp_path)
        read = []
        load_pool = aug.load_pool
        monkeypatch.setattr(aug, "load_pool",
                            lambda path, **kw: read.append(path) or load_pool(path, **kw))
        out = tmp_path / ("flagged" if flags else "out")
        assert main(["generate", "--config", config, *flags]) == 0
        assert main(["augment", "--config", config, "--strategy", "once_aug", *flags]) == 0
        assert [path.resolve() for path in read] == [(out / "pool.jsonl").resolve()]
        if flags:
            assert not (tmp_path / "out").exists()

    def test_augment_without_the_default_pool_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        assert main(["augment", "--config", str(config)]) == 2
        pool = tmp_path / "out" / "pool.jsonl"
        assert capsys.readouterr().err == f"config error: paths.pool: no such file: {pool}\n"
        assert not (tmp_path / "out").exists()

    def test_once_aug_full_coverage(self, workspace_with_pool, capsys):
        assert main(["augment", "--config", str(workspace_with_pool), "--strategy", "once_aug"]) == 0
        out = capsys.readouterr().out
        assert "-> 100.00%" in out
        summary = json.loads(
            (workspace_with_pool.parent / "out" / "augment_summary.json").read_text()
        )
        assert summary["iic_after"] == 1.0
        assert summary["strategy"] == "once_aug"

    def test_pop_nudge_writes_plan_and_corpus(self, workspace_with_pool):
        assert main(["augment", "--config", str(workspace_with_pool)]) == 0
        out = workspace_with_pool.parent / "out"
        assert (out / "plan.jsonl").exists()
        assert (out / "augmented_corpus.jsonl").exists()
        summary = json.loads((out / "augment_summary.json").read_text())
        assert summary["k"] == 1
        assert summary["max_frequency_drop"] <= 0

    def test_k_override_and_coverage_monotone(self, workspace_with_pool):
        out = workspace_with_pool.parent / "out"
        coverages = {}
        for k in (1, 5):
            assert main(["augment", "--config", str(workspace_with_pool), "--k", str(k)]) == 0
            summary = json.loads((out / "augment_summary.json").read_text())
            assert summary["k"] == k
            coverages[k] = summary["iic_after"]
        assert coverages[5] >= coverages[1]

    def test_same_config_twice_identical_outputs(self, workspace_with_pool):
        assert main(["augment", "--config", str(workspace_with_pool)]) == 0
        first = snapshot(workspace_with_pool.parent / "out")
        assert main(["augment", "--config", str(workspace_with_pool)]) == 0
        assert snapshot(workspace_with_pool.parent / "out") == first

    def test_augment_requires_seed(self, workspace_with_pool, capsys):
        config = yaml.safe_load(workspace_with_pool.read_text())
        config["seed"] = None
        workspace_with_pool.write_text(yaml.safe_dump(config))
        assert main(["augment", "--config", str(workspace_with_pool)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_lone_surrogate_in_corpus_exits_2(self, workspace_with_pool, capsys):
        corpus = workspace_with_pool.parent / "bad_corpus.jsonl"
        corpus.write_bytes(
            (DATA / "corpus_small.jsonl").read_bytes()
            + b'{"dialogue_id": "d4", "split": "train", "turns": ['
            + GOOD_TURN.replace(b'"hi"', b'"\\ud800 hi"') + b"]}\n"
        )
        config = yaml.safe_load(workspace_with_pool.read_text())
        config["paths"]["corpus"] = str(corpus)
        workspace_with_pool.write_text(yaml.safe_dump(config))
        assert main(["augment", "--config", str(workspace_with_pool)]) == 2
        assert "bad_corpus.jsonl:4: malformed record: lone surrogate" in capsys.readouterr().err

    def test_pool_rule_error_exits_2_with_path_line(self, workspace_with_pool, capsys):
        pool = Path(yaml.safe_load(workspace_with_pool.read_text())["paths"]["pool"])
        lines = pool.read_text().splitlines()
        lines[1] = lines[1].replace('"provenance": "synthetic"', '"provenance": "original"')
        pool.write_text("\n".join(lines) + "\n")
        assert main(["augment", "--config", str(workspace_with_pool)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {pool}:2: pool dialogue " in err and "is not synthetic" in err

    @pytest.mark.parametrize("workspace_with_pool", ["with snapshot"], indirect=True)
    def test_pool_edited_after_generate_exits_2_with_path_line(self, workspace_with_pool, capsys):
        # the snapshot no longer matches the pool file, which is read instead
        self.test_pool_rule_error_exits_2_with_path_line(workspace_with_pool, capsys)

    def test_plan_from_another_pool_exits_2(self, workspace_with_pool, capsys, monkeypatch):
        pop_nudge = aug.pop_nudge
        monkeypatch.setattr(
            aug, "pop_nudge",
            lambda *a, **k: dataclasses.replace(pop_nudge(*a, **k), pool_digest="0" * 64),
        )
        assert main(["augment", "--config", str(workspace_with_pool)]) == 2
        assert "input error: plan was drawn from another pool" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, digests", [("pop_nudge", 1), ("once_aug", 0)])
    def test_pool_hashed_at_most_once(self, workspace_with_pool, monkeypatch, strategy, digests):
        import crs_bias.augment as augment_module

        calls = []
        pool_digest = augment_module.pool_digest
        monkeypatch.setattr(
            augment_module, "pool_digest", lambda pool: calls.append(1) or pool_digest(pool)
        )
        assert main(["augment", "--config", str(workspace_with_pool), "--strategy", strategy]) == 0
        assert len(calls) == digests

    def test_failed_corpus_write_keeps_previous_corpus(self, workspace_with_pool, monkeypatch):
        import crs_bias.corpus as corpus_module

        out = workspace_with_pool.parent / "out"
        assert main(["augment", "--config", str(workspace_with_pool)]) == 0
        before = snapshot(out)
        dialogue_line = corpus_module._dialogue_line
        written = []

        def failing_line(*parts):
            written.append(parts)
            if len(written) == 3:
                raise RuntimeError("disk full")
            return dialogue_line(*parts)

        monkeypatch.setattr(corpus_module, "_dialogue_line", failing_line)
        with pytest.raises(RuntimeError, match="disk full"):
            main(["augment", "--config", str(workspace_with_pool), "--k", "3"])
        assert snapshot(out)["augmented_corpus.jsonl"] == before["augmented_corpus.jsonl"]
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    pinned = pytest.mark.parametrize("strategy, digests", [
        ("pop_nudge", {
            "augment_summary.json": "48c46e7b63133da82e118f278389f6ed8f93b60885f59619508c835b24ff41da",
            "augmented_corpus.jsonl": "5971d9d7666ffa8b94c43732fe934f4d5df18ba1e696980fcfb8257dfcd32609",
            "plan.jsonl": "a706ffaccd48be587910304768bbeccb4b01f0240a63e016d654715278fb9a55",
        }),
        ("once_aug", {
            "augment_summary.json": "def130cace53c3880e014a35b5a61a5544dfc7d143729015d4765d2049efa087",
            "augmented_corpus.jsonl": "222a8e029a09ab61f8a9e95abba2b98bd00723d1403b604cb16f66bca4448d63",
        }),
    ])

    @pinned
    def test_augment_outputs_are_pinned(self, workspace_with_pool, strategy, digests):
        # as written by the per-dialogue loaders the columnar store replaced
        assert main(["augment", "--config", str(workspace_with_pool), "--strategy", strategy]) == 0
        out = workspace_with_pool.parent / "out"
        written = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in snapshot(out).items() if name != "config_echo.json"
        }
        assert written == digests

    @pytest.mark.parametrize("workspace_with_pool", ["with snapshot"], indirect=True)
    @pinned
    def test_augment_outputs_from_the_snapshot_are_pinned(
        self, workspace_with_pool, strategy, digests, monkeypatch
    ):
        def unread(path, items):
            raise AssertionError(f"{path} was parsed, not read from its snapshot")

        monkeypatch.setattr(aug, "load_dialogues", unread)
        self.test_augment_outputs_are_pinned(workspace_with_pool, strategy, digests)

    def test_failed_audit_exits_4(self, workspace_with_pool, capsys, monkeypatch):
        monkeypatch.setattr(aug, "audit_plan", lambda *a, **k: ["forced violation"])
        assert main(["augment", "--config", str(workspace_with_pool)]) == 4
        assert "invariant violation" in capsys.readouterr().err

    def test_undefined_rank_correlation_is_written_as_null(self, tmp_path, capsys):
        # no training turn names an item: the frequencies before augmenting
        # are constant, so the rank correlation is undefined (NaN)
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text("".join(
            json.dumps({"item_id": f"m{i}", "name": name}) + "\n"
            for i, name in enumerate(("Alpha", "Beta", "Gamma"), start=1)
        ))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"dialogue_id": "d1", "split": "train", "turns": [
            {"speaker": "seeker", "text": "Anything good?", "items": [], "targets": []},
            {"speaker": "recommender", "text": "Not today.", "items": [], "targets": []},
        ]}) + "\n")
        config = write_config(
            tmp_path / "config.yaml",
            paths={"corpus": str(corpus), "catalog": str(catalog)},
            augment={"strategy": "once_aug"},
        )
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["augment", "--config", str(config)]) == 0
        assert "long-tail rank correlation: nan" in capsys.readouterr().out

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "out" / "augment_summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["rank_correlation"] is None
        assert (summary["iic_before"], summary["iic_after"]) == (0.0, 1.0)


class TestCorpusSnapshot:
    """``stats`` writes ``corpus.cols`` into the output directory; ``augment``
    and ``evaluate`` read it in place of the corpus file while the two match."""

    # after the bundled corpus: a blank line, then a dialogue with non-ASCII
    # text, an unknown integer id and no episode indices
    EXTRA = (b'\n{"dialogue_id": "d4", "split": "train", "turns": [{"speaker": "seeker", '
             b'"text": "\xe6\x9c\x89\xe4\xbb\x80\xe4\xb9\x88\xe5\xa5\xbd\xe7\x94\xb5\xe5\xbd\xb1\xef\xbc\x9f", '
             b'"items": [], "targets": []}, {"speaker": "recommender", "text": "@m2 \xe6\x88\x96 @9", '
             b'"items": ["m2", 9], "targets": ["m2"]}]}\n')

    @pytest.fixture()
    def config(self, tmp_path) -> Path:
        """A config over a copy of the corpus and catalog, with a pool and a
        run; ``generate`` and ``stats`` have run."""
        (tmp_path / "corpus.jsonl").write_bytes((DATA / "corpus_small.jsonl").read_bytes() + self.EXTRA)
        shutil.copy(DATA / "catalog_small.jsonl", tmp_path / "catalog.jsonl")
        config = write_config(
            tmp_path / "config.yaml",
            paths={"corpus": str(tmp_path / "corpus.jsonl"), "catalog": str(tmp_path / "catalog.jsonl"),
                   "runs": [str(DATA / "run_small.jsonl")]},
            augment={"strategy": "pop_nudge", "k": 1, "batch_size": 2},
        )
        for command in ("generate", "stats"):
            assert main([command, "--config", str(config)]) == 0
        return config

    @staticmethod
    def _outputs(config: Path) -> dict[str, bytes]:
        """The output directory after ``augment`` and ``evaluate``, less the
        config echo and the corpus snapshot."""
        for command in ("augment", "evaluate"):
            assert main([command, "--config", str(config)]) == 0
        return {name: data for name, data in snapshot(config.parent / "out").items()
                if name not in ("config_echo.json", "corpus.cols")}

    @pytest.fixture()
    def parsed(self, monkeypatch):
        """The corpus files ``load_corpus`` parses as JSON."""
        import crs_bias.corpus as corpus_module

        calls = []
        load_dialogues = corpus_module.load_dialogues
        monkeypatch.setattr(corpus_module, "load_dialogues",
                            lambda path, *a: calls.append(Path(path).name) or load_dialogues(path, *a))
        return calls

    def test_stats_writes_the_same_snapshot_twice(self, config):
        out = config.parent / "out"
        first = (out / "corpus.cols").read_bytes()
        assert hashlib.sha256(first).hexdigest() == (
            "c46f39665c40f90b267fa54a35ee5b626530994bc329f00c94ec28af41e63ea4"
        )
        (out / "corpus.cols").unlink()
        assert main(["stats", "--config", str(config)]) == 0
        assert (out / "corpus.cols").read_bytes() == first

    def test_stats_never_reads_the_snapshot(self, config, monkeypatch, parsed):
        import crs_bias.corpus as corpus_module

        def unread(*args):
            raise AssertionError("stats read a snapshot")

        monkeypatch.setattr(corpus_module, "read_snapshot", unread)
        assert main(["stats", "--config", str(config)]) == 0
        assert parsed == ["corpus.jsonl"]

    def test_augment_and_evaluate_read_the_snapshot(self, config, parsed):
        from_snapshot = self._outputs(config)
        assert parsed == []
        assert {"augmented_corpus.jsonl", "plan.jsonl", "run_small.report.jsonl"} < set(from_snapshot)
        (config.parent / "out" / "corpus.cols").unlink()
        assert self._outputs(config) == from_snapshot
        assert parsed == ["corpus.jsonl", "corpus.jsonl"]

    def test_catalog_edited_after_stats(self, config, parsed):
        # one item fewer and one more, in another order: the snapshot holds no
        # catalog, so its ids are interned into the edited one
        catalog = config.parent / "catalog.jsonl"
        lines = catalog.read_text().splitlines()
        catalog.write_text("\n".join([lines[2], '{"item_id": "9", "name": "Nine"}', lines[0],
                                      lines[1]]) + "\n")
        from_snapshot = self._outputs(config)
        assert parsed == []
        (config.parent / "out" / "corpus.cols").unlink()
        assert self._outputs(config) == from_snapshot

    @pytest.mark.parametrize("command", ["augment", "evaluate"])
    def test_corpus_line_broken_after_stats_exits_2_with_path_line(self, config, capsys, command):
        corpus = config.parent / "corpus.jsonl"
        corpus.write_text(corpus.read_text().replace('"split": "test"', '"split": "dev"'))
        assert main([command, "--config", str(config)]) == 2
        assert f"input error: {corpus}:3: dialogue 'd3': unknown split 'dev'" in capsys.readouterr().err


class TestEvaluate:
    def _config_with_runs(self, tmp_path, run_paths) -> Path:
        return write_config(
            tmp_path / "config.yaml",
            paths={
                "corpus": str(DATA / "corpus_small.jsonl"),
                "catalog": str(DATA / "catalog_small.jsonl"),
                "runs": [str(p) for p in run_paths],
                "output_dir": str(tmp_path / "out"),
            },
            popularity={"eta": {"kind": "count_threshold", "min_count": 1}},
        )

    def test_two_runs_two_reports_shared_table(self, tmp_path, capsys):
        second = tmp_path / "model_b.jsonl"
        shutil.copy(DATA / "run_small.jsonl", second)
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl", second])
        assert main(["evaluate", "--config", str(config)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "run_small.report.jsonl").exists()
        assert (out_dir / "model_b.report.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "run_small" in stdout and "model_b" in stdout
        records = [
            json.loads(line)
            for line in (out_dir / "run_small.report.jsonl").read_text().splitlines()
        ]
        cep = [r for r in records if r["metric"] == "cep"][0]
        assert cep["skip_reasons"] == {"first_episode": 2}

    # as written by the per-dialogue loaders the columnar store replaced;
    # less report_format 2, the report records equal format 1's
    # (model_b 39004cd2…, run_small 32a490fc…)
    PINNED_REPORTS = {
        "model_b.report.jsonl": "f2babea57cef949c7fbf0f873f57b64d9156d090991825023a686919cc23fb5d",
        "report_table.txt": "214d4e607047830bdb23d652c27357ae88cf0656d216bc01586fa20ecfe48d20",
        "run_small.report.jsonl": "dc9d1f4fd270d17aaea5334cb5d9b6aa6b3cf6cbb7ae6ae098988cc0c70fbf32",
    }

    def _two_runs(self, tmp_path) -> Path:
        second = tmp_path / "model_b.jsonl"
        shutil.copy(DATA / "run_small.jsonl", second)
        return self._config_with_runs(tmp_path, [DATA / "run_small.jsonl", second])

    def test_evaluate_outputs_are_pinned(self, tmp_path):
        config = self._two_runs(tmp_path)
        assert main(["evaluate", "--config", str(config)]) == 0
        written = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in snapshot(tmp_path / "out").items() if name != "config_echo.json"
        }
        assert written == self.PINNED_REPORTS

    @pytest.mark.parametrize("from_snapshot", [False, True], ids=["parsed", "corpus_cols"])
    def test_evaluate_decodes_no_text(self, tmp_path, monkeypatch, from_snapshot):
        # no metric reads a turn text: with the one accessor that decodes
        # texts made to raise, evaluate writes the pinned reports, from the
        # corpus file or from the corpus.cols that stats wrote
        import crs_bias.corpus as corpus_module

        config = self._two_runs(tmp_path)
        if from_snapshot:
            assert main(["stats", "--config", str(config)]) == 0

            def unread(*args):
                raise AssertionError("the corpus was parsed, not read from corpus.cols")

            monkeypatch.setattr(corpus_module, "load_dialogues", unread)

        def decode(*args):
            raise AssertionError("evaluate decoded a turn text")

        monkeypatch.setattr(DialogueColumns, "turn_texts", decode)
        assert main(["evaluate", "--config", str(config)]) == 0
        written = snapshot(tmp_path / "out")
        assert {name: hashlib.sha256(written[name]).hexdigest()
                for name in self.PINNED_REPORTS} == self.PINNED_REPORTS

    def _write_run(self, path: Path, records: list[tuple]) -> Path:
        path.write_text("".join(
            json.dumps({"dialogue_id": d, "turn_index": t, "episode_index": e,
                        "ranked": ranked, "targets": targets}) + "\n"
            for d, t, e, ranked, targets in records
        ))
        return path

    def test_three_runs_equal_in_process_scoring_over_one_index(self, tmp_path):
        # each run loads in the loader process with an index of its own; ids
        # outside the catalog ("zz", "yy") come first there, last in the shared one
        runs = [
            DATA / "run_small.jsonl",
            self._write_run(tmp_path / "model_b.jsonl", [
                ("d1", 1, 0, ["zz", "m4", "m1", "m2"], ["yy", "m1"]),
                ("d1", 3, 1, ["m2", "zz", "m3"], ["m2"]),
                ("d3", 1, 0, ["m4", "m3"], ["m4", "m4"]),
            ]),
            self._write_run(tmp_path / "model_c.jsonl", [
                ("d2", 1, 0, ["yy", "m3"], []),
                ("d1", 3, 1, ["m3", "m1", "yy", "m2"], ["m3"]),
                ("d1", 1, 0, ["m1", "m3", "m4", "yy"], ["zz"]),
                ("d1", 2, 1, [], ["m1"]),
            ]),
        ]
        config = self._config_with_runs(tmp_path, runs)
        assert main(["evaluate", "--config", str(config)]) == 0
        assert multiprocessing.active_children() == []
        written = snapshot(tmp_path / "out")
        del written["config_echo.json"]
        assert written == self._scored_in_process(config, runs, tmp_path / "expected")

    def _scored_in_process(self, config: Path, runs: list[Path], expected: Path) -> dict:
        """The outputs of ``evaluate`` as scoring every run in this process,
        over one index shared by all runs, writes them."""
        run_config = load_config(config)
        corpus, _ = load_corpus(run_config.corpus, run_config.catalog)
        corpus = segment_corpus(corpus, run_config.episode_policy)
        table = build_popularity(corpus, run_config.eta_policy)
        items = ItemIndex(corpus.catalog.items)
        expected.mkdir()
        records = []
        for path in runs:
            report = evaluate_run(load_run(path, items=items), corpus, table,
                                  cutoffs=run_config.cutoffs, log_base=run_config.log_base)
            save_report(report, expected / f"{report.model_name}.report.jsonl")
            records += report.to_records()
        write_lines(expected / "report_table.txt", [format_report_table(records)])
        return snapshot(expected)

    @pytest.mark.parametrize("loaders", [1, 2, 5])
    def test_outputs_do_not_depend_on_the_loader_count(self, tmp_path, monkeypatch, loaders):
        # five runs, each with ids outside the catalog ("zz", "yy", "xx")
        # interned into an index of its own, loaded by 1, 2 or 5 processes
        runs = [
            self._write_run(tmp_path / "model_e.jsonl", [
                ("d1", 3, 1, ["xx", "m2", "m3"], ["m2", "xx"]),
                ("d2", 1, 0, ["m4"], ["m3"]),
            ]),
            DATA / "run_small.jsonl",
            self._write_run(tmp_path / "model_b.jsonl", [
                ("d1", 1, 0, ["zz", "m4", "m1", "m2"], ["yy", "m1"]),
                ("d1", 3, 1, ["m2", "zz", "m3"], ["m2"]),
                ("d3", 1, 0, ["m4", "m3"], ["m4", "m4"]),
            ]),
            self._write_run(tmp_path / "model_a.jsonl", [
                ("d3", 1, 0, ["yy", "xx", "m1"], ["m1"]),
                ("d1", 1, 0, ["m3", "zz"], ["zz"]),
            ]),
            self._write_run(tmp_path / "model_c.jsonl", [
                ("d2", 1, 0, ["yy", "m3"], []),
                ("d1", 3, 1, ["m3", "m1", "yy", "m2"], ["m3"]),
                ("d1", 1, 0, ["m1", "m3", "m4", "yy"], ["zz"]),
                ("d1", 2, 1, [], ["m1"]),
            ]),
        ]
        def loader_count(n_runs: int) -> int:
            assert n_runs == len(runs)
            return loaders

        monkeypatch.setattr(cli, "_loader_count", loader_count)
        config = self._config_with_runs(tmp_path, runs)
        assert main(["evaluate", "--config", str(config)]) == 0
        assert multiprocessing.active_children() == []
        written = snapshot(tmp_path / "out")
        del written["config_echo.json"]
        assert written == self._scored_in_process(config, runs, tmp_path / "expected")

    def test_loader_count_is_one_per_usable_cpu_up_to_the_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert [cli._loader_count(n) for n in (1, 2, 3, 4, 50)] == [1, 2, 3, 3, 3]
        # where the affinity call does not exist, every CPU counts
        monkeypatch.delattr(os, "sched_getaffinity")
        assert [cli._loader_count(n) for n in (1, 3, 50, 100)] == [1, 3, 50, 64]
        # and where the CPU count is unknown, one process loads them all
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert [cli._loader_count(n) for n in (1, 2, 50)] == [1, 1, 1]

    @staticmethod
    def _assert_nothing_left(tmp_path: Path) -> None:
        """A failed ``evaluate`` wrote no output and left no loader process."""
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []

    def test_corpus_error_comes_before_a_run_error(self, tmp_path, capsys):
        corpus = tmp_path / "bad_corpus.jsonl"
        corpus.write_bytes((DATA / "corpus_small.jsonl").read_bytes() + b'{"dialogue_id": "x"}\n')
        bad_run = tmp_path / "bad_run.jsonl"
        bad_run.write_text('{"dialogue_id": "d1"\n')
        config = self._config_with_runs(tmp_path, [bad_run])
        raw = yaml.safe_load(config.read_text())
        raw["paths"]["corpus"] = str(corpus)
        config.write_text(yaml.safe_dump(raw))
        assert main(["evaluate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"input error: {corpus}:4: record missing 'split'\n"
        self._assert_nothing_left(tmp_path)

    @pytest.mark.parametrize("second, third", [("load", "join"), ("join", "load")])
    def test_run_errors_come_in_run_order(self, tmp_path, capsys, second, third):
        broken = {
            # line 2 is malformed
            "load": '{"dialogue_id": "d1", "turn_index": 1, "episode_index": 0, "ranked": [], '
                    '"targets": []}\n{"dialogue_id": "d1", "turn_index": 3\n',
            # line 2 names a turn past the end of d2
            "join": '{"dialogue_id": "d1", "turn_index": 1, "episode_index": 0, "ranked": [], '
                    '"targets": []}\n{"dialogue_id": "d2", "turn_index": 5, "episode_index": 0, '
                    '"ranked": [], "targets": []}\n',
        }
        runs = [DATA / "run_small.jsonl"]
        for name in (second, third):
            runs.append(tmp_path / f"{name}_run.jsonl")
            runs[-1].write_text(broken[name])
        config = self._config_with_runs(tmp_path, runs)
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {runs[1]}:2: ")
        if second == "join":
            assert "run 'join_run' does not join against corpus: dialogue 'd2': " in err
        else:
            assert "malformed record" in err
        self._assert_nothing_left(tmp_path)

    def test_a_run_error_waits_for_the_runs_listed_before_it(self, tmp_path, capsys, monkeypatch):
        # run 1 takes longer to load than run 2 and breaks only at its last
        # line, where it names a turn past the end of the corpus; run 2's load
        # error arrives first, yet run 1's join error is the one reported
        n = 20_000
        corpus = tmp_path / "long_corpus.jsonl"
        turn = {"speaker": "seeker", "text": "hi", "items": [], "targets": []}
        corpus.write_text((DATA / "corpus_small.jsonl").read_text() + json.dumps(
            {"dialogue_id": "long", "split": "test", "turns": [turn] * (n - 1)}
        ) + "\n")
        long_run = self._write_run(
            tmp_path / "long_run.jsonl", [("long", t, 0, ["m1", "m2"], []) for t in range(n)]
        )
        malformed = tmp_path / "malformed_run.jsonl"
        malformed.write_text('{"dialogue_id": "d1"\n')
        monkeypatch.setattr(cli, "_loader_count", lambda n_runs: 2)
        config = self._config_with_runs(tmp_path, [long_run, malformed])
        raw = yaml.safe_load(config.read_text())
        raw["paths"]["corpus"] = str(corpus)
        config.write_text(yaml.safe_dump(raw))
        assert main(["evaluate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"input error: {long_run}:{n}: run 'long_run' does not join against corpus: "
            f"dialogue 'long': turn_index {n - 1} out of range\n"
        )
        self._assert_nothing_left(tmp_path)

    def test_importing_the_cli_does_not_import_multiprocessing(self):
        # the loader process is started inside evaluate, so the other commands
        # (and every command's start-up) do not pay for the import
        code = "import sys, crs_bias.cli; print('multiprocessing' in sys.modules)"
        path = filter(None, (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.stdout == "False\n", result.stderr

    def test_unknown_dialogue_exits_2_and_names_id(self, tmp_path, capsys):
        bad = tmp_path / "bad_run.jsonl"
        bad.write_text(
            '{"dialogue_id": "ghost", "turn_index": 0, "episode_index": 0, '
            '"ranked": ["m1"], "targets": []}\n'
        )
        config = self._config_with_runs(tmp_path, [bad])
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "ghost" in capsys.readouterr().err
        self._assert_nothing_left(tmp_path)

    def test_join_error_names_the_first_unjoined_line(self, tmp_path, capsys):
        bad = tmp_path / "ghost_run.jsonl"
        lines = (DATA / "run_small.jsonl").read_text().splitlines()
        ghost = '{"dialogue_id": "ghost", "turn_index": 0, "episode_index": 0, "ranked": [], "targets": []}'
        bad.write_text("\n".join(lines[:2] + [ghost] + lines[2:]) + "\n")
        config = self._config_with_runs(tmp_path, [bad])
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: run 'ghost_run' does not join against corpus: unknown dialogue 'ghost'" in err
        self._assert_nothing_left(tmp_path)

    def test_runs_sharing_a_stem_exit_2_before_any_output(self, tmp_path, capsys):
        first, second = tmp_path / "a" / "model.jsonl", tmp_path / "b" / "model.jsonl"
        for path in (first, second):
            path.parent.mkdir()
            shutil.copy(DATA / "run_small.jsonl", path)
        config = self._config_with_runs(tmp_path, [first, second])
        assert main(["evaluate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"config error: paths.runs: {first} and {second} would both write model.report.jsonl\n"
        )
        self._assert_nothing_left(tmp_path)

    def test_no_runs_configured(self, tmp_path, capsys):
        config = self._config_with_runs(tmp_path, [])
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "runs" in capsys.readouterr().err

    def test_explicit_policy_requires_indices_in_files(self, tmp_path, capsys):
        corpus = tmp_path / "no_episodes.jsonl"
        corpus.write_text(
            '{"dialogue_id": "d1", "split": "train", "turns": '
            '[{"speaker": "recommender", "text": "@m1", "items": ["m1"], "targets": ["m1"]}]}\n'
        )
        run = tmp_path / "run.jsonl"
        run.write_text(
            '{"dialogue_id": "d1", "turn_index": 0, "episode_index": 0, '
            '"ranked": ["m1"], "targets": ["m1"]}\n'
        )
        config = write_config(
            tmp_path / "config.yaml",
            paths={
                "corpus": str(corpus),
                "catalog": str(DATA / "catalog_small.jsonl"),
                "runs": [str(run)],
                "output_dir": str(tmp_path / "out"),
            },
            episodes={"policy": "explicit"},
        )
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "explicit" in capsys.readouterr().err
        self._assert_nothing_left(tmp_path)

    def test_report_command_renders_saved_reports(self, tmp_path, capsys):
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 0
        table = capsys.readouterr().out
        assert "pop_bias" in table and "run_small" in table

    def test_format_1_report_renders_as_format_2(self, tmp_path, capsys):
        # a report saved before report_format existed (CEP over float
        # popularities) renders to the table evaluate writes today
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert {json.loads(line)["report_format"]
                for line in (out / "run_small.report.jsonl").read_text().splitlines()} == {2}
        shutil.copy(DATA / "run_small.report.format1.jsonl", out / "run_small.report.jsonl")
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 0
        assert capsys.readouterr().out == (out / "report_table.txt").read_text()

    def test_report_records_render_the_table_evaluate_wrote(self, tmp_path):
        # model_b sorts before run_small, so report's file order is the run order
        second = tmp_path / "model_b.jsonl"
        shutil.copy(DATA / "run_small.jsonl", second)
        config = self._config_with_runs(tmp_path, [second, DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        records = [r for p in sorted(out.glob("*.report.jsonl")) for r in load_report_records(p)]
        assert {r["model"] for r in records} == {"model_b", "run_small"}
        assert format_report_table(records) + "\n" == (out / "report_table.txt").read_text()
        format_1 = load_report_records(DATA / "run_small.report.format1.jsonl")
        assert {r.get("report_format", 1) for r in format_1} == {1}
        assert format_report_table(format_1) == format_report_table(
            load_report_records(out / "run_small.report.jsonl")
        )

    @pytest.mark.parametrize(
        "ranked, turn_index",
        [('"ab"', "1"), ("null", "1"), ('["m1"]', '"x"'), ('["m1"]', "1.7"), ('["m1"]', "true")],
    )
    def test_malformed_run_line_exits_2_with_path_line(self, tmp_path, capsys, ranked, turn_index):
        bad = tmp_path / "bad_run.jsonl"
        bad.write_text(
            (DATA / "run_small.jsonl").read_text()
            + f'{{"dialogue_id": "d2", "turn_index": {turn_index}, "episode_index": 0, '
            f'"ranked": {ranked}, "targets": []}}\n'
        )
        config = self._config_with_runs(tmp_path, [bad])
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "bad_run.jsonl:4:" in capsys.readouterr().err
        self._assert_nothing_left(tmp_path)

    def test_duplicate_run_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "dup_run.jsonl"
        lines = (DATA / "run_small.jsonl").read_text().splitlines()
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        config = self._config_with_runs(tmp_path, [bad])
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "dup_run.jsonl:4: duplicate run entry ('d1', turn 3)" in capsys.readouterr().err
        self._assert_nothing_left(tmp_path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"model": "run_small", "metric": "cep"',
            '{"model": "run_small", "mean": 1}',
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 1%s, "std": 0, "n": 1, '
                '"n_skipped": 0}' % ("0" * 399), id="mean-past-float-range",
            ),
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 0, "std": -1%s, "n": 1, '
                '"n_skipped": 0}' % ("0" * 399), id="std-past-float-range",
            ),
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 0, "std": 0, "n": 1, '
                '"n_skipped": 0, "report_format": 3}', id="unknown-report-format",
            ),
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 0, "std": 0, "n": -5, '
                '"n_skipped": 0}', id="negative-n",
            ),
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 0, "std": 0, "n": 1, '
                '"n_skipped": 1, "skip_reasons": {"first_episode": 0.5}}', id="fractional-skip-count",
            ),
            pytest.param(
                '{"model": "other", "metric": "pop_bias", "mean": 0.9, "std": 0, "n": 1, '
                '"n_skipped": 0}', id="second-model",
            ),
            pytest.param(
                '{"model": "run_small", "metric": "cep", "mean": 0.9, "std": 0, "n": 1, '
                '"n_skipped": 0}', id="repeated-metric",
            ),
        ],
    )
    def test_malformed_report_exits_2_with_path_line(self, tmp_path, capsys, line):
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        report = tmp_path / "out" / "run_small.report.jsonl"
        report.write_text(report.read_text() + line + "\n")
        n_lines = len(report.read_text().splitlines())
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 2
        assert f"run_small.report.jsonl:{n_lines}:" in capsys.readouterr().err

    @pytest.mark.parametrize("log_base", [0.5, 1, 0, -2.0, float("inf")])
    def test_log_base_not_above_1_exits_2(self, tmp_path, capsys, log_base):
        config = write_config(
            tmp_path / "config.yaml",
            paths={"runs": [str(DATA / "run_small.jsonl")]},
            metrics={"log_base": log_base},
        )
        assert main(["evaluate", "--config", str(config)]) == 2
        assert "metrics.log_base must be greater than 1" in capsys.readouterr().err

    def test_report_without_reports_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml")
        assert main(["report", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: paths.runs must list at least one run file\n"

    def test_report_prints_the_table_with_runs_out_of_name_order(self, tmp_path, capsys):
        zeta, alpha = tmp_path / "zeta.jsonl", tmp_path / "alpha.jsonl"
        for path in (zeta, alpha):
            shutil.copy(DATA / "run_small.jsonl", path)
        config = self._config_with_runs(tmp_path, [zeta, alpha])
        assert main(["evaluate", "--config", str(config)]) == 0
        table = (tmp_path / "out" / "report_table.txt").read_text()
        assert table.index("zeta ") < table.index("alpha ")
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 0
        assert capsys.readouterr().out == table

    def test_report_leaves_out_the_report_of_a_run_no_longer_listed(self, tmp_path, capsys):
        zeta = tmp_path / "zeta.jsonl"
        shutil.copy(DATA / "run_small.jsonl", zeta)
        config = self._config_with_runs(tmp_path, [zeta, DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "zeta.report.jsonl").is_file()  # stale: evaluate wrote it before
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "report_table.txt").read_text()
        assert "zeta" not in printed and "run_small" in printed

    def test_report_missing_a_listed_report_exits_2_printing_nothing(self, tmp_path, capsys):
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl"])
        assert main(["evaluate", "--config", str(config)]) == 0
        second = tmp_path / "model_b.jsonl"
        shutil.copy(DATA / "run_small.jsonl", second)
        config = self._config_with_runs(tmp_path, [DATA / "run_small.jsonl", second])
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 2
        missing = tmp_path / "out" / "model_b.report.jsonl"
        assert capsys.readouterr() == (
            "", f"input error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'\n"
        )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# (dialogue_id, turn_index, episode_index) that join against corpus_small.jsonl
JOINED_KEYS = [("d1", 0, 0), ("d1", 1, 0), ("d1", 2, 1), ("d1", 3, 1), ("d2", 0, 0), ("d2", 1, 0),
               ("d3", 0, 0), ("d3", 1, 0)]
RUN_ITEMS = ["m1", "m2", "m3", "m4", "zz"]


@st.composite
def run_lines(draw):
    """A valid run record, one with a field replaced or dropped, or any JSON value."""
    dialogue_id, turn_index, episode_index = draw(st.sampled_from(JOINED_KEYS))
    record = {
        "dialogue_id": dialogue_id,
        "turn_index": turn_index,
        "episode_index": episode_index,
        "ranked": draw(st.lists(st.sampled_from(RUN_ITEMS), max_size=4, unique=True)),
        "targets": draw(st.lists(st.sampled_from(RUN_ITEMS), max_size=3)),
    }
    damage = draw(st.sampled_from(("none", "none", "replace", "drop", "line")))
    key = draw(st.sampled_from(sorted(record)))
    if damage == "replace":
        record[key] = draw(JSON_VALUES)
    elif damage == "drop":
        del record[key]
    elif damage == "line":
        return draw(JSON_VALUES)
    return record


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(run_lines(), min_size=1, max_size=4))
def test_evaluate_on_arbitrary_run_lines_exits_0_or_2(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run = root / "run.jsonl"
        run.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = write_config(
            root / "config.yaml",
            paths={"runs": [str(run)], "output_dir": str(root / "out")},
            popularity={"eta": {"kind": "count_threshold", "min_count": 1}},
        )
        assert main(["evaluate", "--config", str(config)]) in (0, 2)


def damaged(draw, record: dict):
    """``record`` as it is, with one of its fields or one field of one of
    its turns replaced or dropped, or any JSON value instead."""
    damage = draw(st.sampled_from(("none", "none", "replace", "drop", "turn", "line")))
    if damage == "line":
        return draw(JSON_VALUES)
    target = record
    if damage == "turn":
        target = draw(st.sampled_from(record["turns"]))
        damage = draw(st.sampled_from(("replace", "drop")))
    key = draw(st.sampled_from(sorted(target)))
    if damage == "replace":
        target[key] = draw(JSON_VALUES)
    elif damage == "drop":
        del target[key]
    return record


@st.composite
def corpus_lines(draw):
    """A valid corpus record, one with a field or a turn field replaced or
    dropped, or any JSON value."""
    turns = [
        {
            "speaker": draw(st.sampled_from(("seeker", "recommender"))),
            "text": draw(st.text(max_size=4)),
            "items": draw(st.lists(st.sampled_from(RUN_ITEMS), max_size=2)),
            "targets": draw(st.lists(st.sampled_from(RUN_ITEMS), max_size=1)),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    record = {
        "dialogue_id": draw(st.sampled_from(("d1", "d2", "d3", 4))),
        "split": draw(st.sampled_from(("train", "valid", "test"))),
        "turns": turns,
    }
    if draw(st.booleans()):
        record["episodes"] = draw(st.lists(st.integers(0, 2), min_size=len(turns), max_size=len(turns)))
    return damaged(draw, record)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(corpus_lines(), min_size=1, max_size=4))
def test_stats_on_arbitrary_corpus_lines_exits_0_or_2(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = write_config(
            root / "config.yaml", paths={"corpus": str(corpus), "output_dir": str(root / "out")}
        )
        assert main(["stats", "--config", str(config)]) in (0, 2)


@st.composite
def pool_lines(draw):
    """A synthetic pool record (valid when its item and id are), one with a
    field or a turn field replaced or dropped, or any JSON value. Ids
    ``d1``-``d3`` collide with corpus_small.jsonl; ``zz`` is not in the
    catalog."""
    item = draw(st.sampled_from(RUN_ITEMS))
    record = {
        "dialogue_id": draw(st.sampled_from(("s1", "s2", "s3", "d1", 5))),
        "split": draw(st.sampled_from(("train", "test"))),
        "provenance": draw(st.sampled_from(("synthetic", "synthetic", "original"))),
        "turns": [
            {"speaker": "seeker", "text": "any ideas?", "items": [], "targets": []},
            {
                "speaker": "recommender",
                "text": f"try @{item}",
                "items": draw(st.sampled_from(([item], [item, item], [item, "m1"]))),
                "targets": draw(st.sampled_from(([], [item]))),
            },
        ],
    }
    if draw(st.booleans()):
        record["episodes"] = draw(st.sampled_from(([0, 0], [0, 1], [1, 1])))
    return damaged(draw, record)


@pytest.mark.parametrize("strategy", ["once_aug", "pop_nudge"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(pool_lines(), min_size=1, max_size=4))
def test_augment_on_arbitrary_pool_lines_exits_0_or_2(strategy, records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        pool = root / "pool.jsonl"
        pool.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = write_config(
            root / "config.yaml",
            paths={"pool": str(pool), "output_dir": str(root / "out")},
            augment={"k": 2, "batch_size": 2},
        )
        assert main(["augment", "--config", str(config), "--strategy", strategy]) in (0, 2)


@st.composite
def catalog_lines(draw):
    """A catalog record, named with any text or with text that meets the
    offline completions (speaker prefixes, a blank, a word inside another),
    one with a field replaced or dropped, or any JSON value."""
    record = {
        "item_id": draw(st.sampled_from(("m1", "m2", "m3", "m4", "m5", 7, ""))),
        "name": draw(st.text(max_size=8) | st.sampled_from(("Up", " ", "User: hi", "a\nb", "!"))),
    }
    damage = draw(st.sampled_from(("none", "none", "none", "replace", "drop", "line")))
    key = draw(st.sampled_from(sorted(record)))
    if damage == "replace":
        record[key] = draw(JSON_VALUES)
    elif damage == "drop":
        del record[key]
    elif damage == "line":
        return draw(JSON_VALUES)
    return record


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(catalog_lines(), min_size=1, max_size=3))
def test_generate_on_arbitrary_catalog_lines_exits_0_2_or_3(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        catalog = root / "catalog.jsonl"
        catalog.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = write_config(
            root / "config.yaml", paths={"catalog": str(catalog), "output_dir": str(root / "out")}
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["generate", "--config", str(config)])
        assert code in (0, 2, 3)
        if code == 3:  # every item rejected: the only backend error offline generation has
            assert "backend error: no synthetic dialogues were accepted" in err.getvalue()


# integers past the float range as well as floats, for mean and std
REPORT_NUMBERS = st.floats() | st.integers(-(10**400), 10**400)


@st.composite
def report_lines(draw):
    """A report record, one with a field replaced or dropped, or any JSON value."""
    record = {
        "model": draw(st.sampled_from(("m", "ü"))),
        "metric": draw(st.sampled_from(("pop_bias", "cep", "hit@10"))),
        "mean": draw(REPORT_NUMBERS),
        "std": draw(REPORT_NUMBERS),
        "n": draw(st.integers()),
        "n_skipped": draw(st.integers()),
    }
    if draw(st.booleans()):
        record["skip_reasons"] = draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2))
    damage = draw(st.sampled_from(("none", "none", "replace", "drop", "line")))
    key = draw(st.sampled_from(sorted(record)))
    if damage == "replace":
        record[key] = draw(JSON_VALUES | REPORT_NUMBERS)
    elif damage == "drop":
        del record[key]
    elif damage == "line":
        return draw(JSON_VALUES)
    return record


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(report_lines(), max_size=4))
def test_report_on_arbitrary_report_lines_exits_0_or_2(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        (root / "out" / "m.report.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        config = write_config(
            root / "config.yaml",
            paths={"runs": [str(root / "m.jsonl")], "output_dir": str(root / "out")},
        )
        assert main(["report", "--config", str(config)]) in (0, 2)


def layout_keys(layout: dict, prefix: tuple = ()):
    """The key path of every section and key in a config echo."""
    for key, value in layout.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from layout_keys(value, (*prefix, key))


# an output directory drawn at random could name any directory on the machine
CONFIG_KEYS = sorted(set(layout_keys(RunConfig().echo_dict())) - {("paths", "output_dir")})


@st.composite
def config_edits(draw):
    """A declared section or key, or an extra key beside one, and any JSON value."""
    path = draw(st.sampled_from(CONFIG_KEYS))
    if draw(st.booleans()):
        path = (*path[:-1], draw(st.text(max_size=4)))
    return path, draw(JSON_VALUES)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(config_edits(), max_size=3))
def test_stats_on_arbitrary_config_files_exits_0_or_2(edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = yaml.safe_load(write_config(root / "config.yaml").read_text())
        for path, value in edits:
            node = config
            for key in path[:-1]:
                if not isinstance(node.get(key), dict):
                    node[key] = {}
                node = node[key]
            node[path[-1]] = value
        (root / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(["stats", "--config", str(root / "config.yaml")]) in (0, 2)


class TestConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"augment": 5}, "augment must be a mapping or null, got 5"),
            ({"generation": [1]}, "generation must be a mapping or null, got [1]"),
            ({"generation": {"http": "x"}}, "generation.http must be a mapping or null"),
            ({"popularity": {"eta": 5}}, "popularity.eta must be a mapping or null, got 5"),
            ({"popularity": {"eta": {"min_cout": 2}}},
             "unknown config key 'popularity.eta.min_cout'"),
            ({"paths": {"runs": 5}}, "paths.runs must be a list of paths, got 5"),
            ({"paths": {"runs": "a.jsonl"}}, "paths.runs must be a list of paths"),
            ({"paths": {"runs": ["a.jsonl", 5]}}, "paths.runs must be a non-empty string, got 5"),
            ({"paths": {"corpus": [1, 2]}}, "paths.corpus must be null or a non-empty string"),
            ({"paths": {"corpus": ""}}, "paths.corpus must be null or a non-empty string"),
            ({"paths": {"output_dir": ["x"]}}, "paths.output_dir must be a non-empty string"),
            ({"paths": {"output_dir": None}}, "paths.output_dir must be a non-empty string"),
            ({"paths": {"output_dir": "out\0"}}, "paths.output_dir must be a path"),
            ({"paths": {"catalog": "\ud800"}}, "paths.catalog must be a path"),
            ({"augment": {"batchsize": 64}}, "unknown config key 'augment.batchsize'\n"),
            ({"seeds": 1}, "unknown config key 'seeds'"),
            # relative to the config file's directory: under a regular file, then one
            ({"paths": {"output_dir": "config.yaml/out"}}, "paths.output_dir: cannot create "),
            ({"paths": {"output_dir": "config.yaml"}}, "paths.output_dir: cannot create "),
        ],
    )
    def test_malformed_sections_and_keys_exit_2(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path / "config.yaml", **overrides)
        assert main(["stats", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("content", [None, b"seed: \xff\n"])  # None: a directory
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "config.yaml"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        assert main(["stats", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_directory_as_input_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.yaml", paths={"corpus": str(tmp_path)})
        assert main(["stats", "--config", str(config)]) == 2
        assert "paths.corpus: no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "popularity", [None, {"eta": None}, {"eta": {"kind": "count_threshold"}}]
    )
    def test_eta_without_min_count_is_the_policy_default(self, tmp_path, popularity):
        config = write_config(tmp_path / "config.yaml", popularity=popularity)
        assert load_config(config).eta_policy == ThresholdPolicy.count_threshold()

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        shutil.copy(DATA / "corpus_small.jsonl", tmp_path / "corpus.jsonl")
        shutil.copy(DATA / "catalog_small.jsonl", tmp_path / "catalog.jsonl")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump({
            "paths": {"corpus": "corpus.jsonl", "catalog": "catalog.jsonl"},
        }))
        config = load_config(config_path)
        assert config.corpus == tmp_path / "corpus.jsonl"
        assert config.output_dir == tmp_path / "out"

    def test_generation_is_serial_by_default(self, tmp_path):
        # only http_chat sends requests from threads; the offline backend has none
        config = load_config(write_config(tmp_path / "config.yaml"))
        assert config.generation.concurrency == 1
        assert inspect.signature(HttpChatBackend).parameters["concurrency"].default == 1
        assert "concurrency" not in inspect.signature(build_pool).parameters
        http = {"backend": "http_chat", "concurrency": 4,
                "http": {"base_url": "https://llm.example/v1", "model": "chat-1"}}
        config = load_config(write_config(tmp_path / "config.yaml", generation=http))
        assert cli._make_backend(config).concurrency == 4

    def test_flag_overrides_win(self, tmp_path):
        config_path = write_config(tmp_path / "config.yaml", augment={"k": 2})
        config = load_config(config_path, overrides={"k": 9, "seed": 77})
        assert config.k == 9
        assert config.seed == 77

    def test_invalid_values_rejected(self, tmp_path):
        for bad in (
            {"augment": {"k": 0}},
            {"metrics": {"cutoffs": [0]}},
            {"metrics": {"log_base": 1}},
            {"seed": -1},
            {"episodes": {"policy": "nonsense"}},
            {"augment": {"strategy": "nonsense"}},
            {"popularity": {"eta": {"kind": "nonsense"}}},
            {"popularity": {"eta": {"kind": "quantile", "top_fraction": 10**400}}},
        ):
            config_path = write_config(tmp_path / "config.yaml", **bad)
            with pytest.raises(ConfigError):
                load_config(config_path)

    @pytest.mark.parametrize("log_base, expected", [
        ("e", math.e), ("natural", math.e), (None, math.e), (10, 10.0), (2.5, 2.5),
    ])
    def test_log_base_accepts_e_natural_and_numbers(self, tmp_path, log_base, expected):
        config_path = write_config(tmp_path / "config.yaml", metrics={"log_base": log_base})
        assert load_config(config_path).log_base == expected

    def test_n_workers_accepted_but_not_echoed(self, tmp_path):
        config_path = write_config(tmp_path / "config.yaml", metrics={"n_workers": 4})
        config = load_config(config_path)
        assert not hasattr(config, "n_workers")
        assert "n_workers" not in config.echo_dict()["metrics"]

    def test_redaction_hides_secret_looking_keys(self):
        redacted = _redact({
            "http": {"api_key": "abc", "auth_token": "xyz", "token_env": "NAME"},
            "nested": [{"secret": "s"}],
            "plain": "keep",
        })
        assert redacted["http"]["api_key"] == "***"
        assert redacted["http"]["auth_token"] == "***"
        assert redacted["http"]["token_env"] == "NAME"
        assert redacted["nested"][0]["secret"] == "***"
        assert redacted["plain"] == "keep"

    def test_echo_written_into_output_dir(self, tmp_path):
        config = write_config(tmp_path / "config.yaml")
        assert main(["stats", "--config", str(config)]) == 0
        echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert echo["seed"] == 1234
        assert echo["paths"]["catalog"].endswith("catalog_small.jsonl")

    def test_echo_is_the_same_from_any_copy_of_the_config_directory(self, tmp_path, monkeypatch):
        """Paths are echoed relative to the config file's directory; a flag's
        path is taken from the working directory first."""
        first = tmp_path / "first" / "project"
        first.mkdir(parents=True)
        for name in ("corpus_small", "catalog_small"):
            shutil.copy(DATA / f"{name}.jsonl", first / f"{name}.jsonl")
        paths = {"corpus": "corpus_small.jsonl", "catalog": "catalog_small.jsonl",
                 "runs": ["runs/a.jsonl"], "output_dir": "out"}
        (first / "config.yaml").write_text(yaml.safe_dump({"paths": paths, "seed": 7}))
        second = tmp_path / "second" / "elsewhere" / "project"
        shutil.copytree(first, second)
        echoes = []
        for root in (first, second):
            monkeypatch.chdir(root.parent)
            config = str(root / "config.yaml")
            assert main(["stats", "--config", config]) == 0
            assert main(["stats", "--config", config, "--output-dir", "project/flagged"]) == 0
            echoes.append([(root / out / "config_echo.json").read_bytes() for out in ("out", "flagged")])
        assert echoes[0] == echoes[1]
        assert json.loads(echoes[0][0])["paths"] == dict(paths, pool=None)
        assert json.loads(echoes[0][1])["paths"] == dict(paths, pool=None, output_dir="flagged")


# each command's override flags, with a value to give each flag
FLAG_VALUES = {"--seed": "5", "--k": "3", "--batch-size": "2", "--strategy": "once_aug",
               "--output-dir": "flagged"}
READS = {
    "stats": ("--output-dir",),
    "generate": ("--seed", "--output-dir"),
    "augment": ("--seed", "--k", "--batch-size", "--strategy", "--output-dir"),
    "evaluate": ("--output-dir",),
    "report": ("--output-dir",),
}
# where config_echo.json shows each flag's value
ECHOED = {"--seed": ("seed",), "--k": ("augment", "k"), "--batch-size": ("augment", "batch_size"),
          "--strategy": ("augment", "strategy"), "--output-dir": ("paths", "output_dir")}


class TestFlags:
    @pytest.fixture()
    def workspace(self, workspace_with_pool, monkeypatch) -> Path:
        """The pool workspace with a run file, as the working directory."""
        raw = yaml.safe_load(workspace_with_pool.read_text())
        raw["paths"]["runs"] = [str(DATA / "run_small.jsonl")]
        workspace_with_pool.write_text(yaml.safe_dump(raw))
        monkeypatch.chdir(workspace_with_pool.parent)
        return workspace_with_pool

    def test_ten_override_flags_in_all(self):
        assert sum(map(len, READS.values())) == 10
        assert list(READS) == list(cli._COMMANDS)

    @pytest.mark.parametrize("command, flag", [(c, f) for c in READS for f in READS[c]])
    def test_a_flag_the_command_reads_sets_its_field(self, workspace, capsys, command, flag):
        config = str(workspace)
        if command == "report":  # report reads the reports in the flag's directory
            assert main(["evaluate", "--config", config, "--output-dir", "flagged"]) == 0
            capsys.readouterr()
        assert main([command, "--config", config, flag, FLAG_VALUES[flag]]) == 0
        out = workspace.parent / ("flagged" if flag == "--output-dir" else "out")
        echo = json.loads((out / "config_echo.json").read_text())
        for key in ECHOED[flag]:
            echo = echo[key]
        assert str(echo) == FLAG_VALUES[flag]
        if command == "report":
            assert capsys.readouterr().out == (out / "report_table.txt").read_text()

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in READS for f in FLAG_VALUES if f not in READS[c]]
    )
    def test_a_flag_the_command_does_not_read_exits_2_writing_nothing(
        self, workspace, capsys, command, flag
    ):
        before = snapshot(workspace.parent)
        with pytest.raises(SystemExit) as exited:
            main([command, "--config", str(workspace), flag, FLAG_VALUES[flag]])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
        assert snapshot(workspace.parent) == before

    def test_augment_k_flag_is_echoed(self, workspace):
        assert main(["augment", "--config", str(workspace), "--k", "3"]) == 0
        echo = json.loads((workspace.parent / "out" / "config_echo.json").read_text())
        assert echo["augment"]["k"] == 3

    @pytest.mark.parametrize("flag, value, message", [
        ("--strategy", "nonsense",
         "config error: augment.strategy must be one of ['once_aug', 'pop_nudge'], got 'nonsense'"),
        ("--k", "0", "config error: augment.k must be >= 1, got 0"),
        ("--seed", "-1", "config error: seed must be >= 0, got -1"),
    ])
    def test_a_bad_flag_value_is_the_config_fields_error(self, workspace, capsys, flag, value,
                                                          message):
        before = snapshot(workspace.parent)
        assert main(["augment", "--config", str(workspace), flag, value]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert snapshot(workspace.parent) == before


def test_readme_quick_start(tmp_path, capsys):
    """The README quick start, its config block verbatim, on the bundled data:
    every command exits 0 and the sample outputs the README shows are printed."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", quick_start, re.S | re.M)  # (language, text)
    (config,) = [text for language, text in blocks if language == "yaml"]
    (tmp_path / "config.yaml").write_text(config)
    for source, name in [("corpus_small", "corpus"), ("catalog_small", "catalog"),
                         ("run_small", "model_a")]:
        shutil.copy(DATA / f"{source}.jsonl", tmp_path / f"{name}.jsonl")
    commands = re.findall(r"^crs-bias (\w+) +--config config\.yaml", quick_start, re.M)
    assert commands == list(cli._COMMANDS)
    printed = {}
    for command in commands:
        assert main([command, "--config", str(tmp_path / "config.yaml")]) == 0, command
        printed[command] = capsys.readouterr().out.splitlines()
    augment_sample, table_sample = [text for language, text in blocks if not language]
    assert printed["augment"][: len(augment_sample.splitlines())] == augment_sample.splitlines()
    shown = [line for line in table_sample.splitlines() if line != "..."]
    assert printed["evaluate"][: len(shown)] == shown


def test_readme_library_usage(tmp_path, monkeypatch, capsys):
    """The README's library example, its Python block verbatim, on the bundled
    data with a pool from ``generate``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library usage", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    for source, name in [("corpus_small", "corpus"), ("catalog_small", "catalog"),
                         ("run_small", "model_a")]:
        shutil.copy(DATA / f"{source}.jsonl", tmp_path / f"{name}.jsonl")
    config = write_config(tmp_path / "config.yaml", paths={"pool": "pool.jsonl"})
    assert main(["generate", "--config", str(config)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert capsys.readouterr().out == "0.75\n"
    assert isinstance(names["batch"], MaterializedBatch)
    assert isinstance(names["anchors"], DialogueColumns)
    assert isinstance(names["appended"], DialogueColumns)
    assert isinstance(names["report"], BiasReport) and names["report"].model_name == "model_b"


def test_commands_build_no_objects(tmp_path, monkeypatch, capsys):
    """Every command runs on the bundled data, with a run that ranks ids
    outside the catalog, while building a Turn, a Dialogue or a RunEntry
    raises: the commands work on column stores only."""
    run = tmp_path / "model_a.jsonl"
    run.write_text((DATA / "run_small.jsonl").read_text().replace('"m4"', '"x-unknown"'))
    assert "x-unknown" in run.read_text()
    config = write_config(
        tmp_path / "config.yaml",
        paths={"pool": str(tmp_path / "pool.jsonl"), "runs": [str(run)]},
    )

    def built(*args, **kwargs):
        raise AssertionError("a command built an object")

    monkeypatch.setattr(Turn, "__new__", built)
    monkeypatch.setattr(Dialogue, "__init__", built)
    monkeypatch.setattr(RunEntry, "__post_init__", built)
    for make in (lambda: Turn("seeker", "hi"), lambda: Dialogue("d1", ()),
                 lambda: RunEntry("d1", 1, 0, ("m1",))):
        with pytest.raises(AssertionError, match="built an object"):
            make()
    commands = [
        ["generate"], ["stats"], ["augment", "--strategy", "once_aug"],
        ["augment", "--strategy", "pop_nudge"], ["evaluate"], ["report"],
    ]
    for command in commands:
        assert main([*command, "--config", str(config)]) == 0, command
    assert "model_a" in capsys.readouterr().out
