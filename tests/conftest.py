from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from crs_bias.popularity import ThresholdPolicy, build_popularity

from helpers import build_standard_corpus, freq_fixture_corpus, single_mention_pool

DATA_DIR = Path(__file__).parent / "data"

# `pytest --hypothesis-profile ci` draws the same examples on every run, so a
# failure in a CI log reproduces locally; plain runs keep random draws
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def standard_corpus():
    return build_standard_corpus()


@pytest.fixture(scope="session")
def standard_pool(standard_corpus):
    return single_mention_pool(standard_corpus.catalog)


@pytest.fixture(scope="session")
def standard_table(standard_corpus):
    return build_popularity(standard_corpus, ThresholdPolicy.count_threshold(5))


@pytest.fixture()
def freq_corpus():
    return freq_fixture_corpus()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" in report.nodeid and report.when == "call" or (
                "test_acceptance" in report.nodeid and status == "skipped"
            ):
                name = report.nodeid.split("::")[-1]
                lines.append((name, status.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line(f"{status:7s} {name}")
