"""What the config parser and the ``report`` command need, without numpy.

The errors the command line maps to exit codes, the id rule, the
line-delimited file I/O every reader and writer goes through, the report
file reader and its table, and the constants and threshold policy a config
is parsed into. The other modules import these names from here, so a
command that needs only them (``report``, ``--help``) loads no module that
imports numpy.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

EPISODE_POLICIES = frozenset({"explicit", "accept_boundary"})
DEFAULT_CUTOFFS = (10, 50)
DEFAULT_MIN_COUNT = 5
LANGUAGES = frozenset({"en", "zh"})
# the ``kind`` of each generation backend
OFFLINE_BACKEND = "offline_template"
HTTP_BACKEND = "http_chat"
# on every report record; format 1 (no field) took CEP's rho over float popularities
REPORT_FORMAT = 2


class CorpusError(ValueError):
    """Malformed corpus input or a violated corpus invariant."""


class AugmentError(ValueError):
    """Invalid augmentation input (bad pool, inconsistent plan, ...)."""


class AuditError(RuntimeError):
    """A generated plan violates the popularity filter invariant."""


class BackendError(RuntimeError):
    """Text-generation backend failure."""


def parse_id(value, what: str) -> str:
    """An id field: a string (a ``str`` subclass, such as ``numpy.str_``, as
    its plain ``str`` value), or an integer read as its decimal string."""
    if type(value) is str:
        return value
    if type(value) is int or isinstance(value, str):
        return str(value)
    raise CorpusError(f"{what} must be a string or an integer, got {value!r}")


@dataclass(frozen=True)
class ThresholdPolicy:
    """Which items count as "popular".

    ``count_threshold``: items with strictly more than ``min_count``
    training interactions. ``quantile``: the top ``top_fraction`` of the
    catalog by frequency; items tied with the boundary frequency are all
    included, so the set may slightly exceed the nominal fraction.
    """

    kind: str
    min_count: int | None = None
    top_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "count_threshold":
            if self.min_count is None or self.min_count < 1:
                raise ValueError("count_threshold requires min_count >= 1")
        elif self.kind == "quantile":
            if self.top_fraction is None or not (0.0 < self.top_fraction <= 1.0):
                raise ValueError("quantile requires top_fraction in (0, 1]")
        else:
            raise ValueError(f"unknown threshold policy kind {self.kind!r}")

    @classmethod
    def count_threshold(cls, min_count: int = DEFAULT_MIN_COUNT) -> "ThresholdPolicy":
        return cls(kind="count_threshold", min_count=min_count)

    @classmethod
    def quantile(cls, top_fraction: float) -> "ThresholdPolicy":
        return cls(kind="quantile", top_fraction=top_fraction)


# ---------------------------------------------------------------------------
# line-delimited I/O


def _has_lone_surrogate(record) -> bool:
    """Whether a decoded record holds text that cannot be written as UTF-8."""
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


_scan_once = json.JSONDecoder().scan_once


def _decode_line(text: str):
    """``json.loads(text)``: one scanner call when the value starts the line
    and only JSON whitespace follows it, else ``json.loads`` itself, which
    also words every error."""
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    if text[end:].strip(" \t\n\r"):
        return json.loads(text)
    return value


def read_json_lines(path: Path, digest=None) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each line that is not blank, that is,
    not JSON whitespace alone. Lines are decoded one at a time, so a bad
    byte, malformed JSON (a form feed too), a lone surrogate escape or a
    non-object record raises ``CorpusError`` naming its own ``path:line``.
    Each line read, blank or not, is fed to ``digest`` (a ``hashlib``
    object) when one is given."""
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if digest is not None:
                digest.update(line)
            if not line.strip(b" \t\r\n"):
                continue
            try:
                record = _decode_line(line.decode("utf-8"))
            except ValueError as exc:  # bad UTF-8, bad JSON, or an int too long to convert
                message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise CorpusError(f"{path}:{lineno}: malformed record: {message}") from exc
            # only a \u escape can produce a surrogate (the decoder joins valid pairs)
            if b"\\u" in line and _has_lone_surrogate(record):
                raise CorpusError(f"{path}:{lineno}: malformed record: lone surrogate escape")
            if type(record) is not dict:
                raise CorpusError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


@contextmanager
def _replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A file open for writing at ``.<name>.<pid>.tmp`` beside ``path``
    (UTF-8 text, or bytes when ``binary``), renamed over ``path`` when the
    block ends: an error or an interrupt while writing leaves the old file
    (or none) and no temp file behind. An ``OSError`` creating the temp file
    or renaming it names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = tmp.open("wb") if binary else tmp.open("w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


# lines joined and encoded together: a short run keeps a writer's transient
# copies small and writes as fast as a long one
_WRITE_RUN_LENGTH = 64


def write_lines(path: str | Path, lines: Iterable[str], digest=None) -> None:
    """Write each string plus a newline to ``path`` in UTF-8 through
    ``_replacing``, a run of lines at a time; every byte written is fed to
    ``digest`` (a ``hashlib`` object) too when one is given."""
    lines = iter(lines)
    with _replacing(path, binary=True) as fh:
        while run := list(islice(lines, _WRITE_RUN_LENGTH)):
            data = ("\n".join(run) + "\n").encode("utf-8")
            if digest is not None:
                digest.update(data)
            fh.write(data)


# built once: json.dumps with options builds a new encoder per call. Records
# are trees, so the encoder skips its circular-reference bookkeeping
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)


def write_json_lines(path: str | Path, records: Iterable, encoder=_ENCODER) -> None:
    """``write_lines`` of one JSON record per line, each encoded by ``encoder``."""
    write_lines(path, map(encoder.encode, records))


# ---------------------------------------------------------------------------
# report files


_REPORT_FIELDS = (
    ("model", (str,)),
    ("metric", (str,)),
    ("mean", (int, float)),
    ("std", (int, float)),
    ("n", (int,)),
    ("n_skipped", (int,)),
)


def load_report_records(path: str | Path) -> list[dict]:
    """Read a ``metrics.save_report`` file; a malformed line, a record missing a
    field (or holding the wrong type or a negative count), a ``mean`` or ``std``
    past the float range, an unknown ``report_format``, a record of another
    format than the first record's (formats 1 and 2 define CEP differently), a
    second model's record and a repeated metric raise ``CorpusError`` with
    path:line."""
    path = Path(path)
    records: list[dict] = []
    for lineno, record in read_json_lines(path):
        version = record.get("report_format", 1)
        if type(version) is not int or version not in (1, REPORT_FORMAT):
            raise CorpusError(f"{path}:{lineno}: unknown report_format {version!r}")
        for key, types in _REPORT_FIELDS:
            if key not in record:
                raise CorpusError(f"{path}:{lineno}: report record missing {key!r}")
            if type(record[key]) not in types or types == (int,) and record[key] < 0:  # counts
                raise CorpusError(f"{path}:{lineno}: report field {key!r} has {record[key]!r}")
        for key in ("mean", "std"):
            try:
                float(record[key])
            except OverflowError:
                raise CorpusError(
                    f"{path}:{lineno}: report field {key!r} does not fit a float"
                ) from None
        reasons = record.get("skip_reasons", {})
        if type(reasons) is not dict or any(type(c) is not int or c < 0 for c in reasons.values()):
            raise CorpusError(f"{path}:{lineno}: report field 'skip_reasons' has {reasons!r}")
        first = records[0].get("report_format", 1) if records else version
        if version != first:
            raise CorpusError(f"{path}:{lineno}: report_format {version} record in a report "
                              f"of report_format {first}")
        if records and record["model"] != records[0]["model"]:
            raise CorpusError(f"{path}:{lineno}: record of model {record['model']!r} in the "
                              f"report of model {records[0]['model']!r}")
        if any(r["metric"] == record["metric"] for r in records):
            raise CorpusError(f"{path}:{lineno}: second record of metric {record['metric']!r}")
        records.append(record)
    return records


def format_report_table(records: Iterable[dict]) -> str:
    """Aligned-column text table of report records, as ``BiasReport.to_records``
    gives them and ``load_report_records`` reads them: one row per record."""
    rows = [("model", "metric", "mean", "std", "n", "skipped")]
    rows += (
        (r["model"], r["metric"], f"{r['mean']:.4f}", f"{r['std']:.4f}", str(r["n"]),
         str(r["n_skipped"]))
        for r in records
    )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)
