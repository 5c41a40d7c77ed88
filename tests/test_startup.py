"""Each command imports only what it runs.

Every test starts a fresh interpreter: ``import crs_bias.cli``, ``--help`` and
``report`` load no numpy; ``stats`` loads neither the generator nor the
metrics; and ``evaluate``'s forked loaders import no module of their own.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import crs_bias

DATA = Path(__file__).parent / "data"
SRC = Path(crs_bias.__file__).parents[1]

# runs main(argv) and writes the names in sys.modules to the file named first
_MODULES_AFTER = """
import json, sys
from crs_bias.cli import main
out, argv = sys.argv[1], sys.argv[2:]
try:
    status = main(argv)
except SystemExit as exc:
    status = exc.code
json.dump({"status": status, "modules": sorted(sys.modules)}, open(out, "w"))
"""


def _python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def _modules_after(tmp_path: Path, argv: list[str]) -> list[str]:
    """The modules loaded in a fresh interpreter once ``main(argv)`` returns 0."""
    out = tmp_path / "modules.json"
    result = _python(["-c", _MODULES_AFTER, str(out), *argv])
    after = json.loads(out.read_text())
    assert after["status"] == 0, result.stderr
    return after["modules"]


def _numpy(modules) -> list[str]:
    return [m for m in modules if m == "numpy" or m.startswith("numpy.")]


def _imported(importtime: str) -> list[str]:
    """The module named on each line of ``python -X importtime`` output."""
    return re.findall(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", importtime, re.M)


def _workspace(tmp_path: Path, n_runs: int = 1) -> Path:
    """The bundled fixture with ``n_runs`` copies of its run; the config's path."""
    runs = []
    for n in range(n_runs):
        runs.append(tmp_path / f"model_{n}.jsonl")
        shutil.copy(DATA / "run_small.jsonl", runs[-1])
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {
            "corpus": str(DATA / "corpus_small.jsonl"),
            "catalog": str(DATA / "catalog_small.jsonl"),
            "runs": [str(run) for run in runs],
            "output_dir": str(tmp_path / "out"),
        },
        "popularity": {"eta": {"kind": "count_threshold", "min_count": 1}},
    }))
    return config


def test_importing_the_cli_loads_no_numpy():
    code = "import sys, crs_bias.cli; print(sorted(m for m in sys.modules if 'numpy' in m))"
    result = _python(["-c", code])
    assert result.stdout == "[]\n", result.stderr


def test_importing_the_package_loads_no_module_and_lists_every_name():
    code = ("import json, sys, crs_bias; print(json.dumps([sorted(dir(crs_bias)), "
            "sorted(m for m in sys.modules if m.startswith('crs_bias.'))]))")
    result = _python(["-c", code])
    listed, loaded = json.loads(result.stdout)
    assert [name for name in listed if not name.startswith("_")] == sorted(crs_bias.__all__)
    assert loaded == []


def test_help_loads_no_numpy(tmp_path):
    assert _numpy(_modules_after(tmp_path, ["--help"])) == []
    result = _python(["-X", "importtime", "-m", "crs_bias.cli", "--help"])
    assert result.returncode == 0 and "usage: crs-bias" in result.stdout
    assert _numpy(_imported(result.stderr)) == []


def test_report_loads_no_numpy(tmp_path):
    config = _workspace(tmp_path)
    assert _python(["-m", "crs_bias.cli", "evaluate", "--config", str(config)]).returncode == 0
    assert _numpy(_modules_after(tmp_path, ["report", "--config", str(config)])) == []
    result = _python(["-X", "importtime", "-m", "crs_bias.cli", "report", "--config", str(config)])
    assert result.stdout == (tmp_path / "out" / "report_table.txt").read_text()
    assert _numpy(_imported(result.stderr)) == []


def test_stats_loads_neither_the_generator_nor_the_metrics(tmp_path):
    modules = _modules_after(tmp_path, ["stats", "--config", str(_workspace(tmp_path))])
    assert "crs_bias.corpus" in modules and "crs_bias.popularity" in modules
    assert "crs_bias.synthgen" not in modules and "crs_bias.metrics" not in modules


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_evaluate_loaders_import_no_module_of_their_own(tmp_path):
    # one usable CPU, so one loader process loads the three runs in turn; a
    # module it imported after the fork would print an importtime line of
    # its own, so the parent's module would be listed twice
    config = _workspace(tmp_path, n_runs=3)
    code = (f"import os, runpy; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}}); "
            "runpy.run_module('crs_bias.cli', run_name='__main__', alter_sys=True)")
    result = _python(["-X", "importtime", "-c", code, "evaluate", "--config", str(config)])
    assert result.returncode == 0, result.stderr
    # numpy itself lists a module twice in one process
    alone = _python(["-X", "importtime", "-c", "import numpy"]).stderr
    repeated_alone = {m for m, n in Counter(_imported(alone)).items() if n > 1}
    ours = [m for m in _imported(result.stderr)
            if m.split(".")[0] in ("numpy", "crs_bias") and m not in repeated_alone]
    assert "crs_bias.metrics" in ours
    assert [m for m, n in Counter(ours).items() if n > 1] == []
