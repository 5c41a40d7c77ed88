"""Benchmark for the crs-bias command-line pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload tgredial-popnudge --seed 1 --seconds 3 --trace 0

It builds the workload's inputs from the seed, runs the five commands
(generate, stats, augment, evaluate, report) back to back against the
checkout's ``src``, each in a fresh interpreter, checks every output, and
prints one metric per line followed by a JSON summary as the last line.

``--trace 0`` runs the commands as a user would and reports the end-to-end
metrics: each command is rerun, and ``import crs_bias.cli`` sampled in a
fresh interpreter, until its samples last ``--seconds`` (3 to 5 samples for
start-up, 1 to 5 per command), and the median is reported. ``--trace 1`` runs each command through ``traced_cli.py``, which
records spans around the calls the CLI makes into the package, samples
``python -X importtime``, and reports the per-layer metrics.

Everything a run writes goes under ``.bench_work/`` in the checkout. The
inputs and outputs are deleted at the end; the result record (machine facts,
input and output digests, checks, metrics) and the spans are kept in
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
import workload

# Each timing is the median of samples that together last at least
# --seconds, within these counts: a short command is dominated by start-up
# time, which varies by 10-20% from one sample to the next on a shared host.
MIN_SETUP_SAMPLES = 3
MAX_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
IMPORT_CLI = "import crs_bias.cli"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


class Spawner:
    """Runs children through ``spawner.py``, started while this process is
    still small, so each child's peak RSS is its own."""

    def __init__(self, env: dict) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": [sys.executable, *argv], "stdout": str(stdout), "stderr": str(stderr)}
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        return json.loads(self._process.stdout.readline())

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()


def import_cli(spawner: Spawner, options: list[str], work: Path) -> tuple[float, str]:
    err = work / "import.err"
    result = spawner.run([*options, "-c", IMPORT_CLI], work / "import.out", err)
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if result["exit_code"] != 0:
        raise SystemExit(f"{IMPORT_CLI} failed:\n{stderr}")
    return result["seconds"], stderr


def sample_setup(spawner: Spawner, work: Path, seconds: float) -> list[float]:
    """Fresh-interpreter ``import crs_bias.cli`` times."""
    samples: list[float] = []
    while len(samples) < MIN_SETUP_SAMPLES or (sum(samples) < seconds and len(samples) < MAX_SAMPLES):
        samples.append(import_cli(spawner, [], work)[0])
    return samples


def sample_importtime(spawner: Spawner, work: Path) -> dict[str, float]:
    samples = [spans.parse_importtime(import_cli(spawner, ["-X", "importtime"], work)[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_command(spawner: Spawner, w: workload.Workload, work: Path, command: str, traced: bool) -> dict:
    prefix = [str(TRACED_CLI), str(work / f"{command}.spans.jsonl")] if traced else ["-m", "crs_bias.cli"]
    argv = [*prefix, command, "--config", str(w.config)]
    return {"command": command, **spawner.run(argv, work / f"{command}.out", work / f"{command}.err")}


def check_command(w: workload.Workload, work: Path, op: dict) -> None:
    command = op["command"]
    start = time.perf_counter()
    if op["exit_code"] != 0:
        stderr = (work / f"{command}.err").read_text(errors="replace").strip()
        op["problems"] = [f"exit code {op['exit_code']}: {stderr[-500:]}"]
    else:
        stdout = (work / f"{command}.out").read_text(encoding="utf-8")
        try:
            op["problems"] = checks.CHECKS[command](w, stdout)
        except Exception as exc:  # a missing or malformed output is a failed check
            op["problems"] = [f"check raised {exc.__class__.__name__}: {exc}"]
    op["check_s"] = time.perf_counter() - start


def run_pipeline(spawner: Spawner, w: workload.Workload, work: Path, traced: bool) -> tuple[list[dict], float]:
    """The five commands back to back, each in a fresh interpreter, then
    every output check. Returns one record per command and the pipeline time."""
    start = time.perf_counter()
    ops = [run_command(spawner, w, work, command, traced) for command in spans.COMMANDS]
    pipeline_s = time.perf_counter() - start
    for op in ops:
        check_command(w, work, op)
    return ops, pipeline_s


def repeat_commands(spawner: Spawner, w: workload.Workload, work: Path, ops: list[dict],
                    seconds: float) -> None:
    """Rerun, in pipeline order, each command whose samples last less than
    ``seconds`` in all; every rerun is checked like the first run."""
    def wanted(command: str) -> bool:
        samples = [op["seconds"] for op in ops if op["command"] == command]
        return sum(samples) < seconds and len(samples) < MAX_SAMPLES

    while any(wanted(c) for c in spans.COMMANDS):
        for command in filter(wanted, spans.COMMANDS):
            ops.append(run_command(spawner, w, work, command, traced=False))
            check_command(w, work, ops[-1])


def machine_facts() -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **{package: version(package) for package in ("numpy", "scipy", "pyyaml", "requests")},
    }


def output_digests(w: workload.Workload) -> dict[str, str]:
    return {
        str(p.relative_to(w.output_dir)): workload.sha256_of(p)
        for p in sorted(w.output_dir.rglob("*")) if p.is_file()
    }


def tracing_overhead(untraced_path: Path, traced_ops: list[dict]) -> dict[str, float] | None:
    """Traced minus untraced wall time per command, when an untraced run of
    the same workload and seed was made in this checkout."""
    if not untraced_path.is_file():
        return None
    untraced = json.loads(untraced_path.read_text(encoding="utf-8"))["metrics"]
    return {op["command"]: op["seconds"] - untraced[f"{op['command']}_s"] for op in traced_ops}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time each --trace 0 timing is sampled for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, spawner: Spawner, root: Path) -> int:
    units = declared_units(root, args.trace)
    spec = workload.WORKLOADS[args.workload]
    label = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / label
    results = root / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    w = workload.build(spec, args.seed, work / "inputs")
    record = {"workload": spec.name, "why": spec.why, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "inputs_s": time.perf_counter() - started,
              "input_digests": w.digests}

    if args.trace:
        metrics = sample_importtime(spawner, work)
        ops, _ = run_pipeline(spawner, w, work, traced=True)
        records = [r for c in spans.COMMANDS if (work / f"{c}.spans.jsonl").is_file()
                   for r in spans.read_spans(work / f"{c}.spans.jsonl")]
        metrics.update(spans.layer_metrics(records))
        record["commands"] = spans.command_accounting(records)
        record["counter_errors"] = [f"{r['name']}: {r['counts']['error']}"
                                    for r in records if "error" in r["counts"]]
        record["tracing_overhead_s"] = tracing_overhead(
            results / f"{spec.name}-seed{args.seed}-trace0.json", ops)
        with (results / f"{label}.spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
    else:
        setup = sample_setup(spawner, work, args.seconds)
        ops, pipeline_s = run_pipeline(spawner, w, work, traced=False)
        repeat_commands(spawner, w, work, ops, args.seconds)
        metrics = {f"{c}_s": statistics.median(op["seconds"] for op in ops if op["command"] == c)
                   for c in spans.COMMANDS}
        metrics["pipeline_s"] = pipeline_s
        metrics["peak_rss_mb"] = max(op["rss_kib"] for op in ops) / 1024.0
        metrics["setup_s"] = statistics.median(setup)
        record["setup_samples_s"] = setup
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    if not args.trace:
        metrics["success_rate"] = (attempted - failed) / attempted

    record.update(output_digests=output_digests(w), operations=ops, metrics=metrics)
    (results / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED {op['command']}: {problem}", file=sys.stderr)
    for problem in record.get("counter_errors", ()):
        print(f"counter error {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "crs_bias" / "cli.py").is_file():
        print(f"no crs_bias sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    spawner = Spawner(env)
    try:
        return measure(args, spawner, root)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
