#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cryptobench CLI pipeline.

    python3 perfbench/run.py --workload sample [--seed 42] [--seconds S] [--trace 0]
    python3 perfbench/run.py --workload all

Generates the workload's inputs from the seed, runs its CLI stages in
this process through ``cryptobench.cli.main`` against the sources under
``src/`` of the checkout, checks every artifact, and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics: ``pipeline_s`` is the median of pass wall times that ``speed``
rescales to a reference core's speed, ``setup_s`` the median wall time of
set-up samples spread over the run, ``peak_rss_mb`` the process's
high-water mark.  ``--trace 1`` alternates traced and untraced passes and
reports per-layer metrics from spans around the public functions of each
module.  Scratch files, spans and stamped results go to ``.perfbench/``
in the checkout, outside every ``--out-dir``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Set-up samples are taken in batches before the first pass, after it and
# after the last one, because the host's speed changes over tens of
# seconds: over ten runs the median of 15 samples taken back to back spread
# 13-31% (first to third quartile), and 5-20% when spread this way.
SETUP_BATCH = 5
# One set-up sample: a fresh interpreter imports the program and writes the
# workload's inputs.
SETUP_PROGRAM = """\
import pathlib, sys
import numpy, cryptobench.cli
import workloads
workloads.write_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), pathlib.Path(sys.argv[3]))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Never let BLAS use more threads than this process may run on.

    Must run before numpy is imported.
    """
    cores = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(wanted)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (the
    source digest in the stamp identifies the code either way)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_seconds() -> int:
    """The run length the benchmark declares; the one place it is set."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def measure_setup(workload, seed, work_dir) -> list[float]:
    """Wall seconds of a batch of set-up samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE), *filter(None, [env.get("PYTHONPATH")])])
    samples = []
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, workload.name, str(seed), str(work_dir)],
            env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


class Runner:
    """Runs one workload's stage sequence repeatedly and checks each pass."""

    def __init__(self, workload, work_dir, ini, csv, expected_rows):
        self.workload = workload
        self.out = work_dir / "out"
        self.common = ["--config", str(ini), "--out-dir", str(self.out)]
        if csv is not None:
            self.common += ["--input", str(csv)]
        self.expected_rows = expected_rows
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def run_pass(self, probes=None) -> dict[str, float]:
        """One pass from prepare to compare; returns wall seconds by stage.

        ``probes``, a ``speed.Sampler``, probes the core's speed while the
        stages run.
        """
        from cryptobench import cli

        if self.out.exists():
            shutil.rmtree(self.out)
        codes, times = [], {}
        with probes or contextlib.nullcontext():
            first = time.perf_counter()
            for stage in self.workload.stages:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main([*stage, *self.common]))
                times[stage_label(stage)] = time.perf_counter() - start
            times["pipeline"] = time.perf_counter() - first

        for stage, code in zip(self.workload.stages, codes):
            label = stage_label(stage)
            try:
                found = [f"exit code {code}"] if code != 0 else checks.check_stage(
                    stage, self.out, self.expected_rows)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                found = [f"unreadable artifact: {exc!r}"]
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += [f"{label}: {p}" for p in found]
        self.digests.append(checks.tree_digest(self.out))
        if self.digests[-1] != self.digests[0]:
            self.failed += 1
            self.problems.append("out-dir bytes differ between passes of one run")
        return times


def stage_label(stage: tuple[str, ...]) -> str:
    return " ".join(stage[:2]) if stage[0] == "run" else stage[0]


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def compare_with_state(path: Path, record: dict) -> list[str]:
    """Check this run against earlier runs of the same sources and inputs."""
    problems = []
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier["inputs"] == record["inputs"]:
            if earlier["out_digest"] != record["out_digest"]:
                problems.append("out-dir bytes differ from an earlier run of this seed")
            for key, value in record["counts"].items():
                if key in earlier["counts"] and earlier["counts"][key] != value:
                    problems.append(f"exact count {key} changed between runs: "
                                    f"{earlier['counts'][key]} -> {value}")
            record["counts"] = {**earlier["counts"], **record["counts"]}
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return problems


def run_workload(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work_dir = STATE / "runs" / f"{workload.name}-s{args.seed}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)

    if not args.trace:
        setup_samples = measure_setup(workload, args.seed, work_dir)
    ini, csv = workloads.write_inputs(workload, args.seed, work_dir)
    expected_rows = workload.rows or 60

    import numpy
    import speed
    from cryptobench import _accel
    from cryptobench.config import config_hash, load_config

    runner = Runner(workload, work_dir, ini, csv, expected_rows)
    budget_end = time.perf_counter() + args.seconds
    probes = [] if args.trace else [speed.Sampler()]
    untraced = [runner.run_pass(probes[0] if probes else None)]
    # high-water mark of set-up plus one pass, whatever the number of passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, float] = {}
    traced = []
    if args.trace:
        # traced and untraced passes alternate after the first, warm-up
        # pass, and both are rescaled as in an end-to-end run, so the
        # overhead is not the host's change of speed between them
        tracer = tracing.Tracer()
        layers, traced_probes, untraced_probes = [], [], []
        while True:
            traced_probes.append(speed.Sampler())
            tracer.spans.clear()
            tracer.install()
            try:
                traced.append(runner.run_pass(traced_probes[-1]))
            finally:
                tracer.restore()
            layer = tracing.layer_metrics(tracer.spans)
            pass_counts = {k: layer[k][0] for k in tracing.EXACT_COUNTS}
            if counts and pass_counts != counts:
                runner.failed += 1
                runner.problems.append(f"exact counts differ between passes: "
                                       f"{counts} vs {pass_counts}")
            counts = pass_counts
            traced_s = traced[-1]["pipeline"]
            self_sum = sum(layer[f"{module}.self_s"][0] for module in tracing.MODULES)
            if abs(self_sum - traced_s) > 0.01 * traced_s:
                runner.failed += 1
                runner.problems.append(f"self times sum to {self_sum:.4f} s, traced "
                                       f"pipeline took {traced_s:.4f} s")
            layers.append(layer)
            untraced_probes.append(speed.Sampler())
            untraced.append(runner.run_pass(untraced_probes[-1]))
            if time.perf_counter() + traced_s + untraced[-1]["pipeline"] > budget_end:
                break
        tracer.write(work_dir / "spans.jsonl")
        metrics.update({name: (statistics.median(layer[name][0] for layer in layers), unit)
                        for name, (_, unit) in layers[0].items()})
        traced_s = statistics.median(speed.rescale(t["pipeline"], sampler.samples)
                                     for t, sampler in zip(traced, traced_probes))
        untraced_s = statistics.median(speed.rescale(t["pipeline"], sampler.samples)
                                       for t, sampler in zip(untraced[1:], untraced_probes))
        metrics["pipeline.artifact_bytes"] = (artifact_bytes(runner.out), "bytes")
        metrics["trace.pipeline_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
    else:
        setup_samples += measure_setup(workload, args.seed, work_dir)
        while time.perf_counter() + untraced[-1]["pipeline"] <= budget_end:
            probes.append(speed.Sampler())
            untraced.append(runner.run_pass(probes[-1]))
        setup_samples += measure_setup(workload, args.seed, work_dir)
        pipeline = [speed.rescale(t["pipeline"], sampler.samples)
                    for t, sampler in zip(untraced, probes)]
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["pipeline_s"] = (statistics.median(pipeline), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    cfg = load_config(ini)
    source_digest = checks.tree_digest(SRC / "cryptobench")
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "numba_enabled": bool(_accel.NUMBA_ENABLED),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_digest": source_digest,
        "config_hash": config_hash(cfg),
        "input_rows": expected_rows,
        "passes": len(untraced) + len(traced),
        "absent_hooks": sorted(tracer.absent) if args.trace else [],
    }
    mismatches = compare_with_state(
        STATE / f"state-{workload.name}-s{args.seed}.json",
        {"inputs": [source_digest, stamp["config_hash"], checks.tree_digest(work_dir, "input.csv")],
         "out_digest": runner.digests[0], "counts": counts})
    runner.failed += bool(mismatches)
    runner.problems += mismatches

    out = runner.out
    mses = {}
    for model in ("lstm", "svr", "poly"):
        path = out / f"{model}_result.json"
        if path.exists():
            mses[f"{model}_mse"] = json.loads(path.read_text(encoding="utf-8"))["mse_normalized"]
    stage_s = {k: statistics.median(t[k] for t in untraced) for k in untraced[0]}
    record = {"stamp": stamp, "stage_s": stage_s, "mse_normalized": mses,
              "untraced_passes_s": untraced, "traced_passes_s": traced,
              "setup_samples_s": [] if args.trace else setup_samples,
              "pipeline_rescaled_s": [] if args.trace else pipeline,
              "problems": runner.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {stamp['passes']} passes, "
          f"{runner.failed} of {runner.attempted} operations failed")
    for stage, seconds in stage_s.items():
        print(f"  {'wall.' + stage.split()[-1] + '_s':<28} {seconds:12.4f} s   (untraced median)")
    for name, value in mses.items():
        print(f"  {name:<28} {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:12.6g} {unit}")
    for problem in runner.problems:
        print(f"  FAILED CHECK: {problem}")
    print("  stamp " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0], flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="measurement budget (default: run_seconds of BENCHMARK.json); "
                             "at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cryptobench" / "cli.py").is_file():
        print(f"no cryptobench sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
