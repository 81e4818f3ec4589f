"""Benchmark entry point: run one workload of microreserve and report its metrics.

    python3 perfbench/run.py --workload rl_train --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout. Each measured run is one
``microreserve run`` in a fresh child process (child.py), one at a time, with
BLAS pinned to one thread, repeated on the seed's input until ``--seconds``
is used up. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json
from untraced children, each the best of the runs. ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics as medians
over the traced ones. Every child is gated (exit code, manifest stage,
output hashes, one output digest for every run), and the golden single-claim
``verify`` must pass once per invocation. The last line of stdout is one
JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6  # set-up-only children per invocation, for a steadier setup_s
MIN_RUNS = 3  # untraced children per --trace 0 invocation, even past --seconds
INVOCATION_BUDGET_S = 150.0  # start no child after this, whatever --seconds says
MAX_FAILURES = 2  # give up on an invocation after this many failed children


class ChildFailed(Exception):
    pass


def percentile_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it;
    with too few samples for any percentile, every sample instead."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    ordered = sorted(values)
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            return text + f", p{p:g} {ordered[math.ceil(p / 100 * n) - 1]:.6g})"
    return text + ") " + " ".join(f"{v:.4g}" for v in values)


class Bench:
    """One invocation: set-up, gated child runs, and their samples."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = os.path.join(root, ".perfbench", f"{workload}-s{seed}-p{os.getpid()}")
        self.env = {**os.environ, **BLAS_PINS}
        self.env.pop("PYTHONPATH", None)
        self.csv_path: str | None = None
        self.n_claims = 0
        self.digest: str | None = None
        self.setups: list[float] = []
        self.samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _write_config(self, out_dir: str, name: str) -> str:
        path = os.path.join(self.work, name)
        cfg = workloads.run_config(self.workload, self.seed, out_dir, self.csv_path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def _child(self, cfg_path: str, tag: str, extra: list[str]) -> dict:
        result_path = os.path.join(self.work, f"result_{tag}.json")
        remaining = INVOCATION_BUDGET_S + 25.0 - (time.monotonic() - self.started)
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--src", self.src,
             "--config", cfg_path, "--result", result_path, "--launched", repr(launched)]
            + extra,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(remaining, 5.0),
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise ChildFailed(f"child exited {proc.returncode}: {tail[0]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["wall_s"] = time.monotonic() - launched
        return result

    def verify(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "microreserve.cli", "verify"],
            env={**self.env, "PYTHONPATH": self.src},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            self.problems.append(f"verify failed with exit code {proc.returncode}")

    def set_up(self) -> None:
        """Write the input, count its claims, and sample set-up time.

        Set-up-only children stop right after config load; the first one also
        counts the portfolio's claims, outside any timing.
        """
        os.makedirs(self.work, exist_ok=True)
        self.verify()
        self.csv_path = workloads.prepare_input(
            self.workload, self.seed, self.work, self.env, self.src
        )
        config = self._write_config(self.work, "config_probe.json")
        probe = self._child(config, "count", ["--setup-only", "--count-claims"])
        self.n_claims = probe["n_claims"]
        self.setups.append(probe["setup_s"])
        for i in range(1, SETUP_PROBES):
            self.setups.append(self._child(config, f"setup_{i}", ["--setup-only"])["setup_s"])

    def measured_run(self, index: int, traced: bool) -> None:
        """One gated child run; keeps its sample when every gate passes."""
        out_dir = os.path.join(self.work, f"out_{index}")
        cfg_path = self._write_config(out_dir, f"config_{index}.json")
        spans = os.path.join(self.work, f"spans_{index}.json")
        extra = ["--spans", spans, "--run-id", f"{self.workload}-s{self.seed}-{index}"] if traced else []
        self.attempted += 1
        try:
            sample = self._child(cfg_path, str(index), extra)
        except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"run {index}: {exc}")
            return
        problems, manifest = checks.check_run(out_dir)
        if not problems:
            digest = checks.output_digest(manifest["outputs"])
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"output digest {digest} differs from {self.digest}")
        if problems:
            self.failed += 1
            self.problems.extend(f"run {index}: {p}" for p in problems)
            return
        sample.update(
            traced=traced,
            ratios=checks.ocl_ratios(manifest),
            bad_cells=sum(checks.count_bad_cells(p) for p in checks.csv_files(out_dir)),
            bytes_written=checks.bytes_written(out_dir),
        )
        if traced:
            sample["layers"] = tracer.layer_metrics(tracer.load_table(spans))
            os.remove(spans)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.samples.append(sample)
        self.setups.append(sample["setup_s"])

    def _enough(self, trace: bool) -> bool:
        untraced = sum(1 for s in self.samples if not s["traced"])
        if trace:
            return 0 < untraced < len(self.samples)
        return untraced >= MIN_RUNS

    def run(self, trace: bool) -> None:
        """Untraced children until ``--seconds`` is used up; with ``trace``
        every second child is traced."""
        self.set_up()
        deadline = time.monotonic() + self.seconds
        index = 0
        while True:
            self.measured_run(index, traced=trace and index % 2 == 1)
            index += 1
            now = time.monotonic()
            if self.failed > MAX_FAILURES or now - self.started > INVOCATION_BUDGET_S:
                return
            walls = [s["wall_s"] for s in self.samples] or [0.0]
            if self._enough(trace) and now + statistics.median(walls) > deadline:
                return


def end_to_end(bench: Bench) -> dict[str, tuple[float, list[float]]]:
    """Metric -> (reported value, samples).

    The value is the best run: the least time or memory, the most claims per
    second. Other tenants of the host only ever slow a run, so the best run
    is the steadiest estimate of the program's own cost. ``setup_s`` is the
    median of every set-up.
    """
    runs = [s for s in bench.samples if not s["traced"]]
    if not runs or not bench.setups:
        return {}
    per_run = {
        "run_s": (min, [s["run_s"] for s in runs]),
        "claims_per_s": (max, [bench.n_claims / s["run_s"] for s in runs]),
        "cpu_s": (min, [s["cpu_s"] for s in runs]),
        "peak_rss_mb": (min, [s["peak_rss_mb"] for s in runs]),
    }
    out = {name: (best(values), values) for name, (best, values) in per_run.items()}
    out["setup_s"] = (statistics.median(bench.setups), list(bench.setups))
    return out


def per_layer(bench: Bench) -> dict[str, tuple[float, list[float]]]:
    """Metric -> (median over traced runs, samples), plus the tracing overhead."""
    traced = [s for s in bench.samples if s["traced"]]
    untraced = [s for s in bench.samples if not s["traced"]]
    if not traced or not untraced:
        return {}
    samples: dict[str, list[float]] = {}
    for s in traced:
        for name, v in s["layers"].items():
            samples.setdefault(name, []).append(v)
        samples.setdefault("cli.bytes_written", []).append(s["bytes_written"])
        samples.setdefault("cli.bad_cells", []).append(s["bad_cells"])
    for model in checks.MODELS:
        ratio = traced[0]["ratios"].get(model)
        samples[f"evaluation.{model}_ocl_err"] = [abs(ratio - 1.0) if ratio is not None else 0.0]
    samples["traced_run_s"] = [s["run_s"] for s in traced]
    base = statistics.median(s["run_s"] for s in untraced)
    samples["trace_overhead_share"] = [
        (statistics.median(samples["traced_run_s"]) - base) / base
    ]
    return {name: (statistics.median(v), v) for name, v in samples.items()}


def largest_shares(metrics: dict, units: dict, top: int = 5) -> list[tuple[str, float]]:
    """The per-layer seconds metrics with the largest share of the traced run."""
    total = metrics["traced_run_s"][0]
    shares = [
        (name, value / total)
        for name, (value, _samples) in metrics.items()
        if units.get(name) == "s" and name != "traced_run_s"
    ]
    return sorted(shares, key=lambda item: -item[1])[:top]


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool):
    bench = Bench(root, workload, seed, seconds)
    try:
        bench.run(trace)
    except (ChildFailed, subprocess.SubprocessError, OSError, KeyError) as exc:
        bench.problems.append(f"set-up failed: {exc}")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass  # another invocation still uses it
    metrics = per_layer(bench) if trace else end_to_end(bench)
    return bench, metrics


def report(title: str, bench: Bench, metrics: dict, units: dict) -> None:
    print(f"== {title} seed {bench.seed}: {bench.attempted} runs, {bench.failed} failed, "
          f"{bench.n_claims} claims, output digest {bench.digest}")
    for problem in bench.problems:
        print(f"   FAIL {problem}")
    for name, (value, samples) in metrics.items():
        print(f"   {name:30s} {value:<14.6g} {units.get(name, '?'):6s} "
              f"{percentile_summary(samples)}")
    if "traced_run_s" in metrics:
        print("   largest shares of traced run_s: " + ", ".join(
            f"{name} {share:.1%}" for name, share in largest_shares(metrics, units)))


def load_units(root: str) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "microreserve", "cli.py")):
        print("perfbench: run from the root of a microreserve checkout", file=sys.stderr)
        return 2
    units = load_units(root)

    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    correct = True
    out = {}
    for workload, trace in runs:
        bench, metrics = run_workload(root, workload, args.seed, args.seconds, trace)
        report(f"{workload} trace {int(trace)}", bench, metrics, units)
        if not metrics:
            print(f"perfbench: no run of {workload} passed its checks", file=sys.stderr)
            return 1
        attempted += bench.attempted
        failed += bench.failed
        correct = correct and not bench.problems
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, _samples) in metrics.items():
            out[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
