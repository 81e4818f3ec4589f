#!/usr/bin/env python3
"""Self time per claim of each stage of the fnn+cl run, from 50 to 800 claims per period.

    python tools/scaling.py [--sizes 50,200,800] [--repeats 3] [--seed 1]
        [--src DIR] [--json BENCH_scaling.json]

runs the ``portfolio_fit`` config of ``perfbench/workloads.py`` (fnn+cl,
complexity1) at each portfolio size, once with the program as it is and
once with ``gc.disable()`` over the whole run, ``--repeats`` times each,
every run in a fresh process with BLAS pinned to one thread. The repeats
go round the sizes and settings in turn, so a drift in the host's load
falls on all of them alike. Each run wraps the call sites that
``perfbench/tracer.py`` lists under its stage names, in that process only,
as ``tools/stage_memory.py`` does, and times the cyclic collector's passes
through ``gc.callbacks``. A stage's self time per claim is the minimum over
the repeats. The tool prints one row per stage, microseconds per claim for
each size with the collector on and off, and the rise per claim from each
size to the next; ``--json`` also writes every run. ``--src`` runs another
tree's ``src`` (an exported revision, say) under this tree's tracer.

One run, in this process (what each fresh process runs):

    python tools/scaling.py --one --claims-per-period 200 --collector off [--out RUN.json]

The rl model is left out: one rl fit at 50 claims per period takes 19-27 s,
and at 800 it would take several minutes a run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import workloads  # noqa: E402
from parity import BLAS_PINS  # noqa: E402
from stage_memory import _size  # noqa: E402

WORKLOAD = "portfolio_fit"
COLLECTOR = ("on", "off")
# Stages that build, censor, look up or aggregate claims (the data layer):
# their cost should grow with the portfolio and no faster. ``evaluation.split``
# only calls ``claims.censor``, whose span holds its work.
DATA_LAYER = (
    "simulator.simulate", "claims.discretize", "claims.censor",
    "credibility.init_tables", "claims.triangle", "claims.by_no", "evaluation.guard",
    "fnn.rows", "chainladder.rbns", "evaluation.evaluate",
)
RL_LEFT_OUT = (
    "The rl model is left out: one rl fit at 50 claims per period takes 19-27 s, and at "
    "800 it would take several minutes a run, so its stages are measured by perfbench's "
    "rl_train workload instead."
)


class CollectorClock:
    """Counts the cyclic collector's passes and adds up their wall time."""

    def __init__(self):
        self.passes = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.passes += 1
            self.seconds += time.perf_counter() - self._start


def run_one(claims_per_period: float, collector: str, seed: int, src: str) -> dict:
    """One traced run in this process: each stage's self seconds and the claim count."""
    os.environ.update(BLAS_PINS)  # before numpy is first imported
    sys.path.insert(0, src)
    import microreserve
    import tracer as tracer_module
    from microreserve import cli

    class ClaimCountingTracer(tracer_module.Tracer):
        def wrap(self, name, fn, post=None):
            if name == "simulator.simulate":
                def post(counters, args, kwargs, result):
                    counters["n_claims"] = len(result)
            return super().wrap(name, fn, post)

    work = tempfile.mkdtemp(prefix="scaling-")
    clock = CollectorClock()
    try:
        cfg = workloads.run_config(WORKLOAD, seed, os.path.join(work, "out"))
        cfg["data"]["claims_per_period"] = claims_per_period
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        cfg = cli.load_config(config_path, {})
        tracer = ClaimCountingTracer("scaling")
        tracer.install(microreserve)
        run = tracer.wrap(tracer_module.ROOT, cli.run_pipeline)
        if collector == "off":
            gc.disable()
        gc.callbacks.append(clock)
        try:
            run(cfg)
        finally:
            gc.callbacks.remove(clock)
            gc.enable()
            tracer.restore()
        spans_path = os.path.join(work, "spans.json")
        tracer.dump(spans_path)
        table = tracer_module.load_table(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "claims_per_period": claims_per_period,
        "collector": collector,
        "n_claims": table.counters["n_claims"],
        "run_s": table.total(tracer_module.ROOT),
        "gc_passes": clock.passes,
        "gc_s": clock.seconds,
        "self_s": table.self_by_name(),
    }


def child_run(size: float, collector: str, seed: int, src: str, out: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--one", "--claims-per-period", str(size),
        "--collector", collector, "--seed", str(seed), "--src", src, "--out", str(out),
    ]
    env = {**os.environ, **BLAS_PINS}
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL, timeout=1800)
    return json.loads(out.read_text(encoding="utf-8"))


def summarize(runs: list[dict], sizes: list[float]) -> dict:
    """Per size and collector setting: the least time per claim of each stage, and the rises."""
    table: dict[str, dict] = {}
    for size in sizes:
        table[f"{size:g}"] = entry = {}
        for collector in COLLECTOR:
            key = (size, collector)
            mine = [r for r in runs if (r["claims_per_period"], r["collector"]) == key]
            if not mine:
                continue
            n_claims = mine[0]["n_claims"]
            stages = sorted({name for r in mine for name in r["self_s"]})
            entry[collector] = {
                "n_claims": n_claims,
                "runs": len(mine),
                "run_s_min": min(r["run_s"] for r in mine),
                "gc_s_min": min(r["gc_s"] for r in mine),
                "us_per_claim": {
                    name: min(r["self_s"].get(name, 0.0) for r in mine) / n_claims * 1e6
                    for name in stages
                },
            }
    rises = {}
    keys = list(table)
    for before, after in zip(keys, keys[1:]):
        for collector in COLLECTOR:
            if collector in table[before] and collector in table[after]:
                low = table[before][collector]["us_per_claim"]
                high = table[after][collector]["us_per_claim"]
                rises.setdefault(f"{before}->{after}", {})[collector] = {
                    name: high[name] / low[name]
                    for name in DATA_LAYER
                    if low.get(name, 0.0) > 0 and name in high
                }
    return {"sizes": table, "rise_per_claim": rises}


def print_table(summary: dict) -> None:
    sizes = summary["sizes"]
    columns = [(size, c) for size, entry in sizes.items() for c in COLLECTOR if c in entry]
    print("microseconds of self time per claim (least of the repeats); collector on / off")
    print(f"{'stage':26}" + "".join(f"{size + ' ' + c:>12}" for size, c in columns))
    stages = sorted({name for size, c in columns for name in sizes[size][c]["us_per_claim"]})
    for name in stages:
        cells = "".join(
            f"{sizes[size][c]['us_per_claim'].get(name, 0.0):12.2f}" for size, c in columns
        )
        print(f"{name + (' *' if name in DATA_LAYER else ''):26}{cells}")
    print(f"{'claims':26}" + "".join(f"{sizes[s][c]['n_claims']:12d}" for s, c in columns))
    print(f"{'run_s':26}" + "".join(f"{sizes[s][c]['run_s_min']:12.3f}" for s, c in columns))
    print(f"{'gc_s':26}" + "".join(f"{sizes[s][c]['gc_s_min']:12.3f}" for s, c in columns))
    for step, by_collector in summary["rise_per_claim"].items():
        for c, rises in by_collector.items():
            worst = max(rises.items(), key=lambda kv: kv[1], default=("-", 0.0))
            print(f"rise per claim {step}, collector {c}: "
                  + ", ".join(f"{n} {r:.2f}x" for n, r in rises.items())
                  + f"; largest {worst[0]} {worst[1]:.2f}x")
    print("* data-layer stage")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,200,800")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="the workload seed")
    parser.add_argument("--json", default=None, help="write the summary and every run here")
    parser.add_argument("--one", action="store_true", help="one run in this process")
    parser.add_argument("--claims-per-period", type=_size, default=50)
    parser.add_argument("--collector", choices=COLLECTOR, default="on")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the microreserve sources")
    parser.add_argument("--out", default=None, help="with --one: write the run here")
    args = parser.parse_args(argv)

    if args.one:
        result = run_one(args.claims_per_period, args.collector, args.seed, args.src)
        if args.out:
            Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        else:
            print(json.dumps(result, indent=1))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sizes = [_size(s) for s in args.sizes.split(",")]
    runs = []
    tmp = Path(tempfile.mkdtemp(prefix="scaling-"))
    try:
        for repeat in range(args.repeats):
            for size in sizes:
                for collector in COLLECTOR:
                    run = child_run(size, collector, args.seed, args.src, tmp / "run.json")
                    runs.append(run)
                    print(f"repeat {repeat + 1}/{args.repeats}, {size:g} claims per period, "
                          f"collector {collector}: {run['run_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(runs, sizes)
    print_table(summary)
    if args.json:
        payload = {
            "what": f"Self time per claim of each traced stage of the {WORKLOAD} config "
            "(fnn+cl, complexity1) at several portfolio sizes, with the cyclic collector on "
            "(the program as it is) and off (gc.disable() over the whole run); each value is "
            "the least over the repeats, each run a fresh process with BLAS pinned to one "
            "thread.",
            "command": f"python tools/scaling.py --sizes {args.sizes} --repeats {args.repeats} "
            f"--seed {args.seed} --src {os.path.relpath(args.src, ROOT)} "
            f"--json {os.path.relpath(args.json, ROOT)}",
            "machine": f"{platform.machine()} Linux, Python {platform.python_version()}, "
            f"{os.cpu_count()} cores",
            "data_layer": list(DATA_LAYER),
            "left_out": RL_LEFT_OUT,
            **summary,
            "runs": runs,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
