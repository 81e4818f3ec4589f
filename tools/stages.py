#!/usr/bin/env python3
"""Self time, collector time and memory of each stage of one benchmark workload.

    python tools/stages.py [--workload portfolio_fit] [--sizes 50,200,800]
        [--repeats 3] [--seed 1] [--json BENCH_stages.json] [--against REV]

runs the workload's ``perfbench/workloads.py`` config at each portfolio size
(``--sizes`` takes simulated workloads only; without it, the workload's own
size) ``--repeats`` times in three fresh processes, BLAS pinned to one
thread: two time runs, one as the program is and one with ``gc.disable()``
over the whole run, and a memory run. With ``--against REV`` the revision
and this tree's ``src`` sit at paths of one length (``ab.export_trees``),
the two trees run back to back and each goes first in half the repeats, in
an order ``--seed`` shuffles (``ab.pair_orders``); without it, only this
tree runs.

Every run wraps the call sites that ``perfbench/tracer.py`` lists under its
stage names and times the cyclic collector's passes through
``gc.callbacks``. A time run keeps the tracer's spans, which give each
stage's self time. A memory run keeps no spans and reads the live resident
set (``/proc/self/statm``, so Linux only) and the process's peak
(``ru_maxrss``) at each stage-level span's entry and exit. A stage's own
rise is how far the peak rose during its calls less its child stages' part,
so the own rises add up to the run's peak less the peak at its start.

Time and memory are read in separate runs because the spans are memory of
their own: a run that kept them peaked 8 MB higher at 800 claims per period
(195.1 MB against 186.8), where ``claims.by_no`` makes 36,067 calls and
``nets.fnn.forward`` 13,845. Memory is read at stage-level spans only, not
at ``nets.*`` or the method spans (``claims.by_no`` and the SAC update's
phases), whose growth falls to the stage that calls them: one read costs
about 2.8 us (timeit, 2-core x86_64) against a ``claims.by_no`` call's 0.4 us
of self time, so reading at every edge would add about 0.3 s to that run.

Per tree, the tool prints each stage's least self time per claim, the rise
per claim of each data-layer stage from one size to the next, each stage's
median own rise and the median peak. ``--json`` writes them and every run as
the workload's section of the file, keeping the other sections.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import workloads  # noqa: E402
from parity import BLAS_PINS  # noqa: E402

COLLECTOR = ("on", "off")
# (probe, collector) of the runs at each size: time with the collector on and off, and memory.
PROBES = (("time", "on"), ("time", "off"), ("memory", "on"))
# Stages that build, censor, look up or aggregate claims (the data layer):
# their cost should grow with the portfolio and no faster. ``evaluation.split``
# only calls ``claims.censor``, whose span holds its work.
DATA_LAYER = (
    "simulator.simulate", "claims.discretize", "claims.censor",
    "credibility.init_tables", "claims.triangle", "claims.by_no", "evaluation.guard",
    "fnn.rows", "chainladder.rbns", "evaluation.evaluate",
)
# The child runs ``run_one`` through ``-c``, so the tool has no single-run mode.
CHILD = "import json, sys; import stages; stages.run_one(**json.loads(sys.argv[1]))"
MB = 1024.0 * 1024.0
PAGE = os.sysconf("SC_PAGE_SIZE")


class CollectorClock:
    """Counts the cyclic collector's passes and adds up their wall time."""

    passes, seconds, _start = 0, 0.0, 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.passes += 1
            self.seconds += time.perf_counter() - self._start


def read_rss(statm: int) -> tuple[float, float]:
    """The live resident set (from an open ``/proc/self/statm``) and the peak, in MB."""
    live = int(os.pread(statm, 128, 0).split()[1]) * PAGE / MB
    return live, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stage_tracer(tracer_module, statm: int | None):
    """A perfbench Tracer that times every span and counts the claims, or, given an open
    ``/proc/self/statm``, keeps no spans and reads memory at the stage-level ones."""
    fine = {span for *_, span in tracer_module.METHOD_SPANS}

    def count_claims(counters, args, kwargs, result):
        counters["n_claims"] = len(result)

    class StageTracer(tracer_module.Tracer):
        def __init__(self):
            super().__init__("stages")
            self.memory: dict[str, dict] = {}
            self.rises: list[float] = []  # per open stage: its child stages' peak rise

        def wrap(self, name, fn, post=None):
            if statm is None:
                return super().wrap(name, fn, count_claims if name == "cli.acquire" else post)
            if name.startswith("nets.") or name in fine:
                return fn
            stage = self.memory.setdefault(name, {
                "calls": 0, "entry_live_mb": None, "exit_live_mb": 0.0, "peak_at_exit_mb": 0.0,
                "own_peak_rise_mb": 0.0,
            })
            rises = self.rises

            def measured(*args, **kwargs):
                live, peak = read_rss(statm)
                if stage["entry_live_mb"] is None:
                    stage["entry_live_mb"] = live
                rises.append(0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_live, exit_peak = read_rss(statm)
                    rise = exit_peak - peak
                    stage["calls"] += 1
                    stage["exit_live_mb"] = max(stage["exit_live_mb"], exit_live)
                    stage["peak_at_exit_mb"] = exit_peak
                    stage["own_peak_rise_mb"] += rise - rises.pop()
                    if rises:
                        rises[-1] += rise

            return measured

    return StageTracer()


def run_one(workload: str, size: float, probe: str, collector: str, seed: int, src: str,
            csv: str | None, out: str) -> None:
    """One traced run in this process; writes its stage times or memory to ``out``."""
    os.environ.update(BLAS_PINS)  # before numpy is first imported
    sys.path.insert(0, src)
    import microreserve
    import tracer as tracer_module
    from microreserve import cli

    statm = os.open("/proc/self/statm", os.O_RDONLY)
    clock = CollectorClock()
    work = tempfile.mkdtemp(prefix="stages-")
    try:
        cfg = workloads.run_config(workload, seed, os.path.join(work, "out"), csv)
        if csv is None:
            cfg["data"]["claims_per_period"] = size
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        cfg = cli.load_config(config_path, {})
        tracer = stage_tracer(tracer_module, statm if probe == "memory" else None)
        tracer.install(microreserve)
        run = tracer.wrap(tracer_module.ROOT, cli.run_pipeline)
        if collector == "off":
            gc.disable()
        gc.callbacks.append(clock)
        start_live, start_peak = read_rss(statm)
        try:
            run(cfg)
        finally:
            gc.callbacks.remove(clock)
            gc.enable()
            tracer.restore()
        _, end_peak = read_rss(statm)
        result = {"claims_per_period": size, "probe": probe, "collector": collector,
                  "gc_passes": clock.passes, "gc_s": clock.seconds}
        if probe == "time":
            spans_path = os.path.join(work, "spans.json")
            tracer.dump(spans_path)
            table = tracer_module.load_table(spans_path)
            result.update(n_claims=table.counters["n_claims"], self_s=table.self_by_name(),
                          run_s=table.total(tracer_module.ROOT))
    finally:
        os.close(statm)
        shutil.rmtree(work, ignore_errors=True)
    if probe == "memory":
        result.update(start_live_mb=start_live, start_peak_mb=start_peak, peak_rss_mb=end_peak,
                      memory={name: s for name, s in tracer.memory.items() if s["calls"]})
    Path(out).write_text(json.dumps(result), encoding="utf-8")


def child_run(job: dict) -> dict:
    """``run_one(**job)`` in a fresh process with BLAS pinned to one thread; its result."""
    env = {**os.environ, **BLAS_PINS, "PYTHONPATH": str(ROOT / "tools")}
    cmd = [sys.executable, "-c", CHILD, json.dumps(job)]
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL, timeout=1800)
    return json.loads(Path(job["out"]).read_text(encoding="utf-8"))


def summarize(runs: list[dict], sizes: list[float]) -> dict:
    """One tree's runs: per size, each stage's least time per claim with the collector on
    and off, and its median own peak rise and the median peak; the rises between sizes."""
    table: dict[str, dict] = {}
    for size in sizes:
        table[f"{size:g}"] = entry = {}
        for probe, collector in PROBES:
            key = (size, probe, collector)
            mine = [r for r in runs if (r["claims_per_period"], r["probe"], r["collector"]) == key]
            if not mine:
                continue
            if probe == "memory":
                entry["memory"] = {
                    "runs": len(mine),
                    "own_peak_rise_mb": {
                        name: statistics.median(
                            r["memory"].get(name, {}).get("own_peak_rise_mb", 0.0) for r in mine
                        )
                        for name in sorted({name for r in mine for name in r["memory"]})
                    },
                    "peak_rss_mb_median": statistics.median(r["peak_rss_mb"] for r in mine),
                }
                continue
            n_claims = mine[0]["n_claims"]
            entry[collector] = {
                "n_claims": n_claims,
                "runs": len(mine),
                "run_s_min": min(r["run_s"] for r in mine),
                "gc_s_min": min(r["gc_s"] for r in mine),
                "us_per_claim": {
                    name: min(r["self_s"].get(name, 0.0) for r in mine) / n_claims * 1e6
                    for name in sorted({name for r in mine for name in r["self_s"]})
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


def print_table(tree: str, summary: dict) -> None:
    def table(title: str, columns: dict[str, dict], key: str, star: bool) -> None:
        print(f"{tree}: {title}")
        print(f"{'stage':26}" + "".join(f"{column:>12}" for column in columns))
        for name in sorted({name for cell in columns.values() for name in cell[key]}):
            label = name + (" *" if star and name in DATA_LAYER else "")
            print(f"{label:26}" + "".join(f"{cell[key].get(name, 0.0):12.2f}"
                                          for cell in columns.values()))

    def row(label: str, cells, key: str, fmt: str) -> None:
        print(f"{label:26}" + "".join(f"{cell[key]:12{fmt}}" for cell in cells))

    sizes = summary["sizes"]
    times = {f"{size} {c}": e[c] for size, e in sizes.items() for c in COLLECTOR if c in e}
    table("microseconds of self time per claim, least of the repeats; claims per period, "
          "collector on / off", times, "us_per_claim", True)
    row("claims", times.values(), "n_claims", "d")
    row("run_s", times.values(), "run_s_min", ".3f")
    row("gc_s", times.values(), "gc_s_min", ".3f")
    for step, by_collector in summary["rise_per_claim"].items():
        for c, rises in by_collector.items():
            worst = max(rises.items(), key=lambda kv: kv[1], default=("-", 0.0))
            print(f"rise per claim {step}, collector {c}: "
                  + ", ".join(f"{n} {r:.2f}x" for n, r in rises.items())
                  + f"; largest {worst[0]} {worst[1]:.2f}x")
    print("* data-layer stage")
    memory = {size: entry["memory"] for size, entry in sizes.items() if "memory" in entry}
    table("own rise of the process peak in MB, median of the repeats; claims per period",
          memory, "own_peak_rise_mb", False)
    row("peak MB", memory.values(), "peak_rss_mb_median", ".1f")


def write_json(path: str, workload: str, section: dict) -> None:
    """``section`` as the workload's entry of the file at ``path``, keeping the others."""
    payload = json.loads(Path(path).read_text(encoding="utf-8")) if os.path.exists(path) else {}
    payload["what"] = (
        "Per workload, tree and portfolio size: each traced stage's self time per claim (least "
        "of the repeats) with the cyclic collector on and off, and, from separate runs without "
        "spans, its own rise of the peak RSS and the run's peak (medians); each run a fresh "
        "process with BLAS pinned to one thread. A stage's own rise is growth past every "
        "earlier stage's peak, so only the totals compare across trees. See tools/stages.py."
    )
    payload["data_layer"] = list(DATA_LAYER)
    payload["workloads"] = dict(sorted({**payload.get("workloads", {}), workload: section}.items()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="portfolio_fit")
    parser.add_argument("--sizes", default=None, help="claims per period, comma-separated")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="the workload seed and the order seed")
    parser.add_argument("--json", default=None, help="write the workload's section here")
    parser.add_argument("--against", default=None, help="git revision to run beside this tree")
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    if args.sizes and "ingest" in spec:
        parser.error(f"--sizes applies to simulated workloads only; {args.workload} reads a "
                     f"CSV written at {spec['ingest']['claims_per_period']} claims per period")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    own_size = spec.get("ingest", spec["data"])["claims_per_period"]
    sizes = [float(s) for s in args.sizes.split(",")] if args.sizes else [own_size]
    runs = []
    tmp = Path(tempfile.mkdtemp(prefix="stages-"))
    try:
        if args.against:
            trees = dict(zip(ab.SIDES, (t / "src" for t in ab.export_trees(args.against, tmp))))
            orders = ab.pair_orders(args.repeats, args.seed)
        else:
            trees = {"this": ROOT / "src"}
            orders = [["this"]] * args.repeats
        env = {**os.environ, **BLAS_PINS}
        csv = workloads.prepare_input(args.workload, args.seed, str(tmp), env, str(ROOT / "src"))
        for repeat, order in enumerate(orders):
            for size in sizes:
                for probe, collector in PROBES:
                    for tree in order:
                        run = child_run({
                            "workload": args.workload, "size": size, "probe": probe,
                            "collector": collector, "seed": args.seed, "src": str(trees[tree]),
                            "csv": csv, "out": str(tmp / "run.json"),
                        })
                        runs.append({"tree": tree, **run})
                        done = f"peak {run['peak_rss_mb']:.1f} MB" if probe == "memory" else \
                            f"collector {collector}: {run['run_s']:.2f} s"
                        print(f"repeat {repeat + 1}/{args.repeats}, {tree}, {size:g} claims per "
                              f"period, {probe}, {done}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summaries = {tree: summarize([r for r in runs if r["tree"] == tree], sizes) for tree in trees}
    for tree, summary in summaries.items():
        print_table(tree, summary)
    if args.json:
        write_json(args.json, args.workload, {
            "command": " ".join(["python tools/stages.py", *(argv or sys.argv[1:])]),
            "machine": f"{platform.machine()} Linux, Python {platform.python_version()}, "
            f"{os.cpu_count()} cores",
            "trees": summaries,
            "runs": runs,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
