#!/usr/bin/env python3
"""Peak and live resident memory per stage of one benchmark workload.

One run, in this process:

    python tools/stage_memory.py --workload portfolio_fit --seed 1
        [--claims-per-period 800] [--src DIR] [--json OUT.json]

builds the workload's run config with ``perfbench/workloads.py`` (a simulated
workload can take another portfolio size), wraps the call sites that
``perfbench/tracer.py`` lists under its stage names, and runs
``cli.run_pipeline`` with BLAS pinned to one thread. At each stage's entry
and exit it reads the live resident set (``/proc/self/statm``, so Linux
only) and the process's peak (``getrusage``'s ``ru_maxrss``). Per stage it
prints the calls, the live RSS at the first entry and the largest at an
exit, the process peak at the last exit, and the stage's own rise of that
peak: the rise during its calls less the part its child stages account for.
The own rises add up to the run's peak less the peak when the run started.

Before and after, each run in a fresh process:

    python tools/stage_memory.py --compare BENCH_memory.json --against REV
        [--sizes 120,200,800] [--repeats 3]

sets up REV and this tree's ``src`` at paths of one length as
``tools/ab.py`` does, and runs the single-run mode above on each tree for
each portfolio size of the workload (``portfolio_fit`` unless
``--workload`` names another simulated one). Each tree goes first in half
the repeats (one of them in one more, for an odd count), in an order that
``--seed`` shuffles. It writes every run and each side's median peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import workloads  # noqa: E402
from parity import BLAS_PINS  # noqa: E402

MB = 1024.0 * 1024.0
PAGE = os.sysconf("SC_PAGE_SIZE")


class Rss:
    """Live resident set and the process's peak, in bytes."""

    def __init__(self):
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)

    def read(self) -> tuple[int, int]:
        live = int(os.pread(self.fd, 128, 0).split()[1]) * PAGE
        return live, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def close(self) -> None:
        os.close(self.fd)


def memory_tracer(tracer_module, rss: Rss):
    """A perfbench Tracer whose wrappers record memory per stage name."""

    class MemoryTracer(tracer_module.Tracer):
        def __init__(self):
            super().__init__("stage_memory")
            self.stages: dict[str, dict] = {}
            self.rises: list[int] = []  # per open span: its child spans' peak rise

        def wrap(self, name, fn, post=None):
            stage = self.stages.setdefault(
                name,
                {"calls": 0, "entry_live": None, "exit_live": 0, "peak": 0, "own_rise": 0},
            )
            rises = self.rises

            def traced(*args, **kwargs):
                live, peak = rss.read()
                if stage["entry_live"] is None:
                    stage["entry_live"] = live
                rises.append(0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_live, exit_peak = rss.read()
                    rise = exit_peak - peak
                    stage["calls"] += 1
                    stage["exit_live"] = max(stage["exit_live"], exit_live)
                    stage["peak"] = exit_peak
                    stage["own_rise"] += rise - rises.pop()
                    if rises:
                        rises[-1] += rise

            return traced

    return MemoryTracer()


def run_one(workload: str, seed: int, claims_per_period: float | None, src: str) -> dict:
    """One in-process run; returns its stage table and peaks in MB."""
    os.environ.update(BLAS_PINS)  # before numpy is first imported
    sys.path.insert(0, src)
    import microreserve
    import tracer as tracer_module
    from microreserve import cli

    rss = Rss()
    work = tempfile.mkdtemp(prefix="stage-memory-")
    try:
        csv_path = workloads.prepare_input(workload, seed, work, dict(os.environ), src)
        cfg = workloads.run_config(workload, seed, os.path.join(work, "out"), csv_path)
        if claims_per_period is not None:
            if csv_path is not None:
                raise SystemExit("--claims-per-period applies to simulated workloads only")
            cfg["data"]["claims_per_period"] = claims_per_period
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        cfg = cli.load_config(config_path, {})
        tracer = memory_tracer(tracer_module, rss)
        tracer.install(microreserve)
        run = tracer.wrap(tracer_module.ROOT, cli.run_pipeline)
        start_live, start_peak = rss.read()
        try:
            run(cfg)
        finally:
            tracer.restore()
        _, end_peak = rss.read()
    finally:
        rss.close()
        shutil.rmtree(work, ignore_errors=True)
    stages = {
        name: {
            "calls": s["calls"],
            "entry_live_mb": s["entry_live"] / MB,
            "exit_live_mb": s["exit_live"] / MB,
            "peak_at_exit_mb": s["peak"] / MB,
            "own_peak_rise_mb": s["own_rise"] / MB,
        }
        for name, s in tracer.stages.items()
        if s["calls"]
    }
    return {
        "workload": workload,
        "seed": seed,
        "claims_per_period": cfg["data"].get("claims_per_period"),
        "start_live_mb": start_live / MB,
        "start_peak_mb": start_peak / MB,
        "peak_rss_mb": end_peak / MB,
        "stages": stages,
    }


def print_table(result: dict) -> None:
    print(
        f"{result['workload']} seed {result['seed']}, claims per period "
        f"{result['claims_per_period']}: peak {result['peak_rss_mb']:.1f} MB "
        f"(live {result['start_live_mb']:.1f} MB, peak {result['start_peak_mb']:.1f} MB "
        "at the run's start)"
    )
    print(f"{'stage':28} {'calls':>7} {'entry MB':>9} {'exit MB':>9} {'peak MB':>9} {'own rise':>9}")
    for name, s in result["stages"].items():
        print(
            f"{name:28} {s['calls']:7d} {s['entry_live_mb']:9.1f} {s['exit_live_mb']:9.1f} "
            f"{s['peak_at_exit_mb']:9.1f} {s['own_peak_rise_mb']:9.2f}"
        )


def child_run(src: Path, workload: str, seed: int, claims_per_period: float, out: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--claims-per-period", str(claims_per_period),
        "--src", str(src), "--json", str(out),
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=1800)
    return json.loads(out.read_text(encoding="utf-8"))


def compare(
    path: str, rev: str, workload: str, sizes: list[float], repeats: int, seed: int
) -> None:
    """Both trees at each size, in ``ab.pair_orders``; writes every run and the medians."""
    tmp = Path(tempfile.mkdtemp(prefix="stage-memory-"))
    try:
        before, after = ab.export_trees(rev, tmp)
        trees = {"before": before / "src", "after": after / "src"}
        runs = {size: {side: [] for side in trees} for size in sizes}
        for order in ab.pair_orders(repeats, seed, tuple(trees)):
            for size in sizes:
                for side in order:
                    result = child_run(trees[side], workload, seed, size, tmp / "run.json")
                    runs[size][side].append(result)
                    print(f"{size:g} claims per period, {side}: {result['peak_rss_mb']:.1f} MB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {
        "what": f"Peak RSS per stage of the {workload} workload at several portfolio sizes, "
        "before and after, each run in a fresh process with BLAS pinned to one thread.",
        "command": f"python tools/stage_memory.py --compare {os.path.relpath(path, ROOT)} "
        f"--against {rev} --workload {workload} "
        f"--sizes {','.join(f'{s:g}' for s in sizes)} --repeats {repeats} --seed {seed}",
        "machine": f"{platform.machine()} Linux, Python {platform.python_version()}, "
        f"{os.cpu_count()} cores",
        "note": "A stage's own_peak_rise_mb is how far the process peak rose during its "
        "calls, less its child stages' rises: growth past every earlier stage's peak. So "
        "one stage's own rise depends on the stages before it, and only the totals compare "
        "across trees.",
        "sizes": {},
    }
    for size in sizes:
        entry = {}
        for side, results in runs[size].items():
            peaks = [r["peak_rss_mb"] for r in results]
            entry[side] = {"peak_rss_mb_median": statistics.median(peaks), "runs": results}
        entry["median_change_mb"] = (
            entry["after"]["peak_rss_mb_median"] - entry["before"]["peak_rss_mb_median"]
        )
        payload["sizes"][f"{size:g}"] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _size(text: str) -> int | float:
    """A claims-per-period count, kept an integer when it is one."""
    value = float(text)
    return int(value) if value.is_integer() else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="portfolio_fit")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claims-per-period", type=_size, default=None)
    parser.add_argument("--src", default=str(ROOT / "src"), help="the microreserve sources to run")
    parser.add_argument("--json", default=None, help="also write the result here")
    parser.add_argument("--compare", default=None, metavar="OUT", help="before/after file to write")
    parser.add_argument("--against", default=None, help="git revision for --compare")
    parser.add_argument("--sizes", default="120,200,800")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    if args.compare:
        if not args.against:
            parser.error("--compare needs --against")
        sizes = [_size(s) for s in args.sizes.split(",")]
        compare(args.compare, args.against, args.workload, sizes, args.repeats, args.seed)
        return 0
    result = run_one(args.workload, args.seed, args.claims_per_period, args.src)
    print_table(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
