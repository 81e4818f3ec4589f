#!/usr/bin/env python3
"""Paired timing of this working tree against a git revision, on one workload.

Exports the revision with ``git archive`` as ``tools/parity.py`` does, and
copies this tree's ``src`` beside it, so that both trees, their configs and
their outputs sit at paths of one length on one file system. It then runs
``--pairs`` pairs of fresh ``perfbench/child.py`` processes on the
workload's config for ``--seed``, one child per tree in each pair, BLAS
pinned to one thread. A seeded generator draws the order within each pair,
so a drift in the host's load falls on both trees alike (Kalibera and
Jones, ISMM 2013, "Rigorous Benchmarking in Reasonable Time").

Each child's user time, minor page faults (``ru_minflt``), involuntary
context switches (``ru_nivcsw``) and peak resident memory come from
``os.wait4``, and its ``run_s`` from the child's result file. The tool
prints one line per pair, then for each measure the median of the per-pair
ratios (this tree over the revision) and a bootstrap 95% interval of that
median, resampled with a seeded stdlib ``random``. A pair is flagged as
contended when either child took more than twice the median number of
involuntary context switches. The last line of stdout is one JSON object;
``--json PATH`` writes it to a file as well.

    python tools/ab.py --against HEAD~1 --workload rl_train --pairs 10

Against ``HEAD`` with a clean working tree, the two sides run the same code
(an A/A run): the interval's width is then the smallest effect the tool can
resolve on this host.
"""

from __future__ import annotations

import argparse
import json
import os
import random
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

import workloads  # noqa: E402
from parity import BLAS_PINS, export_revision  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
SIDES = ("against", "this")
# Per-child measures; a pair's ratio is this tree's value over the revision's.
MEASURES = ("run_s", "user_s", "minflt", "nivcsw", "maxrss_mb")
BOOTSTRAP_DRAWS = 2000


def run_child(child: Path, src: Path, cfg_path: Path, env: dict) -> dict:
    """One fresh child process; its run_s and its resource use from ``os.wait4``."""
    result_path = cfg_path.with_name(cfg_path.stem + "_result.json")
    cmd = [sys.executable, str(child), "--src", str(src), "--config", str(cfg_path),
           "--result", str(result_path), "--launched", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"child on {src} exited {proc.returncode}: {tail[0]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return {
        "run_s": result["run_s"],
        "user_s": usage.ru_utime,
        "minflt": usage.ru_minflt,
        "nivcsw": usage.ru_nivcsw,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def run_pairs(configs: dict[str, tuple[Path, Path]], pairs: int, seed: int,
              child: Path = CHILD, echo=print) -> list[dict]:
    """``pairs`` pairs of children, one per side of ``configs`` (side -> (src, config)).

    Each pair records its order and each side's measures.
    """
    env = {**os.environ, **BLAS_PINS}
    env.pop("PYTHONPATH", None)
    order_rng = random.Random(seed)
    out = []
    for n in range(pairs):
        order = list(SIDES)
        order_rng.shuffle(order)
        pair = {"order": order}
        for side in order:
            src, cfg_path = configs[side]
            pair[side] = run_child(child, src, cfg_path, env)
        out.append(pair)
        echo(f"pair {n + 1}/{pairs} ({order[0]} first): " + ", ".join(
            f"{m} {pair['this'][m] / pair['against'][m]:.3f}" if pair["against"][m] else f"{m} -"
            for m in ("run_s", "user_s", "minflt")))
    return out


def bootstrap_median_interval(values: list[float], seed: int, draws: int = BOOTSTRAP_DRAWS):
    """The 2.5th and 97.5th percentiles of the median over resamples of ``values``."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(values, k=len(values))) for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def summarize(pairs: list[dict], seed: int) -> dict:
    """Per measure: each side's median, the per-pair ratios, their median and interval."""
    switches = [p[side]["nivcsw"] for p in pairs for side in SIDES]
    limit = 2.0 * statistics.median(switches)
    contended = [n for n, p in enumerate(pairs) if max(p[s]["nivcsw"] for s in SIDES) > limit]
    out = {"pairs": len(pairs), "contended_pairs": contended, "measures": {}}
    for m in MEASURES:
        ratios = [p["this"][m] / p["against"][m] for p in pairs if p["against"][m]]
        entry = {side: statistics.median(p[side][m] for p in pairs) for side in SIDES}
        if ratios:
            low, high = bootstrap_median_interval(ratios, seed)
            entry.update(ratios=ratios, median_ratio=statistics.median(ratios),
                         interval=[low, high],
                         this_wins=sum(1 for r in ratios if r < 1.0))
        out["measures"][m] = entry
    return out


def report(summary: dict, echo=print) -> None:
    flagged = summary["contended_pairs"]
    echo(f"{summary['pairs']} pairs; contended (context switches over twice the median): "
         + (", ".join(str(n + 1) for n in flagged) if flagged else "none"))
    for m, e in summary["measures"].items():
        line = f"   {m:10s} against {e['against']:<12.6g} this {e['this']:<12.6g}"
        if "median_ratio" in e:
            low, high = e["interval"]
            line += (f" ratio median {e['median_ratio']:.3f} [{low:.3f}, {high:.3f}],"
                     f" this lower in {e['this_wins']}/{len(e['ratios'])}")
        echo(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the workload seed")
    parser.add_argument("--order-seed", type=int, default=0,
                        help="seed of the pair order and of the bootstrap")
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        # One-letter names keep every path the two sides use the same length.
        trees = {"against": tmp / "a", "this": tmp / "b"}
        export_revision(args.against, trees["against"])
        shutil.copytree(ROOT / "src", trees["this"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, **BLAS_PINS}
        csv_path = workloads.prepare_input(args.workload, args.seed, str(tmp), env,
                                           str(ROOT / "src"))
        configs = {}
        for side, tree in trees.items():
            cfg_path = tmp / f"config_{tree.name}.json"
            cfg = workloads.run_config(args.workload, args.seed, str(tmp / f"out_{tree.name}"),
                                       csv_path)
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            configs[side] = (tree / "src", cfg_path)
        pairs = run_pairs(configs, args.pairs, args.order_seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(pairs, args.order_seed)
    summary.update(against=args.against, workload=args.workload, seed=args.seed,
                   order_seed=args.order_seed, samples=pairs)
    report(summary)
    text = json.dumps(summary)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
