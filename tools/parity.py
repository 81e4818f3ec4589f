#!/usr/bin/env python3
"""Byte-for-byte output parity between this working tree and a git revision.

Exports the revision with ``git archive`` into a temporary directory, runs
one fixed matrix of ``microreserve`` commands on each tree's ``src`` (BLAS
pinned to one thread, the same relative paths inside a fresh run directory
per tree) and compares every file the commands write, and each command's
stdout and exit code, byte for byte. Prints the first differing line of
each file that differs and exits 1 on any difference.

    python tools/parity.py --against HEAD~1

The matrix, ``inputs()`` and ``matrix()``, is the repository's one command
list: ``tools/reach.py`` runs it in process, so each statement that reach
counts as run is under this comparison. Entries marked ``PARITY_ONLY`` run
paths that earlier entries already reach, on other seeds or data, so reach
skips them. It runs the ``perfbench/workloads.py``
configs (rl_train seeds 1-3, portfolio_fit and ingest_tune seed 1); on a tiny
portfolio, with each config built from ``TINY``, a run with rl tuning, an
rl-family ``tune`` on the ``minimal`` state profile, an fnn-family ``tune``, a
complexity5 fnn+cl run with ``transactions.csv``, dropout, two seeds and fnn
tuning, ``train-rl``, and ``train-fnn`` with ``--seeds`` and
``--claims-per-period``; ``simulate`` and ``ingest --dev-out`` in both
schemas; an fnn+cl run on the ``cas`` schema; ``chain-ladder`` on the cas
config, the tiny config and simulated data; ``evaluate`` on each workload
checkpoint and on both tiny ones in one call; ``report`` and ``verify``. It
takes about 17 s per tree on two cores, 35 s in all.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUNS = [("rl_train", 1), ("rl_train", 2), ("rl_train", 3), ("portfolio_fit", 1), ("ingest_tune", 1)]
INGEST_CSV = "ingest_tune_input.csv"
# The base of every config but the workloads': a portfolio of 4 claims per
# period, on which each command runs in a second or two.
TINY = {
    "data": {"source": "simulate", "preset": "complexity1", "claims_per_period": 4},
    "sac": {"warmup_steps": 50, "hidden": [8], "batch_size": 16},
    "fnn": {"max_epochs": 3, "hidden": [8]},
    "seeds": [3],
    "output_dir": "runs/tiny",
}
# Two grid points per family, so rl tuning trains three agents in seconds.
RL_GRID = [{"sac": {"actor_lr": 0.001}}, {"env": {"c_acc": 2.0}, "sac": {"critic_lr": 0.001}}]
FNN_GRID = [{"lr": 0.001}, {"lr": 0.01}]
# Marks a matrix entry whose statements earlier entries already run: parity
# compares its outputs, and reach skips it.
PARITY_ONLY = "parity-only"


def tiny(name: str, **sections) -> dict:
    """TINY with ``sections`` replaced, writing under ``runs/name``."""
    return {**TINY, **sections, "output_dir": f"runs/{name}"}


def inputs() -> dict[str, dict]:
    """Config files the matrix reads, by relative path."""
    files = {}
    for name, seed in RUNS:
        csv_path = INGEST_CSV if "ingest" in workloads.WORKLOADS[name] else None
        files[f"{name}_{seed}.json"] = workloads.run_config(
            name, seed, f"runs/{name}_{seed}", csv_path
        )
    files["tiny.json"] = TINY
    files["rl_tune.json"] = tiny(
        "rl_tune", models=["rl"], tuning={"enabled": True, "family": "rl", "grid": RL_GRID}
    )
    files["rl_tune_minimal.json"] = tiny(
        "rl_tune_minimal", env={"state_profile": "minimal"},
        tuning={"family": "rl", "grid": RL_GRID},
    )
    files["fnn_tune.json"] = tiny("fnn_tune", tuning={"family": "fnn", "grid": FNN_GRID})
    # Transaction output, dropout, two seeds and fnn tuning on complexity5 data.
    files["fnn_complexity5.json"] = tiny(
        "fnn_complexity5",
        data={**TINY["data"], "preset": "complexity5", "write_transactions": True},
        fnn={**TINY["fnn"], "dropout": 0.1},
        models=["fnn", "cl"],
        seeds=[3, 4],
        tuning={"enabled": True, "family": "fnn", "grid": FNN_GRID},
    )
    files["cas.json"] = tiny(
        "cas", data={"source": "ingest", "path": "sim_cas.csv", "schema": "cas"},
        models=["fnn", "cl"],
    )
    return files


def write_inputs(run_dir: Path) -> None:
    """Each config of ``inputs()`` as a JSON file under ``run_dir``."""
    for rel, cfg in inputs().items():
        (run_dir / rel).write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")


def matrix(reach: bool = False) -> list[tuple[str, list[str]]]:
    """(label, microreserve arguments) in the order they run; with ``reach``, those
    not marked ``PARITY_ONLY``."""
    ingest = workloads.WORKLOADS["ingest_tune"]["ingest"]
    cmds = [
        ("simulate_ingest_input", [
            "simulate", "--preset", ingest["preset"], "--seed", "1",
            "--claims-per-period", str(ingest["claims_per_period"]), "--out", INGEST_CSV,
        ]),
    ]
    for name, seed in RUNS:
        entry = (f"run_{name}_{seed}", ["run", "--config", f"{name}_{seed}.json"])
        # A workload's other seeds reach no statement its first seed does not.
        cmds.append(entry if seed == 1 else (*entry, PARITY_ONLY))
    sim = ["simulate", "--preset", "complexity1", "--seed", "2", "--claims-per-period", "10"]
    seed_1 = "runs/{}_1/seed_1/{}"
    rl_log = seed_1.format("rl_train", "rl_transitions.csv")
    cmds += [
        ("run_rl_tune", ["run", "--config", "rl_tune.json"]),
        ("tune_rl_minimal", ["tune", "--config", "rl_tune_minimal.json"]),
        ("tune_fnn", ["tune", "--config", "fnn_tune.json"]),
        ("run_fnn_complexity5", ["run", "--config", "fnn_complexity5.json"]),
        ("train_rl", ["train-rl", "--config", "tiny.json", "--output-dir", "runs/train_rl"]),
        ("train_fnn", [
            "train-fnn", "--config", "tiny.json", "--output-dir", "runs/train_fnn",
            "--seeds", "5", "--claims-per-period", "5",
        ]),
        ("simulate_splice", sim + ["--out", "sim_splice.csv"]),
        ("simulate_cas", sim + ["--schema", "cas", "--out", "sim_cas.csv"]),
        ("ingest_splice", ["ingest", "--path", "sim_splice.csv", "--dev-out", "dev_splice.csv"]),
        ("ingest_cas", [
            "ingest", "--path", "sim_cas.csv", "--schema", "cas", "--dev-out", "dev_cas.csv",
        ]),
        ("ingest_complexity5", [
            "ingest", "--path", INGEST_CSV, "--dev-out", "dev_complexity5.csv",
        ], PARITY_ONLY),
        ("run_cas", ["run", "--config", "cas.json"]),
        ("chain_ladder_cas", ["chain-ladder", "--config", "cas.json", "--out", "cl_cas.csv"]),
        ("chain_ladder_tiny", ["chain-ladder", "--config", "tiny.json", "--out", "cl_tiny.csv"]),
        ("chain_ladder_simulated", [
            "chain-ladder", "--preset", "complexity1", "--seeds", "2",
            "--claims-per-period", "40", "--out", "cl_simulated.csv",
        ], PARITY_ONLY),
        ("evaluate_rl", [
            "evaluate", "--config", "rl_train_1.json", "--output-dir", "runs/evaluate_rl",
            "--rl-checkpoint", seed_1.format("rl_train", "rl_checkpoint"),
        ]),
        ("evaluate_fnn", [
            "evaluate", "--config", "portfolio_fit_1.json", "--output-dir", "runs/evaluate_fnn",
            "--fnn-model", seed_1.format("portfolio_fit", "fnn_model"),
        ]),
        ("evaluate_both", [
            "evaluate", "--config", "tiny.json", "--output-dir", "runs/evaluate_both",
            "--rl-checkpoint", "runs/train_rl/seed_3/rl_checkpoint",
            "--fnn-model", "runs/train_fnn/seed_5/fnn_model",
        ]),
        ("report", ["report", "--transitions", rl_log, "--out", "report_hist.csv"]),
        ("report_by_psn", ["report", "--transitions", rl_log, "--by-psn", "--out", "psn_hist.csv"]),
        ("verify", ["verify"]),
    ]
    return [(label, args) for label, args, *mark in cmds if not (reach and mark)]


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_matrix(tree: Path, run_dir: Path) -> None:
    """Run every command on tree's sources; stdout and exit code land in run_dir/stdout."""
    run_dir.mkdir(parents=True)
    write_inputs(run_dir)
    env = {**os.environ, **BLAS_PINS, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    (run_dir / "stdout").mkdir()
    for n, (label, args) in enumerate(matrix()):
        proc = subprocess.run(
            [sys.executable, "-m", "microreserve.cli", *args],
            cwd=run_dir, env=env, capture_output=True, text=True,
        )
        (run_dir / "stdout" / f"{n:02d}_{label}.txt").write_text(
            f"{proc.stdout}exit {proc.returncode}\n", encoding="utf-8"
        )
        if proc.returncode != 0:
            print(f"{tree}: {label} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    """The first line on which two different byte strings differ."""
    lines_a, lines_b = a.split(b"\n"), b.split(b"\n")
    for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {n}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    return f"line {min(len(lines_a), len(lines_b)) + 1}: one side ends first"


def compare_dirs(a: Path, b: Path) -> tuple[list[str], int]:
    """(one message per differing or unmatched file, number of identical files)."""
    files_a, files_b = _files(a), _files(b)
    diffs = [f"{rel}: only in {a}" for rel in sorted(files_a - files_b)]
    diffs += [f"{rel}: only in {b}" for rel in sorted(files_b - files_a)]
    same = 0
    for rel in sorted(files_a & files_b):
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if bytes_a == bytes_b:
            same += 1
        else:
            diffs.append(f"{rel}: {first_difference(bytes_a, bytes_b)}")
    return diffs, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="parity-"))
    try:
        base = tmp / "tree"
        export_revision(args.against, base)
        run_matrix(base, tmp / "against")
        run_matrix(ROOT, tmp / "this")
        diffs, same = compare_dirs(tmp / "against", tmp / "this")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in diffs:
        print(line)
    print(f"{same} files identical, {len(diffs)} differ (against {args.against})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
