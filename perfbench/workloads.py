"""The benchmark's workloads: the run config each one feeds to ``microreserve run``.

The workload seed reaches the program in exactly one place: the simulation
seed of a simulated portfolio, or the seed of the transactions CSV that the
ingest workload writes during set-up. Everything else in a config is fixed.
"""

from __future__ import annotations

import os
import subprocess
import sys

# Why each workload exists is written in README.md beside this file.
WORKLOADS = {
    # The SAC learner: its updates are nearly all of the run.
    "rl_train": {
        "models": ["rl"],
        "data": {"source": "simulate", "preset": "complexity1", "claims_per_period": 8},
        "sac": {"warmup_steps": 100},
    },
    # The data layer: claim lookups, guards, triangles and evaluation over a
    # large portfolio; the learner never runs.
    "portfolio_fit": {
        "models": ["fnn", "cl"],
        "data": {"source": "simulate", "preset": "complexity1", "claims_per_period": 120},
        "fnn": {"max_epochs": 8},
    },
    # Parsing instead of simulating, two acquisitions, an FNN tuning grid
    # over rolling-settlement folds, and inflation with a structural break.
    "ingest_tune": {
        "models": ["fnn", "cl"],
        "data": {"source": "ingest", "schema": "splice"},
        "fnn": {"max_epochs": 8},
        "tuning": {"enabled": True, "family": "fnn", "grid": [{"lr": 0.001}, {"lr": 0.003}]},
        "ingest": {"preset": "complexity5", "claims_per_period": 80},
    },
}

# The model seed of the ingest workload; its input varies with the workload seed.
INGEST_MODEL_SEED = 1


def run_config(name: str, seed: int, output_dir: str, csv_path: str | None = None) -> dict:
    """The JSON run config for one workload and seed."""
    spec = WORKLOADS[name]
    cfg = {key: value for key, value in spec.items() if key != "ingest"}
    cfg["data"] = dict(spec["data"])
    cfg["output_dir"] = output_dir
    if "ingest" in spec:
        cfg["data"]["path"] = csv_path
        cfg["seeds"] = [INGEST_MODEL_SEED]
    else:
        cfg["seeds"] = [seed]
    return cfg


def prepare_input(name: str, seed: int, work_dir: str, env: dict, src_dir: str) -> str | None:
    """Write the workload's input file, if it has one, outside the timed run.

    The ingest workload's transactions CSV is made by ``microreserve
    simulate`` in a child process; returns its path.
    """
    spec = WORKLOADS[name].get("ingest")
    if spec is None:
        return None
    path = os.path.join(work_dir, f"{name}_input.csv")
    cmd = [
        sys.executable, "-m", "microreserve.cli", "simulate",
        "--preset", spec["preset"],
        "--seed", str(seed),
        "--claims-per-period", str(spec["claims_per_period"]),
        "--out", path,
    ]
    subprocess.run(
        cmd, env={**env, "PYTHONPATH": src_dir}, check=True, stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return path
