#!/usr/bin/env python3
"""Function statements in ``src/`` that no subcommand executes.

Runs every ``microreserve`` subcommand in-process on tiny seeded configs
inside a temporary directory, under ``sys.settrace``, and prints each
statement inside a function of ``src/microreserve`` that none of them ran,
as ``path:line function: source``. Module-level statements run at import
and are not counted; neither are docstrings and ``global`` statements,
which compile to no code. A multi-line statement counts as run if any of
its lines ran; a compound statement (``if``, ``for``, ``with`` ...) counts
by its header, and its body's statements count on their own. Each
unreached ``raise`` is an error branch no command takes; any other
unreached statement is code that only tests, or nothing, reach.

    python tools/reach.py        # about half a minute on two cores

Uses the standard library only. Exits 1 if a subcommand fails.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "microreserve"


class Statement(NamedTuple):
    path: str
    first: int  # the statement's lines, or a compound statement's header lines
    last: int
    function: str  # qualified name of the function holding it
    source: str  # its first line, stripped


def function_statements(path: str) -> list[Statement]:
    """Every statement inside a function of the module at ``path``, in line order."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    found: list[Statement] = []

    def add(node: ast.stmt, function: str) -> None:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        ):
            return  # no code: a docstring, a bare constant, a scope declaration
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            last = node.lineno
        elif hasattr(node, "body"):
            first, last = node.lineno, max(node.lineno, node.body[0].lineno - 1)
        else:
            first, last = node.lineno, node.end_lineno
        found.append(Statement(path, first, last, function, lines[node.lineno - 1].strip()))

    def walk(body: list[ast.stmt], function: str | None, scope: str) -> None:
        for node in body:
            if function is not None:
                add(node, function)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{node.name}"
                walk(node.body, name, f"{name}.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, function, f"{scope}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(node, field, []), function, scope)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, function, scope)
                for case in getattr(node, "cases", []):
                    walk(case.body, function, scope)

    walk(ast.parse(text, filename=path).body, None, "")
    return sorted(found, key=lambda s: s.first)


def traced_lines(run, paths: set[str]) -> set[tuple[str, int]]:
    """The (path, line) pairs of ``paths`` that ``run()`` executes."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def unreached(paths: list[str], run) -> list[Statement]:
    """The function statements of ``paths`` that ``run()`` does not execute.

    Each path must be spelled as the code objects name their file: as the
    module was imported.
    """
    hits = traced_lines(run, set(paths))
    return [
        s
        for path in paths
        for s in function_statements(path)
        if not any((path, line) in hits for line in range(s.first, s.last + 1))
    ]


# -- the commands --------------------------------------------------------------------

SIM = {"source": "simulate", "preset": "complexity1", "claims_per_period": 4}
TINY = {
    "data": SIM,
    "sac": {"warmup_steps": 50, "hidden": [8], "batch_size": 16},
    "fnn": {"max_epochs": 3, "hidden": [8]},
    "seeds": [3],
}
CONFIGS = {
    "tiny.json": {**TINY, "output_dir": "run"},
    "fnn_tuned.json": {
        **TINY,
        "data": {**SIM, "preset": "complexity5", "write_transactions": True},
        "fnn": {**TINY["fnn"], "dropout": 0.1},
        "models": ["fnn", "cl"],
        "seeds": [3, 4],
        "tuning": {"enabled": True, "family": "fnn", "grid": [{"lr": 0.001}, {"lr": 0.01}]},
        "output_dir": "fnn_tuned",
    },
    "rl_tune.json": {
        **TINY,
        "env": {"state_profile": "minimal"},
        "tuning": {"family": "rl", "grid": [{"sac": {"actor_lr": 0.001}}, {"env": {"c_acc": 2.0}}]},
        "output_dir": "rl_tune",
    },
    "cas.json": {
        **TINY,
        "data": {"source": "ingest", "path": "sim_cas.csv", "schema": "cas"},
        "models": ["fnn", "cl"],
        "output_dir": "cas",
    },
}
COMMANDS = [
    ["simulate", "--seed", "3", "--claims-per-period", "4", "--out", "sim.csv"],
    ["simulate", "--seed", "3", "--claims-per-period", "4", "--schema", "cas", "--out", "sim_cas.csv"],
    ["ingest", "--path", "sim.csv", "--dev-out", "dev.csv"],
    ["ingest", "--path", "sim_cas.csv", "--schema", "cas", "--dev-out", "dev_cas.csv"],
    ["run", "--config", "tiny.json"],
    ["run", "--config", "fnn_tuned.json"],
    ["run", "--config", "cas.json"],
    ["train-rl", "--config", "tiny.json", "--output-dir", "train_rl"],
    ["train-fnn", "--config", "tiny.json", "--output-dir", "train_fnn", "--seeds", "5",
     "--claims-per-period", "5"],
    ["tune", "--config", "rl_tune.json"],
    ["chain-ladder", "--config", "tiny.json", "--out", "cl.csv"],
    ["chain-ladder", "--config", "cas.json", "--out", "cl_cas.csv"],
    ["evaluate", "--config", "tiny.json", "--output-dir", "eval",
     "--rl-checkpoint", "run/seed_3/rl_checkpoint", "--fnn-model", "run/seed_3/fnn_model"],
    ["report", "--transitions", "run/seed_3/rl_transitions.csv", "--out", "hist.csv", "--by-psn"],
    ["verify"],
]


def run_commands() -> list[str]:
    """Run every command in a temporary directory; returns those that did not exit 0."""
    from microreserve import cli

    failed = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        os.chdir(tmp)
        try:
            for name, cfg in CONFIGS.items():
                Path(name).write_text(json.dumps(cfg), encoding="utf-8")
            for argv in COMMANDS:
                if cli.main(argv) != 0:
                    failed.append(" ".join(argv))
        finally:
            os.chdir(cwd)
    return failed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(str(p) for p in SRC.glob("*.py"))
    failed: list[str] = []
    missed = unreached(paths, lambda: failed.extend(run_commands()))
    for s in missed:
        print(f"{os.path.relpath(s.path, ROOT)}:{s.first} {s.function}: {s.source}")
    total = sum(len(function_statements(p)) for p in paths)
    raises = sum(s.source.startswith("raise") for s in missed)
    print(f"{len(missed)} of {total} function statements ran under no command ({raises} raise)")
    for argv in failed:
        print(f"command failed: {argv}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
