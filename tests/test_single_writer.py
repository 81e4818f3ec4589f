"""Each on-disk format has one writer in the package source.

Every CSV goes through ``claims.write_table``, the only place that builds a
``csv.writer`` and calls ``format_number``. Every checkpoint array goes
through ``FeatureScaler.save``, the only ``np.savez``, and is read back by
``FeatureScaler.load``, the only ``np.load``: each checkpoint is its
``config.json`` and one ``model.npz`` holding the scaler and every network.
A new writer that opens its own file in either format fails here.
"""

import ast
from pathlib import Path

import numpy as np

from microreserve.fnn import FnnConfig, save_fnn, train_fnn
from microreserve.sac import CHECKPOINT_NETS, SacAgent, save_agent

from test_fnn import linear_rows
from test_sac import make_agent

SRC = Path(__file__).resolve().parents[1] / "src" / "microreserve"


class CallSites(ast.NodeVisitor):
    """(module, enclosing class.function, callee text) of every call in a module."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.sites: list[tuple[str, str, str]] = []

    def visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        where = ".".join(self.scope) or "<module>"
        self.sites.append((self.module, where, ast.unparse(node.func)))
        self.generic_visit(node)


def sites_of(callee: str) -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = CallSites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(module, where) for module, where, name in visitor.sites if name == callee]
    return found


def test_one_csv_writer():
    assert sites_of("csv.writer") == [("claims", "write_table")]


def test_one_savez():
    assert sites_of("np.savez") == [("nets", "FeatureScaler.save")]


def test_one_npz_reader():
    assert sites_of("np.load") == [("nets", "FeatureScaler.load")]


def test_format_number_only_in_write_table():
    assert sites_of("format_number") == [("claims", "write_table")]


def test_the_agent_has_no_checkpoint_methods_of_its_own():
    assert not hasattr(SacAgent, "save") and not hasattr(SacAgent, "load")


def saved_files(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def test_an_agent_checkpoint_is_a_config_and_one_npz(tmp_path):
    save_agent(make_agent(), str(tmp_path / "rl"))
    assert saved_files(tmp_path / "rl") == ["config.json", "model.npz"]
    with np.load(tmp_path / "rl" / "model.npz") as data:
        assert data.files == ["shift", "scale", "currency", "log_temp", *CHECKPOINT_NETS]


def test_an_fnn_checkpoint_is_a_config_and_one_npz(tmp_path):
    cfg = FnnConfig(state_profile="minimal", max_epochs=1, patience=1, seed=0)
    save_fnn(train_fnn(linear_rows(n=40), cfg), str(tmp_path / "fnn"))
    assert saved_files(tmp_path / "fnn") == ["config.json", "model.npz"]
    with np.load(tmp_path / "fnn" / "model.npz") as data:
        assert data.files == ["shift", "scale", "currency", "net"]
