"""In-memory spans around calls into microreserve, and the layer metrics built from them.

The tracer never edits the program. It rebinds the attribute each call site
looks up (a module global such as ``microreserve.cli.evaluate_predictions``,
or a class attribute such as ``Dataset.by_no``) to a wrapper that records a
span, and puts every original back on ``restore``. Spans are kept in memory
as ``[name, start, end, parent]`` with one run id for the whole file, and
written out once when the traced child ends.
"""

from __future__ import annotations

import json
import time

import numpy as np


# Post hooks add counters from a wrapped call's arguments and result.
def _post_txn_rows(counters, args, kwargs, result):
    counters["claims.txn_rows"] += sum(len(c.transactions) for c in result.claims)


def _post_tune_entries(counters, args, kwargs, result):
    _best, entries = result
    counters["evaluation.tune_attempted"] += len(entries)
    counters["evaluation.tune_valid"] += sum(1 for e in entries if e.valid)


def _post_n_clamped(counters, args, kwargs, result):
    counters["chainladder.n_clamped"] += result.n_clamped


def _post_rollout(counters, args, kwargs, result):
    dataset = args[0]
    boundary = kwargs.get("boundary")
    horizon = boundary if boundary is not None else dataset.max_calendar_period
    counters["env.rollouts"] += 1
    counters["env.transitions"] += len(result.transitions)
    counters["env.skipped"] += result.n_skipped
    counters["env.active"] += sum(1 for c in dataset.claims if c.notification_period <= horizon)


def _post_fnn_rows(counters, args, kwargs, result):
    counters["fnn.rows"] += result.features.shape[0]


def _post_fnn_epochs(counters, args, kwargs, result):
    counters["fnn.fits"] += 1
    counters["fnn.epochs"] += result.epochs_run


# (module, attribute, span name, post hook or None). The hook runs after the
# span ends, so its own time counts toward the caller's self time.
MODULE_SPANS = [
    ("cli", "acquire_dataset", "cli.acquire", None),
    ("cli", "simulate_portfolio", "simulator.simulate", None),
    ("cli", "load_transactions", "claims.load", _post_txn_rows),
    ("cli", "discretize", "claims.discretize", None),
    ("claims", "discretize", "claims.discretize", None),
    ("evaluation", "censor", "claims.censor", None),
    ("cli", "split", "evaluation.split", None),
    ("cli", "rsv_folds", "evaluation.folds", None),
    ("cli", "guard_transitions", "evaluation.guard", None),
    ("cli", "guard_fnn_rows", "evaluation.guard", None),
    ("cli", "guard_validation", "evaluation.guard", None),
    ("cli", "evaluate_predictions", "evaluation.evaluate", None),
    ("cli", "true_ocl_map", "evaluation.evaluate", None),
    ("cli", "action_histogram", "evaluation.evaluate", None),
    ("cli", "tune", "evaluation.tune", _post_tune_entries),
    ("cli", "build_init_tables", "credibility.init_tables", None),
    ("credibility", "build_triangle", "claims.triangle", None),
    ("chainladder", "build_triangle", "claims.triangle", None),
    ("chainladder", "rbns_ocl", "chainladder.rbns", _post_n_clamped),
    ("cli", "train_sac", "sac.train", None),
    ("cli", "predict_ocl_sac", "sac.predict", None),
    ("sac", "fit_state_scaler", "sac.scaler_probe", None),
    ("sac", "rollout_calendar", "env.rollout", _post_rollout),
    ("sac", "forward", "nets.sac.forward", None),
    ("sac", "backward", "nets.sac.backward", None),
    ("sac", "adam_step", "nets.sac.adam", None),
    ("cli", "build_training_rows", "fnn.rows", _post_fnn_rows),
    ("cli", "train_fnn", "fnn.train", _post_fnn_epochs),
    ("cli", "predict_ocl_fnn", "fnn.predict", None),
    ("fnn", "forward", "nets.fnn.forward", None),
    ("fnn", "backward", "nets.fnn.backward", None),
    ("fnn", "adam_step", "nets.fnn.adam", None),
    ("cli", "write_transactions", "cli.write", None),
    ("cli", "write_init_tables", "cli.write", None),
    ("cli", "write_metrics_csv", "cli.write", None),
    ("cli", "export_transition_log", "cli.write", None),
    ("cli", "write_histogram_csv", "cli.write", None),
    ("cli", "write_training_log", "cli.write", None),
    ("cli", "save_agent", "cli.write", None),
    ("cli", "save_fnn", "cli.write", None),
    ("cli", "_write_terciles", "cli.write", None),
    ("chainladder", "write_cl_report", "cli.write", None),
    ("cli", "_sha256", "cli.hash", None),
]

# (module, class, method, span name).
METHOD_SPANS = [
    ("claims", "Dataset", "by_no", "claims.by_no"),
    ("sac", "ReplayBuffer", "sample", "sac.sample"),
    ("sac", "SacAgent", "act", "sac.act"),
    ("sac", "SacAgent", "observe", "sac.observe"),
    ("sac", "SacAgent", "update", "sac.update"),
    ("sac", "SacAgent", "critic_targets", "sac.targets"),
]

# Called hundreds of thousands of times inside triangle and metric loops, so
# counted without a span to keep the tracing overhead small.
METHOD_COUNTS = [("claims", "Claim", "paid_at", "claims.paid_at_calls")]

ROOT = "cli.run"

# Counters the post hooks and METHOD_COUNTS add to; all start at zero.
COUNTERS = (
    "claims.txn_rows", "claims.paid_at_calls", "env.rollouts", "env.transitions",
    "env.skipped", "env.active", "fnn.fits", "fnn.epochs", "fnn.rows",
    "chainladder.n_clamped", "evaluation.tune_valid", "evaluation.tune_attempted",
)


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, post=None):
        spans = self.spans
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if post is not None:
                post(counters, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Rebind every call site listed above in the imported ``package``."""
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        for module, attr, name, post in MODULE_SPANS:
            owner = getattr(package, module)
            self._rebind(owner, attr, self.wrap(name, owner.__dict__[attr], post))
        for module, cls, attr, name in METHOD_SPANS:
            owner = getattr(getattr(package, module), cls)
            self._rebind(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for module, cls, attr, name in METHOD_COUNTS:
            owner = getattr(getattr(package, module), cls)
            self._rebind(owner, attr, self.count(name, owner.__dict__[attr]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "run_id": self.run_id,
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- aggregation ---------------------------------------------------------------


class SpanTable:
    """Vectorised view of one dump: durations, self times and sample lists."""

    def __init__(self, payload: dict):
        self.run_id = payload["run_id"]
        self.names = payload["names"]
        self.counters = payload["counters"]
        rows = np.array(payload["spans"], dtype=np.float64).reshape(-1, 4)
        self.name_idx = rows[:, 0].astype(np.int64)
        self.duration = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(np.int64)
        covered = np.zeros(len(rows))
        nested = parent >= 0
        np.add.at(covered, parent[nested], self.duration[nested])
        self.self_time = self.duration - covered

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.name_idx == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        """Inclusive seconds: the sum of the span durations."""
        return float(self.duration[self._mask(name)].sum())

    def self_s(self, name: str) -> float:
        """Seconds inside the span not covered by its child spans."""
        return float(self.self_time[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def self_by_name(self) -> dict[str, float]:
        return {n: self.self_s(n) for n in self.names}


def load_table(path: str) -> SpanTable:
    with open(path, encoding="utf-8") as fh:
        return SpanTable(json.load(fh))


def _share(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json.

    ``_s`` metrics are self seconds, except the documented stage totals
    ``sac.update_s``, ``sac.scaler_probe_s``, ``fnn.train_s`` and
    ``evaluation.tune_s``, which include their child spans.
    """
    t, c = table, table.counters
    m: dict[str, float] = {}
    m["simulator.simulate_s"] = t.self_s("simulator.simulate")
    m["claims.load_s"] = t.self_s("claims.load")
    m["claims.txn_rows"] = c["claims.txn_rows"]
    m["claims.discretize_s"] = t.self_s("claims.discretize")
    m["claims.by_no_calls"] = t.calls("claims.by_no")
    m["claims.by_no_s"] = t.self_s("claims.by_no")
    m["claims.paid_at_calls"] = c["claims.paid_at_calls"]
    m["claims.triangle_s"] = t.self_s("claims.triangle")
    m["claims.censor_s"] = t.self_s("claims.censor")
    m["credibility.init_tables_s"] = t.self_s("credibility.init_tables")
    m["env.rollouts"] = c["env.rollouts"]
    m["env.transitions"] = c["env.transitions"]
    m["env.rollout_self_s"] = t.self_s("env.rollout")
    m["env.skipped_share"] = _share(c["env.skipped"], c["env.active"])
    updates = t.durations("sac.update")
    m["sac.updates"] = updates.size
    m["sac.update_s"] = float(updates.sum())
    m["sac.update_ms_p50"] = float(np.percentile(updates, 50) * 1e3) if updates.size else 0.0
    m["sac.update_ms_p99"] = float(np.percentile(updates, 99) * 1e3) if updates.size else 0.0
    m["sac.updates_per_s"] = _share(updates.size, float(updates.sum()))
    m["sac.sample_s"] = t.self_s("sac.sample")
    m["sac.targets_s"] = t.self_s("sac.targets")
    m["sac.update_self_s"] = t.self_s("sac.update")
    m["sac.act_calls"] = t.calls("sac.act")
    m["sac.act_s"] = t.self_s("sac.act")
    m["sac.scaler_probe_s"] = t.total("sac.scaler_probe")
    m["sac.updates_per_transition"] = _share(updates.size, t.calls("sac.observe"))
    for caller in ("sac", "fnn"):
        for op in ("forward", "backward", "adam"):
            name = f"nets.{caller}.{op}"
            m[f"{name}_s"] = t.self_s(name)
            m[f"{name}_calls"] = t.calls(name)
    m["fnn.fits"] = c["fnn.fits"]
    m["fnn.epochs"] = c["fnn.epochs"]
    m["fnn.train_s"] = t.total("fnn.train")
    m["fnn.ms_per_epoch"] = _share(m["fnn.train_s"] * 1e3, c["fnn.epochs"])
    m["fnn.rows"] = c["fnn.rows"]
    m["fnn.rows_s"] = t.self_s("fnn.rows")
    m["fnn.predict_s"] = t.self_s("fnn.predict")
    m["chainladder.rbns_s"] = t.self_s("chainladder.rbns")
    m["chainladder.n_clamped"] = c["chainladder.n_clamped"]
    m["evaluation.split_s"] = t.self_s("evaluation.split")
    m["evaluation.folds_s"] = t.self_s("evaluation.folds")
    m["evaluation.guard_s"] = t.self_s("evaluation.guard")
    m["evaluation.evaluate_s"] = t.self_s("evaluation.evaluate")
    m["evaluation.tune_s"] = t.total("evaluation.tune")
    m["evaluation.tune_valid_share"] = _share(
        c["evaluation.tune_valid"], c["evaluation.tune_attempted"]
    )
    m["cli.acquire_calls"] = t.calls("cli.acquire")
    m["cli.acquire_s"] = t.self_s("cli.acquire")
    m["cli.write_s"] = t.self_s("cli.write")
    m["cli.hash_s"] = t.self_s("cli.hash")
    m["cli.self_s"] = t.self_s(ROOT)
    return m
