"""Operator command line.

Subcommands: simulate, ingest, chain-ladder, train-rl, train-fnn, tune,
evaluate, report, run (full pipeline), verify (golden single-claim
replay). A JSON run-config drives the pipeline; command-line flags
override config keys, which override built-in defaults. A key that no
section knows, in the config or in a tuning grid point, or a repeated seed
is a configuration error, and so is any number that breaks the one rule
of ``errors.check_number``: of its field's kind (a bool is no number),
finite and inside its interval. The model sections and each tuning grid
point are checked by their config classes, which apply that rule, and the
split and data numbers by the rule itself, all before any data is acquired.

Every command that models data takes it from one helper: acquire the
seed's data, resolve the train/test boundary and censor there. The rl
and fnn models each have one fit path, shared by ``run``, by tuning and
(for prediction) by ``evaluate``. Scoring reads the realised outstanding
amounts once per seed (``true_ocl_map``): each rl or fnn model gets one
``evaluate_predictions`` report, from which its metrics CSV, tercile CSV
and summary are written, and the chain ladder gets one
``evaluate_chain_ladder`` report of aggregate ratios, written by the same
metrics writer. Every CSV is written by ``claims.write_table``, the one
place a number becomes text.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
fault during training or evaluation, 4 any other error (a crash: the
traceback goes to stderr). ``evaluate`` loads its checkpoints before it
acquires data, and a damaged checkpoint file is a data error naming it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import traceback
from importlib import resources
from types import SimpleNamespace

from . import chainladder as cl
from .claims import (
    Dataset,
    discretize,
    load_transactions,
    write_dev_records,
    write_table,
    write_transactions,
)
from .credibility import InitTables, build_init_tables, write_init_tables
from .env import (
    EnvConfig,
    ScriptedPolicy,
    export_transition_log,
    rollout_calendar,
)
from .errors import ConfigError, DataError, LeakageError, NumericFault, ParseError, check_number
from .evaluation import (
    CAS_VALUATION,
    SPLICE_VALUATION,
    MetricsReport,
    action_histogram,
    evaluate_chain_ladder,
    evaluate_predictions,
    guard_fnn_rows,
    guard_transitions,
    guard_validation,
    rsv_folds,
    split,
    true_ocl_map,
    tune,
    write_histogram_csv,
    write_metrics_csv,
)
from .fnn import FnnConfig, build_training_rows, load_fnn, predict_ocl_fnn, save_fnn, train_fnn
from .sac import SacConfig, load_agent, predict_ocl_sac, save_agent, train_sac, write_training_log
from .simulator import check_seed, preset, simulate_portfolio, with_seed

DEFAULT_MODELS = ("rl", "fnn", "cl")


# -- configuration ---------------------------------------------------------------

# Config sections whose keys are the fields of a model config class.
MODEL_SECTIONS = {"env": EnvConfig, "sac": SacConfig, "fnn": FnnConfig}


def default_config() -> dict:
    return {
        "data": {
            "source": "simulate",
            "preset": "complexity1",
            "claims_per_period": None,
            "path": None,
            "schema": "splice",
            "write_transactions": False,
        },
        "split": {"boundary": None, "k_folds": 3},
        "env": {},
        "sac": {},
        "fnn": {},
        "models": list(DEFAULT_MODELS),
        "tuning": {"enabled": False, "family": "fnn", "grid": []},
        "seeds": [1],
        "output_dir": "runs/out",
    }


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict) and isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = key.partition(".")
        if leaf:
            cfg[section][leaf] = value
        else:
            cfg[key] = value
    validate_config(cfg)
    return cfg


def _check_keys(where: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")


# Fields the fits set themselves: the run seed, and the env's state profile.
RUN_SET_FIELDS = {"sac": ("seed",), "fnn": ("seed", "state_profile")}


def _fields(section: str) -> list[str]:
    skip = RUN_SET_FIELDS.get(section, ())
    return [f.name for f in dataclasses.fields(MODEL_SECTIONS[section]) if f.name not in skip]


def _grid_sections(family: str, point: dict) -> dict:
    """A tuning grid point as {config section: overrides}.

    An fnn point holds fnn keys; an rl point holds "env" and "sac" objects.
    """
    if family == "fnn":
        return {"fnn": point}
    _check_keys("rl tuning grid point", point, ("env", "sac"))
    return point


def validate_config(cfg: dict) -> None:
    defaults = default_config()
    for section in ("data", "split", "tuning"):
        _check_keys(section, cfg[section], defaults[section])
    for section in MODEL_SECTIONS:
        _check_keys(section, cfg[section], _fields(section))
    data = cfg["data"]
    if data["source"] not in ("simulate", "ingest"):
        raise ConfigError(f"unknown data source {data['source']!r}")
    if data["source"] == "simulate":
        preset(data["preset"])  # raises on unknown preset
    else:
        if not data.get("path"):
            raise ConfigError("ingest source needs data.path")
        if data.get("schema") not in ("splice", "cas"):
            raise ConfigError(f"unknown schema {data.get('schema')!r}")
    check_number("split.k_folds", cfg["split"]["k_folds"], "int", "[2, inf)")
    check_number("split.boundary", cfg["split"]["boundary"], "int | None", "[1, inf)")
    check_number("data.claims_per_period", data["claims_per_period"], "float | None", "(0, inf)")
    models = cfg["models"]
    if not isinstance(models, list) or not models:
        raise ConfigError(f"models must be a non-empty list, got {models!r}")
    for model in models:
        if model not in DEFAULT_MODELS:
            raise ConfigError(f"unknown model {model!r}")
    if len(set(models)) < len(models):
        raise ConfigError(f"models repeat: {models}")
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ConfigError("seeds must be a non-empty list")
    for seed in cfg["seeds"]:
        check_seed(seed)
    if len(set(cfg["seeds"])) < len(cfg["seeds"]):
        raise ConfigError(f"seeds repeat: {cfg['seeds']}")
    family = cfg["tuning"]["family"]
    if family not in ("fnn", "rl"):
        raise ConfigError(f"unknown tuning family {family!r}")
    # Constructor validation of the model configs, alone and with each tuning
    # grid point merged in, before any work.
    checks = [(section, cfg[section]) for section in MODEL_SECTIONS]
    grid = cfg["tuning"]["grid"]
    if not isinstance(grid, list):
        raise ConfigError(f"tuning.grid must be a list, got {grid!r}")
    for point in grid:
        for section, params in _grid_sections(family, point).items():
            _check_keys(f"{section} tuning grid", params, _fields(section))
            checks.append((section, {**cfg[section], **params}))
    for section, params in checks:
        MODEL_SECTIONS[section](**params)
        if section == "env":
            _check_profile(cfg, params.get("state_profile"), "configured")


def _check_profile(cfg: dict, profile: str | None, what: str) -> None:
    """Refuse the splice_full layout on data without case estimates.

    Its case slot would read 0.0 for every claim. The schema comes from the
    config: simulated data is splice.
    """
    data = cfg["data"]
    schema = "splice" if data["source"] == "simulate" else data["schema"]
    if profile == "splice_full" and schema != "splice":
        raise ConfigError(f"{what} state profile 'splice_full' needs splice data, not {schema!r}")


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- data acquisition --------------------------------------------------------------


def acquire_dataset(cfg: dict, seed: int) -> Dataset:
    data = cfg["data"]
    if data["source"] == "simulate":
        sim = with_seed(preset(data["preset"]), seed)
        if data["claims_per_period"] is not None:
            sim = dataclasses.replace(sim, mean_claims_per_period=float(data["claims_per_period"]))
        dataset = simulate_portfolio(sim)
    else:
        dataset = load_transactions(data["path"], data["schema"])
    return discretize(dataset)


def resolve_boundary(cfg: dict, dataset: Dataset) -> int:
    boundary = cfg["split"]["boundary"]
    if boundary is None:
        boundary = SPLICE_VALUATION if dataset.schema == "splice" else CAS_VALUATION
        boundary = min(boundary, dataset.max_calendar_period)
    return boundary


def _acquire_view(cfg: dict, seed: int) -> tuple[Dataset, int, Dataset]:
    """The seed's full data, its train/test boundary and the view censored there."""
    dataset = acquire_dataset(cfg, seed)
    boundary = resolve_boundary(cfg, dataset)
    return dataset, boundary, split(dataset, boundary)


def _profile(cfg: dict, dataset: Dataset) -> str:
    """The configured state profile, else the richest one the schema supports."""
    if cfg["env"].get("state_profile"):
        return cfg["env"]["state_profile"]
    return "splice_full" if dataset.schema == "splice" else "cas"


# -- models ------------------------------------------------------------------------


def _fit_rl(cfg: dict, view: Dataset, boundary: int, seed: int, tables: InitTables):
    """Train SAC on the view and replay it; returns (predictions, replay, agent, log)."""
    env_cfg = EnvConfig(**{**cfg["env"], "state_profile": _profile(cfg, view)})
    sac_cfg = SacConfig(**{**cfg["sac"], "seed": seed})
    agent, log = train_sac(view, tables, env_cfg, sac_cfg, boundary=boundary)
    return (*_predict_rl(agent, view, tables, boundary), agent, log)


def _predict_rl(agent, view: Dataset, tables: InitTables, boundary: int):
    """Leakage-guarded deterministic replay: (final estimate per claim, replay)."""
    replay = predict_ocl_sac(agent, view, tables, boundary)
    guard_transitions(replay.transitions, view, boundary)
    return replay.reserves, replay


def _fit_fnn(cfg: dict, view: Dataset, boundary: int, seed: int, rows_memo: dict | None = None):
    """Train the FNN on leakage-guarded rows; returns (open-claim predictions, model).

    ``rows_memo`` keeps the rows built for fits on one dataset's views, keyed by
    the boundary and the config fields the rows depend on, so fits that share
    them build them once.
    """
    fnn_cfg = FnnConfig(**{**cfg["fnn"], "state_profile": _profile(cfg, view), "seed": seed})
    memo = {} if rows_memo is None else rows_memo
    key = (boundary, fnn_cfg.state_profile, fnn_cfg.alpha_w, fnn_cfg.s_scale)
    if key not in memo:
        rows = build_training_rows(view, boundary, fnn_cfg)
        guard_fnn_rows(rows.claim_nos, view, boundary)
        memo[key] = rows
    model = train_fnn(memo[key], fnn_cfg)
    return predict_ocl_fnn(model, view, boundary), model


# -- pipeline ----------------------------------------------------------------------


def run_seed(cfg: dict, seed: int, out_dir: str, acquired: tuple | None = None) -> dict:
    """Train every requested model for one seed (``acquired``: its data, if held) and report."""
    os.makedirs(out_dir, exist_ok=True)
    dataset, boundary, view = acquired or _acquire_view(cfg, seed)
    tables = build_init_tables(view, boundary)
    actuals = true_ocl_map(dataset, boundary)

    outputs: list[str] = []
    summary: dict = {"seed": seed, "boundary": boundary, "n_test_claims": len(actuals)}

    def output(name: str) -> str:
        outputs.append(os.path.join(out_dir, name))
        return outputs[-1]

    if cfg["data"].get("write_transactions"):
        write_transactions(dataset, output("transactions.csv"))
    write_init_tables(tables, output("init_tables.csv"))

    predictions: dict[str, dict[str, float]] = {}
    if "rl" in cfg["models"]:
        predictions["rl"], replay, agent, log = _fit_rl(cfg, view, boundary, seed, tables)
        export_transition_log(replay.transitions, output("rl_transitions.csv"))
        counts, edges = action_histogram(replay.transitions, agent.env_cfg.k)
        write_histogram_csv(counts, edges, output("rl_action_hist.csv"))
        facets, edges = action_histogram(replay.transitions, agent.env_cfg.k, by_psn=True)
        write_histogram_csv(facets, edges, output("rl_action_hist_psn.csv"))
        write_training_log(log, output("rl_training_log.csv"))
        save_agent(agent, os.path.join(out_dir, "rl_checkpoint"))
    if "fnn" in cfg["models"]:
        predictions["fnn"], model = _fit_fnn(cfg, view, boundary, seed)
        save_fnn(model, os.path.join(out_dir, "fnn_model"))
    for name, preds in predictions.items():
        report = evaluate_predictions(preds, actuals, dataset, boundary)
        write_metrics_csv(report, name, seed, output(f"metrics_{name}.csv"))
        _write_terciles(report, output(f"terciles_{name}.csv"))
        summary[f"{name}_ratio"] = report.overall_ratio
        summary[f"{name}_rmse"] = report.rmse_overall

    if "cl" in cfg["models"]:
        result = cl.rbns_ocl(view, boundary)
        cl.write_cl_report(result, output("cl_report.csv"))
        report = evaluate_chain_ladder(result, actuals, dataset)
        write_metrics_csv(report, "cl", seed, output("metrics_cl.csv"))
        summary["cl_ratio"] = report.overall_ratio

    summary["outputs"] = outputs
    return summary


def run_pipeline(cfg: dict) -> str:
    """Execute the configured experiment; returns the manifest path."""
    out_root = cfg["output_dir"]
    os.makedirs(out_root, exist_ok=True)
    manifest = {
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "seeds": cfg["seeds"],
        "outputs": {},
        "stage_reached": "start",
    }
    manifest_path = os.path.join(out_root, "manifest.json")
    summaries = []
    acquired = None  # seeds[0]'s data, once tuning has acquired it
    try:
        if cfg["tuning"].get("enabled") and cfg["tuning"].get("grid"):
            manifest["stage_reached"] = "tuning"
            acquired = _acquire_view(cfg, cfg["seeds"][0])
            best = tune_from_config(cfg, acquired)
            manifest["tuned_params"] = best
            for section, params in _grid_sections(cfg["tuning"]["family"], best).items():
                cfg[section].update(params)
        for seed in cfg["seeds"]:
            manifest["stage_reached"] = f"seed {seed}"
            summaries.append(run_seed(cfg, seed, os.path.join(out_root, f"seed_{seed}"), acquired))
            acquired = None
        manifest["stage_reached"] = "reports"
        summary_path = os.path.join(out_root, "summary.csv")
        rows = (
            [s["seed"], model, s[f"{model}_ratio"], s.get(f"{model}_rmse")]
            for s in summaries
            for model in ("rl", "fnn", "cl")
            if f"{model}_ratio" in s
        )
        write_table(summary_path, ["seed", "model", "relative_ocl", "rmse"], rows)
        for s in summaries:
            for path in s.pop("outputs"):
                manifest["outputs"][os.path.relpath(path, out_root)] = _sha256(path)
        manifest["outputs"][os.path.relpath(summary_path, out_root)] = _sha256(summary_path)
        manifest["summaries"] = summaries
        manifest["stage_reached"] = "done"
    finally:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest_path


def _write_terciles(report: MetricsReport, path: str) -> None:
    ratios = report.ratio_by_tercile
    rows = ([name, ratios[name]] for name in ("small", "medium", "large") if name in ratios)
    write_table(path, ["tercile", "relative_ocl"], rows)


def tune_from_config(cfg: dict, acquired: tuple) -> dict:
    """Rolling-settlement tuning for the configured family on seed[0]'s acquired data."""
    seed = cfg["seeds"][0]
    _, boundary, view = acquired
    folds = rsv_folds(view, cfg["split"]["k_folds"], window_end=boundary)
    for fold in folds:
        guard_validation(fold.validation_claims, fold.boundary)
    family = cfg["tuning"]["family"]
    rows_memo: dict = {}  # the folds' fnn rows, for this call only

    def family_fn(fold, params):
        sections = _grid_sections(family, params)
        trial = {**cfg, **{k: {**cfg[k], **v} for k, v in sections.items()}}
        if family == "fnn":
            return _fit_fnn(trial, fold.train_view, fold.boundary, seed, rows_memo)[0]
        tables = build_init_tables(fold.train_view, fold.boundary)
        return _fit_rl(trial, fold.train_view, fold.boundary, seed, tables)[0]

    best, _entries = tune(cfg["tuning"]["grid"], folds, family_fn)
    return best


# -- golden verification ------------------------------------------------------------


def _fixture_path(name: str) -> str:
    return str(resources.files("microreserve").joinpath("fixtures", name))


def run_verify(
    txns_path: str | None = None,
    expected_path: str | None = None,
    config_path: str | None = None,
    echo=print,
) -> bool:
    """Replay the worked single-claim fixture and check reward parity.

    Scripted actions come from the expected table; the checks are the
    back-solved actions (|diff| <= 1e-4), the stability rows (1e-3
    against the published 4-decimal values, exact zeros in payment
    periods), the smoothing rows (1e-4) and the terminal accuracy reward
    (1e-3).
    """
    txns_path = txns_path or _fixture_path("golden_claim_txns.csv")
    expected_path = expected_path or _fixture_path("golden_claim_expected.csv")
    config_path = config_path or _fixture_path("golden_claim_config.json")
    if not (os.path.exists(txns_path) and os.path.exists(expected_path)):
        raise DataError("golden fixture files missing")
    with open(config_path, encoding="utf-8") as fh:
        g = json.load(fh)

    data = discretize(load_transactions(txns_path, "splice"))
    with open(expected_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    claim_no = data.claims[0].claim_no
    env_cfg = EnvConfig(
        k=g["k"],
        gamma=g["gamma"],
        c_acc=g["c_acc"],
        m_warmup=g["m_warmup"],
        alpha_w=g["alpha_w"],
        s_scale=g["s_scale"],
        n_past=g["n_past"],
        state_profile=g["state_profile"],
    )
    policy = ScriptedPolicy({(claim_no, int(r["tau"])): float(r["action"]) for r in rows})
    result = rollout_calendar(data, policy, {claim_no: g["ocl0"]}, env_cfg)

    ok = True

    def check(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        echo(f"[{'PASS' if passed else 'FAIL'}] {label}{(': ' + detail) if detail else ''}")

    if len(result.transitions) != len(rows):
        check("transition count", False, f"{len(result.transitions)} != {len(rows)}")
        return False

    for txn, row in zip(result.transitions, rows):
        dp = row["dev_period"]
        back_solved = math.log(float(row["pred_ocl"]) / float(row["prev_ocl"]))
        check(
            f"action at development period {dp}",
            abs(txn.action - back_solved) <= 1e-4,
            f"{txn.action:.6f} vs {back_solved:.6f}",
        )
        gated = row["payment"] == "1"
        if gated:
            check(
                f"payment gating at development period {dp}",
                txn.breakdown.r_stab == 0.0 and txn.breakdown.r_smooth == 0.0,
            )
        else:
            check(
                f"stability reward at development period {dp}",
                abs(txn.breakdown.r_stab - float(row["table_r_stab"])) <= 1e-3,
                f"{txn.breakdown.r_stab:.4f} vs {row['table_r_stab']}",
            )
            check(
                f"smoothing reward at development period {dp}",
                abs(txn.breakdown.r_smooth - float(row["table_r_smooth"])) <= 1e-4,
                f"{txn.breakdown.r_smooth:.5f} vs {row['table_r_smooth']}",
            )
    terminal = result.transitions[-1]
    check(
        "terminal accuracy reward",
        abs(terminal.breakdown.r_acc - g["racc_weighted"]) <= 1e-3,
        f"{terminal.breakdown.r_acc:.4f} vs {g['racc_weighted']}",
    )
    return ok


# -- subcommands ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    sim = with_seed(preset(args.preset), args.seed)
    if args.claims_per_period is not None:
        sim = dataclasses.replace(sim, mean_claims_per_period=args.claims_per_period)
    dataset = simulate_portfolio(sim)
    write_transactions(dataset, args.out, schema=args.schema)
    print(f"wrote {len(dataset)} claims to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    dataset = discretize(load_transactions(args.path, args.schema))
    print(
        f"{len(dataset)} claims, {dataset.n_flagged_unsettled} open, "
        f"{dataset.n_dropped_zero_loss} zero-loss dropped, "
        f"horizon {dataset.max_calendar_period}"
    )
    if args.dev_out:
        write_dev_records(dataset, args.dev_out)
        print(f"development records -> {args.dev_out}")
    return 0


def cmd_chain_ladder(args) -> int:
    cfg = load_config(args.config, _data_overrides(args))
    dataset, boundary, view = _acquire_view(cfg, cfg["seeds"][0])
    result = cl.rbns_ocl(view, boundary)
    cl.write_cl_report(result, args.out)
    ratio = evaluate_chain_ladder(result, true_ocl_map(dataset, boundary), dataset).overall_ratio
    if ratio is not None:
        print(f"aggregate relative OCL {ratio:.4f}")
    print(f"report -> {args.out}")
    return 0


def cmd_tune(args) -> int:
    cfg = load_config(args.config, _data_overrides(args))
    if not cfg["tuning"].get("grid"):
        raise ConfigError("tuning.grid is empty")
    best = tune_from_config(cfg, _acquire_view(cfg, cfg["seeds"][0]))
    os.makedirs(cfg["output_dir"], exist_ok=True)
    out = os.path.join(cfg["output_dir"], "best_params.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=1, sort_keys=True)
    print(f"best parameters -> {out}: {best}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _data_overrides(args))
    if not (args.rl_checkpoint or args.fnn_model):
        raise ConfigError("evaluate needs --rl-checkpoint and/or --fnn-model")
    # Load the checkpoints first, so a damaged one is reported before any data work.
    agent = load_agent(args.rl_checkpoint) if args.rl_checkpoint else None
    model = load_fnn(args.fnn_model) if args.fnn_model else None
    if agent is not None:
        _check_profile(cfg, agent.env_cfg.state_profile, f"checkpoint {args.rl_checkpoint}")
    if model is not None:
        _check_profile(cfg, model.cfg.state_profile, f"checkpoint {args.fnn_model}")
    seed = cfg["seeds"][0]
    dataset, boundary, view = _acquire_view(cfg, seed)
    predictions: dict[str, dict[str, float]] = {}
    if agent is not None:
        tables = build_init_tables(view, boundary)
        predictions["rl"], _ = _predict_rl(agent, view, tables, boundary)
    if model is not None:
        predictions["fnn"] = predict_ocl_fnn(model, view, boundary)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    actuals = true_ocl_map(dataset, boundary)
    for name, preds in predictions.items():
        report = evaluate_predictions(preds, actuals, dataset, boundary)
        path = os.path.join(cfg["output_dir"], f"metrics_{name}.csv")
        write_metrics_csv(report, name, seed, path)
        print(f"{name} ratio {report.overall_ratio:.4f} -> {path}")
    return 0


def cmd_report(args) -> int:
    EnvConfig(k=args.k)  # the environment's rule for k
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    txns = _read_actions(args.transitions)
    counts, edges = action_histogram(txns, args.k, bins=args.bins, by_psn=args.by_psn)
    write_histogram_csv(counts, edges, args.out)
    print(f"histogram -> {args.out}")
    return 0


def _read_actions(path: str) -> list[SimpleNamespace]:
    """Each transition-log row's ``action`` (a float) and ``tau`` (an int).

    A log without those columns, or a row whose cells do not parse, is a
    ``ParseError`` naming the row (the header is row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("action", "tau") if c not in (reader.fieldnames or [])]
        if reader.fieldnames and missing:
            raise ParseError(f"transition log lacks columns {missing}")
        txns = []
        for row in reader:
            action, tau = row["action"], row["tau"]
            try:
                txns.append(SimpleNamespace(action=float(action), tau=int(tau)))
            except (TypeError, ValueError):
                raise ParseError(
                    f"row {reader.line_num}: cannot parse action={action!r}, tau={tau!r}"
                ) from None
    if not txns:
        raise DataError("transition log is empty")
    return txns


def cmd_run(args) -> int:
    cfg = load_config(args.config, _data_overrides(args))
    return _run_with_manifest(cfg)


def _run_with_manifest(cfg: dict) -> int:
    manifest_path = run_pipeline(cfg)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(f"manifest -> {manifest_path} (stage: {manifest['stage_reached']})")
    for summary in manifest.get("summaries", []):
        bits = [f"seed {summary['seed']}"]
        for model in ("rl", "fnn", "cl"):
            if f"{model}_ratio" in summary and summary[f"{model}_ratio"] is not None:
                bits.append(f"{model} ratio {summary[f'{model}_ratio']:.4f}")
        print("  " + ", ".join(bits))
    return 0


def cmd_verify(args) -> int:
    ok = run_verify(args.txns, args.expected, args.fixture_config)
    return 0 if ok else 2


def _data_overrides(args) -> dict:
    out = {}
    for flag, key in (
        ("seeds", "seeds"),
        ("output_dir", "output_dir"),
        ("preset", "data.preset"),
        ("claims_per_period", "data.claims_per_period"),
        ("path", "data.path"),
        ("schema", "data.schema"),
        ("boundary", "split.boundary"),
        ("models", "models"),
    ):
        if hasattr(args, flag):
            out[key] = getattr(args, flag)
    if out.get("seeds") is not None:
        try:
            out["seeds"] = [int(s) for s in str(out["seeds"]).split(",")]
        except ValueError:
            raise ConfigError(f"--seeds takes comma-separated integers: {out['seeds']!r}") from None
    if out.get("models") is not None:
        out["models"] = str(out["models"]).split(",")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microreserve",
        description="Claim-level reserving: simulator, RL agent, benchmarks, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic transactions CSV")
    p.add_argument("--preset", default="complexity1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--claims-per-period", type=float, default=None)
    p.add_argument("--schema", default="splice", choices=["splice", "cas"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="validate a transactions CSV")
    p.add_argument("--path", required=True)
    p.add_argument("--schema", default="splice", choices=["splice", "cas"])
    p.add_argument("--dev-out", default=None)
    p.set_defaults(fn=cmd_ingest)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--seeds", default=None)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        p.add_argument("--preset", default=None)
        p.add_argument("--claims-per-period", type=float, default=None)
        p.add_argument("--path", default=None)
        p.add_argument("--schema", default=None)
        p.add_argument("--boundary", type=int, default=None)

    p = sub.add_parser("chain-ladder", help="IBNR-stripped chain ladder report")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_chain_ladder)

    # The single-model subcommands are runs with the model list fixed.
    p = sub.add_parser("train-rl", help="train the RL reserve model")
    common(p)
    p.set_defaults(fn=cmd_run, models="rl")

    p = sub.add_parser("train-fnn", help="train the supervised benchmark")
    common(p)
    p.set_defaults(fn=cmd_run, models="fnn")

    p = sub.add_parser("tune", help="rolling-settlement hyperparameter search")
    common(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("evaluate", help="score saved models on the configured data")
    common(p)
    p.add_argument("--rl-checkpoint", default=None)
    p.add_argument("--fnn-model", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="action histogram from a transition log")
    p.add_argument("--transitions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--by-psn", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="full pipeline: data, models, reports, manifest")
    common(p)
    p.add_argument("--models", default=None, help="comma list from rl,fnn,cl")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="replay the worked single-claim fixture")
    p.add_argument("--txns", default=None)
    p.add_argument("--expected", default=None)
    p.add_argument("--fixture-config", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LeakageError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
