import csv
import gc
import json
import os
import re
import subprocess
import sys

import pytest

from microreserve import cli
from microreserve.claims import censor
from microreserve.errors import NumericFault

# A seeded portfolio small enough for a full rl + fnn + cl run in a few seconds.
TINY = {
    "data": {"source": "simulate", "preset": "complexity1", "claims_per_period": 4},
    "sac": {"warmup_steps": 50, "hidden": [8], "batch_size": 16},
    "fnn": {"max_epochs": 3, "hidden": [8]},
    "seeds": [3],
}

# Cas-schema data to ingest; tests that use it stop before acquisition.
CAS_INGEST = {"source": "ingest", "path": "absent.csv", "schema": "cas"}

LABELS = {
    "model": {"rl", "fnn", "cl"},
    "slice": {"overall", "ap", "psn"},
    "tercile": {"small", "medium", "large"},
}


def write_config(path, cfg) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def run_tiny(out_dir, **extra) -> dict:
    cfg = {**TINY, **extra, "output_dir": str(out_dir)}
    path = write_config(os.path.join(str(out_dir) + ".json"), cfg)
    assert cli.main(["run", "--config", path]) == 0
    with open(os.path.join(str(out_dir), "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "run"
    return out, run_tiny(out)


def no_acquisition(cfg, seed):
    pytest.fail("data was acquired")


def cell_ok(column: str, cell: str) -> bool:
    if cell == "":
        return True
    try:
        float(cell)
        return True
    except ValueError:
        pass
    if column == "claim_no":
        return True
    return cell in LABELS.get(column, ())


class TestExitCodes:
    def test_verify_exits_zero(self, capsys):
        assert cli.main(["verify"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_model_is_config_error(self, tmp_path):
        assert cli.main(["run", "--models", "bogus", "--output-dir", str(tmp_path)]) == 1

    def test_missing_ingest_file_is_data_error(self, tmp_path):
        cfg = {
            "data": {"source": "ingest", "path": str(tmp_path / "absent.csv")},
            "output_dir": str(tmp_path / "out"),
        }
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2

    def test_numeric_fault_exits_three(self, tmp_path, monkeypatch):
        def diverge(cfg, seed):
            raise NumericFault("diverged")

        monkeypatch.setattr(cli, "acquire_dataset", diverge)
        assert cli.main(["run", "--output-dir", str(tmp_path)]) == 3

    # Each config is otherwise the tiny run, so a key that slipped through
    # would fail the test in seconds rather than run the default portfolio.
    @pytest.mark.parametrize(
        "extra",
        [
            {"sac": {**TINY["sac"], "bogus": 1}},
            {"split": {"kind": "ts"}},
            {"data": {**TINY["data"], "bogus": 1}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"lr": 0.01}, {"bogus": 1}]}},
            {"tuning": {"enabled": True, "family": "rl", "grid": [{"sac": {"lr": 0.01}}]}},
            # Set by the run itself: the run seed and the environment's profile.
            {"sac": {**TINY["sac"], "seed": 5}},
            {"fnn": {**TINY["fnn"], "seed": 5}},
            {"fnn": {**TINY["fnn"], "state_profile": "minimal"}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"seed": 5}]}},
            # The FNN's weight scale cancels in training, so no config sets it.
            {"fnn": {"s_scale": 5}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"s_scale": 5}]}},
        ],
        ids=[
            "sac", "split_kind", "data", "fnn_grid", "rl_grid",
            "sac_seed", "fnn_seed", "fnn_state_profile", "fnn_grid_seed",
            "fnn_s_scale", "fnn_grid_s_scale",
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, extra):
        cfg = {**TINY, **extra, "models": ["cl"], "output_dir": str(tmp_path)}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1

    # Values each model config's constructor rejects; a cl-only run still
    # validates every model section before any work.
    @pytest.mark.parametrize(
        "extra",
        [
            {"sac": {**TINY["sac"], "replay_capacity": 8}},
            {"sac": {**TINY["sac"], "warmup_steps": -1}},
            {"sac": {**TINY["sac"], "actor_lr": 0.0}},
            {"sac": {**TINY["sac"], "critic_lr": -0.001}},
            {"sac": {**TINY["sac"], "temp_lr": 0.0}},
            {"fnn": {**TINY["fnn"], "lr": 0.0}},
            {"fnn": {**TINY["fnn"], "hidden": "ab"}},
            {"sac": {**TINY["sac"], "hidden": [0]}},
            # The split and data values validate_config types itself.
            {"split": {"k_folds": "3"}},
            {"split": {"k_folds": True}},
            {"split": {"boundary": "x"}},
            {"split": {"boundary": 0}},
            {"split": {"boundary": 2.5}},
            {"data": {**TINY["data"], "claims_per_period": "abc"}},
            {"data": {**TINY["data"], "claims_per_period": 0}},
            {"data": {**TINY["data"], "claims_per_period": float("inf")}},
            # Each tuning grid point, merged into its section's config.
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"lr": "abc"}]}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"lr": 0.01}, {"hidden": 5}]}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"dropout": 1.0}]}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": [{"hidden": [2.5]}]}},
            {"tuning": {"enabled": True, "family": "rl", "grid": [{"sac": {"actor_lr": "x"}}]}},
            {"tuning": {"enabled": True, "family": "rl", "grid": [{"env": {"k": 0.5}}]}},
            {"tuning": {"enabled": True, "family": "fnn", "grid": {"lr": 0.01}}},
            # The splice_full layout on cas data, whose case slot would read 0.0.
            {"data": CAS_INGEST, "env": {"state_profile": "splice_full"}},
            {"data": CAS_INGEST, "tuning": {"enabled": True, "family": "rl", "grid": [
                {"env": {"c_acc": 2.0}}, {"env": {"state_profile": "splice_full"}},
            ]}},
        ],
        ids=[
            "sac_ring_below_batch", "sac_warmup", "sac_actor_lr", "sac_critic_lr",
            "sac_temp_lr", "fnn_lr", "fnn_hidden_str", "sac_hidden_zero", "k_folds_str", "k_folds_bool", "boundary_str",
            "boundary_zero", "boundary_float", "claims_per_period_str",
            "claims_per_period_zero", "claims_per_period_inf", "fnn_grid_lr_str",
            "fnn_grid_hidden_int", "fnn_grid_dropout", "fnn_grid_hidden_float",
            "rl_grid_sac_lr_str", "rl_grid_env_k",
            "grid_not_a_list", "cas_splice_full", "cas_rl_grid_splice_full",
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, monkeypatch, capsys, extra):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        cfg = {**TINY, **extra, "models": ["cl"], "output_dir": str(tmp_path)}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", [None, "cas", "minimal"])
    def test_cas_data_takes_the_profiles_it_fills(self, tmp_path, profile):
        env = {} if profile is None else {"state_profile": profile}
        cfg = {**TINY, "data": CAS_INGEST, "env": env, "output_dir": str(tmp_path)}
        assert cli.load_config(write_config(tmp_path / "c.json", cfg), {})["env"] == env

    @pytest.mark.parametrize("models", [[], "fnn", ["fnn", "fnn"], ["cl", "bogus"], [1]])
    def test_bad_models_is_config_error(self, tmp_path, capsys, models):
        cfg = {**TINY, "models": models, "output_dir": str(tmp_path / "out")}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [[-1], [1.5], ["2"], [True], [], 3, [3, 3]])
    def test_bad_config_seed_is_config_error(self, tmp_path, capsys, seeds):
        cfg = {**TINY, "seeds": seeds, "models": ["cl"], "output_dir": str(tmp_path)}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["a,b", "1,", "-1", "1,-2", "3,3"])
    def test_bad_seeds_flag_is_config_error(self, tmp_path, capsys, seeds):
        argv = ["run", "--models", "cl", "--seeds", seeds, "--output-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "config error:" in capsys.readouterr().err

    def test_negative_simulate_seed_is_config_error(self, tmp_path, capsys):
        argv = ["simulate", "--seed", "-1", "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 1
        assert "config error: seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_untyped_crash_exits_four_with_traceback(self, tmp_path, monkeypatch, capsys):
        def crash(cfg, seed):
            raise TypeError("boom")

        monkeypatch.setattr(cli, "acquire_dataset", crash)
        assert cli.main(["run", "--models", "cl", "--output-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "TypeError: boom" in err

    @pytest.mark.parametrize(
        "model, message",
        [
            ("rl", r"claim c36_1 ends its episode after boundary 40"),
            # The fnn guard checks the rows' claims as a set, in no fixed order.
            ("fnn", r"training row from claim c\d+_\d+ not settled by 40"),
        ],
    )
    def test_a_view_past_the_boundary_is_a_leak(
        self, tmp_path, monkeypatch, capsys, model, message
    ):
        # The model code reads the valuation from the view, so a view cut one
        # period late shows only to the guards, which get the resolved boundary.
        monkeypatch.setattr(cli, "split", lambda dataset, boundary: censor(dataset, boundary + 1))
        cfg = {**TINY, "split": {"boundary": 40}, "models": [model], "output_dir": str(tmp_path)}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert re.fullmatch(f"data error: {message}\n", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "log, flags, code, message",
        [
            ("claim_no,tau,action\na,1,0.1\nb,2,abc\n", [], 2, "row 3: cannot parse action='abc'"),
            ("claim_no,tau,action\na,x,0.1\n", [], 2, "row 2: cannot parse action='0.1', tau='x'"),
            ("claim_no,action\na,0.1\n", [], 2, "lacks columns ['tau']"),
            ("claim_no,tau,action\n", [], 2, "transition log is empty"),
            ("claim_no,tau,action\na,1,0.1\n", ["--k", "0.5"], 1, "k must be a finite number"),
            ("claim_no,tau,action\na,1,0.1\n", ["--k", "1"], 1, "k must be a finite number"),
            ("claim_no,tau,action\na,1,0.1\n", ["--k", "nan"], 1, "above 1, got nan"),
            ("claim_no,tau,action\na,1,0.1\n", ["--k", "inf"], 1, "above 1, got inf"),
            ("claim_no,tau,action\na,1,0.1\n", ["--bins", "0"], 1, "--bins must be >= 1"),
        ],
        ids=[
            "action_abc", "tau_x", "no_tau", "header_only", "k_half", "k_one", "k_nan", "k_inf",
            "bins_zero",
        ],
    )
    def test_report_checks_its_inputs(self, tmp_path, capsys, log, flags, code, message):
        (tmp_path / "log.csv").write_text(log, encoding="utf-8")
        out = tmp_path / "hist.csv"
        argv = ["report", "--transitions", str(tmp_path / "log.csv"), "--out", str(out), *flags]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert ("data error:" if code == 2 else "config error:") in err and message in err
        assert "Traceback" not in err and not out.exists()

    def test_report_writes_each_bin(self, tmp_path):
        (tmp_path / "log.csv").write_text("claim_no,tau,action\na,1,0.0\nb,2,0.5\n")
        out = tmp_path / "hist.csv"
        argv = ["report", "--transitions", str(tmp_path / "log.csv"), "--out", str(out)]
        assert cli.main([*argv, "--bins", "3"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert [int(r[2]) for r in rows[1:]] == [0, 1, 1]

    def test_single_fold_is_config_error(self, tmp_path):
        cfg = {**TINY, "split": {"k_folds": 1}, "models": ["cl"], "output_dir": str(tmp_path)}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1


class TestRun:
    def test_manifest_done_with_every_model(self, tiny_run):
        out, manifest = tiny_run
        assert manifest["stage_reached"] == "done"
        summary = manifest["summaries"][0]
        for model in ("rl", "fnn", "cl"):
            assert summary[f"{model}_ratio"] > 0
        for rel, digest in manifest["outputs"].items():
            assert cli._sha256(os.path.join(str(out), rel)) == digest

    def test_every_csv_cell_parses(self, tiny_run):
        out, _ = tiny_run
        bad = []
        for root, _dirs, files in os.walk(str(out)):
            for name in sorted(f for f in files if f.endswith(".csv")):
                with open(os.path.join(root, name), newline="", encoding="utf-8") as fh:
                    rows = csv.reader(fh)
                    header = next(rows)
                    for row in rows:
                        bad += [(name, c, v) for c, v in zip(header, row) if not cell_ok(c, v)]
        assert bad == []

    def test_same_config_same_output_hashes(self, tiny_run, tmp_path):
        _, first = tiny_run
        again = run_tiny(tmp_path / "again")
        assert again["outputs"] == first["outputs"]

    def test_rl_tuning_run_completes(self, tmp_path):
        tuning = {
            "enabled": True,
            "family": "rl",
            "grid": [{"sac": {"actor_lr": 0.001}}, {"env": {"gamma": 0.95}}],
        }
        manifest = run_tiny(tmp_path / "tuned", models=["rl"], tuning=tuning)
        assert manifest["stage_reached"] == "done"
        assert manifest["tuned_params"] in tuning["grid"]

    def test_tune_writes_the_params_a_tuned_run_picks(self, tmp_path):
        tuning = {"enabled": True, "family": "fnn", "grid": [{"lr": 0.001}, {"lr": 0.01}]}
        cfg = {**TINY, "tuning": tuning, "output_dir": str(tmp_path / "tune")}
        assert cli.main(["tune", "--config", write_config(tmp_path / "tune.json", cfg)]) == 0
        best = json.loads((tmp_path / "tune" / "best_params.json").read_text(encoding="utf-8"))
        manifest = run_tiny(tmp_path / "run", models=["fnn"], tuning=tuning)
        assert best in tuning["grid"] and best == manifest["tuned_params"]

    def test_tune_with_an_empty_grid_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        tuning = {"enabled": True, "family": "fnn", "grid": []}
        cfg = {**TINY, "tuning": tuning, "output_dir": str(tmp_path / "tune")}
        assert cli.main(["tune", "--config", write_config(tmp_path / "tune.json", cfg)]) == 1
        assert "config error: tuning.grid is empty" in capsys.readouterr().err
        assert not (tmp_path / "tune").exists()

    def test_tuned_run_acquires_each_seed_once(self, tmp_path, monkeypatch):
        seeds = []
        acquire = cli.acquire_dataset

        def counted(cfg, seed):
            seeds.append(seed)
            return acquire(cfg, seed)

        monkeypatch.setattr(cli, "acquire_dataset", counted)
        tuning = {"enabled": True, "family": "fnn", "grid": [{"lr": 0.01}]}
        manifest = run_tiny(tmp_path / "tuned", models=["fnn"], tuning=tuning, seeds=[3, 4])
        assert manifest["stage_reached"] == "done"
        assert seeds == [3, 4]

    def test_tuned_run_builds_each_folds_rows_once(self, tmp_path, monkeypatch):
        # Two grid points over two folds, then the final fit: 3 row builds where
        # one per fit would make 5, with the same tuning entries and outputs.
        build, tune, fit_fnn = cli.build_training_rows, cli.tune, cli._fit_fnn
        tuning = {"enabled": True, "family": "fnn", "grid": [{"lr": 0.001}, {"lr": 0.01}]}

        def run(name):
            builds, entries = [], []

            def counted(view, cfg):
                builds.append(view.max_calendar_period)
                return build(view, cfg)

            def recorded(grid, folds, family_fn):
                best, got = tune(grid, folds, family_fn)
                entries.extend(got)
                return best, got

            monkeypatch.setattr(cli, "build_training_rows", counted)
            monkeypatch.setattr(cli, "tune", recorded)
            manifest = run_tiny(tmp_path / name, models=["fnn"], tuning=tuning)
            assert manifest["stage_reached"] == "done"
            return builds, entries, manifest["outputs"]

        builds, entries, outputs = run("shared")
        # Without the memo, every fit builds its own rows.
        monkeypatch.setattr(cli, "_fit_fnn", lambda *args: fit_fnn(*args[:4]))
        per_fit_builds, per_fit_entries, per_fit_outputs = run("per_fit")
        assert len(builds) == 3 and len(per_fit_builds) == 5
        assert len(entries) == 2 and entries == per_fit_entries
        assert outputs == per_fit_outputs


class TestCollector:
    """Acquisition runs with the cyclic collector paused, and a run freezes what it built.

    The caller's collector setting and freeze count are what they were on
    entry once the run ends, whether it ends well or fails.
    """

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def entry_state(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param, gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()

    def test_discretize_runs_paused_and_the_run_freezes_its_records(
        self, tmp_path, monkeypatch, entry_state
    ):
        seen = {}
        discretize, build_init_tables = cli.discretize, cli.build_init_tables

        def watched_discretize(dataset):
            seen["collector_on"] = gc.isenabled()
            return discretize(dataset)

        def watched_tables(view):
            seen["frozen"] = gc.get_freeze_count()
            return build_init_tables(view)

        monkeypatch.setattr(cli, "discretize", watched_discretize)
        monkeypatch.setattr(cli, "build_init_tables", watched_tables)
        assert run_tiny(tmp_path / "run", models=["cl"])["stage_reached"] == "done"
        assert seen["collector_on"] is False and seen["frozen"] > 0
        assert (gc.isenabled(), gc.get_freeze_count()) == entry_state

    def test_a_failed_acquisition_restores_the_collector(self, tmp_path, capsys, entry_state):
        path = tmp_path / "txns.csv"
        assert cli.main(["simulate", "--claims-per-period", "2", "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",x", 1)  # a damaged cell in the third row
        path.write_text("".join(lines), encoding="utf-8")
        cfg = {**TINY, "data": {"source": "ingest", "path": str(path), "schema": "splice"},
               "models": ["cl"], "output_dir": str(tmp_path / "out")}
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert (gc.isenabled(), gc.get_freeze_count()) == entry_state

    def test_a_caller_s_frozen_objects_stay_frozen(self, tmp_path, monkeypatch):
        """The run freezes nothing of its own then, since its unfreeze would free the caller's.

        The count can fall: frozen objects are still freed when nothing refers to them.
        """
        seen = []
        build_init_tables = cli.build_init_tables
        monkeypatch.setattr(
            cli, "build_init_tables",
            lambda *args: seen.append(gc.get_freeze_count()) or build_init_tables(*args),
        )
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_tiny(tmp_path / "run", models=["cl"])
            assert 0 < seen[0] <= frozen and 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()

    def test_a_direct_acquisition_freezes_nothing(self, entry_state):
        cfg = cli.load_config(None, {"data.claims_per_period": 2})
        dataset, boundary, view = cli._acquire_view(cfg, 1)
        assert len(view) <= len(dataset) and boundary > 0
        assert (gc.isenabled(), gc.get_freeze_count()) == entry_state


def test_package_runs_as_a_module(tmp_path):
    """``python -m microreserve`` is the CLI: same commands, same exit codes."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "microreserve", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    out = tmp_path / "t.csv"
    done = run("simulate", "--claims-per-period", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_text().startswith("claim_no,")
    bad = run("simulate", "--seed", "-1", "--out", str(out))
    assert bad.returncode == 1 and "config error:" in bad.stderr
