"""Every bad config number and every damaged checkpoint fails typed.

One rule (``errors.check_number``) decides what a config number may be, so
each numeric field of the four config classes is probed the same way: the
constructor raises ``ConfigError`` or builds the object, never anything
else, and a run config holding a rejected value exits 1 before any data is
acquired. So does a switch that is not a bool, a path that is not a
string, a config file that cannot be read or holds no JSON object, and a
config section that is no JSON object, with or without a flag for that
section. So does a ``verify`` fixture config that cannot be read, holds no
JSON object, or lacks or mistypes a field. A tiny run's checkpoints, damaged one way at a time (the arrays of
``model.npz`` included), make ``evaluate`` exit 2 before it acquires data,
and so does a checkpoint in the earlier layout. A data file that is a
directory or not UTF-8 makes ``ingest``, ``run`` and ``report`` exit 2.
"""

import dataclasses
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microreserve import cli
from microreserve.env import EnvConfig
from microreserve.errors import ConfigError, check_number
from microreserve.fnn import FnnConfig
from microreserve.sac import SacConfig
from microreserve.simulator import SimConfig

from test_cli import CAS_INGEST, TINY, no_acquisition, run_tiny, write_config

CLASSES = (EnvConfig, SacConfig, FnnConfig, SimConfig)
NUMERIC = [
    (cls, f.name)
    for cls in CLASSES
    for f in dataclasses.fields(cls)
    if f.type.removesuffix(" | None") in ("int", "float")
]
ALWAYS_BAD = [math.nan, math.inf, -math.inf, True, "1"]
MAYBE_BAD = [-1, 1e300]


def builds_or_config_error(cls, name, value) -> bool:
    """True if ``cls(name=value)`` builds; False on ConfigError; anything else propagates."""
    try:
        cls(**{name: value})
    except ConfigError:
        return False
    return True


class TestConstructors:
    def test_every_numeric_field_is_probed(self):
        assert len(NUMERIC) == 49
        assert (SacConfig, "auto_temp") not in NUMERIC  # a bool field, probed below

    @pytest.mark.parametrize("cls, name", NUMERIC, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC])
    def test_non_finite_bool_and_text_are_config_errors(self, cls, name):
        for value in ALWAYS_BAD:
            assert not builds_or_config_error(cls, name, value), value

    @pytest.mark.parametrize("cls, name", NUMERIC, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC])
    def test_negative_and_huge_build_or_are_config_errors(self, cls, name):
        for value in MAYBE_BAD:
            builds_or_config_error(cls, name, value)

    @given(
        st.sampled_from(NUMERIC),
        st.one_of(
            st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
            st.lists(st.integers(), max_size=2), st.just(np.float64("nan")), st.just(np.int64(3)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_value_builds_or_is_a_config_error(self, field, value):
        builds_or_config_error(*field, value)

    @given(
        st.sampled_from(["minor_at_payment_prob", "major_at_payment_prob"]),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()),
    )
    @example("minor_at_payment_prob", 1.5)
    @example("major_at_payment_prob", -0.2)
    @example("major_at_payment_prob", 1)
    @example("minor_at_payment_prob", 0.0)
    @settings(max_examples=200, deadline=None)
    def test_probabilities_build_only_inside_the_unit_interval(self, name, value):
        assert builds_or_config_error(SimConfig, name, value) == (0 <= value <= 1)

    @pytest.mark.parametrize("value", ["yes", 1, 0.0, None, math.nan])
    def test_auto_temp_takes_only_a_bool(self, value):
        with pytest.raises(ConfigError, match="auto_temp must be a bool"):
            SacConfig(auto_temp=value)

    def test_values_the_package_passes_stay_valid(self):
        EnvConfig(k=2, s_scale=np.float64(3.5), n_past=np.int64(5))
        FnnConfig(alpha_w=np.float32(2.0), max_epochs=np.int32(4))
        SimConfig(mean_claims_per_period=3, seed=np.uint64(2**40), structural_break_period=None)
        SacConfig(replay_capacity=None, auto_temp=False, entropy_target=-3)

    def test_an_int_field_takes_no_float(self):
        with pytest.raises(ConfigError, match=r"batch_size must be an integer >= 1, got 8.0"):
            SacConfig(batch_size=8.0)


class TestCheckNumber:
    @pytest.mark.parametrize(
        "value, kind, interval, message",
        [
            (math.nan, "float", "(1, inf)", "x must be a finite number above 1, got nan"),
            (0, "int | None", "[1, inf)", "x must be None or an integer >= 1, got 0"),
            (1.0, "float", "[0, 1)", "x must be a finite number >= 0 and below 1, got 1.0"),
            (10**400, "int", "(-inf, inf)", "x must be an integer, got 1000"),
            ("a", "bool", "(-inf, inf)", "x must be a bool, got 'a'"),
        ],
    )
    def test_messages_name_the_rule(self, value, kind, interval, message):
        with pytest.raises(ConfigError) as info:
            check_number("x", value, kind, interval)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "value, kind, interval",
        [(None, "int | None", "[1, inf)"), (1, "float", "(0, 1]"), (-5, "int", "(-inf, 0)")],
    )
    def test_accepted(self, value, kind, interval):
        check_number("x", value, kind, interval)


# The sections a run config sets, each with its numeric keys.
CLI_FIELDS = [
    (section, name)
    for section, cls in cli.MODEL_SECTIONS.items()
    for name in cli._fields(section)
    if (cls, name) in NUMERIC
]


class TestCli:
    def test_rejected_values_exit_one_before_acquisition(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        cases = [
            (section, name, value)
            for section, name in CLI_FIELDS
            for value in ALWAYS_BAD + MAYBE_BAD
            if not builds_or_config_error(cli.MODEL_SECTIONS[section], name, value)
        ]
        by_the_rule = [("split", "k_folds"), ("split", "boundary"), ("data", "claims_per_period")]
        for section, name in by_the_rule:
            cases += [(section, name, value) for value in ALWAYS_BAD + [-1]]
        cases.append(("sac", "auto_temp", "yes"))
        assert len(cases) > 140
        path = tmp_path / "c.json"
        for section, name, value in cases:
            cfg = {**TINY, "output_dir": str(tmp_path / "out")}
            cfg[section] = {**cfg.get(section, {}), name: value}
            assert cli.main(["run", "--config", write_config(path, cfg)]) == 1, (name, value)
            err = capsys.readouterr().err
            assert err.startswith("config error:") and name in err, (name, value)
        assert not (tmp_path / "out").exists()

    def test_the_reproduced_crashes_are_config_errors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        for extra in (
            {"sac": {"batch_size": 2.5, "warmup_steps": 0}},
            {"sac": {"updates_per_step": 1.5, "warmup_steps": 0}},
            {"sac": {"warmup_steps": 0.5}},
            {"env": {"n_past": True}},
            {"fnn": {"patience": 2.5}},
            {"fnn": {"lr": math.nan}},
        ):
            cfg = {"data": {"claims_per_period": 3}, **extra, "output_dir": str(tmp_path)}
            assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tuning.enabled", "false"),  # a non-empty string is true
            ("data.write_transactions", "no"),
            ("output_dir", 5),
            ("data.path", 7),  # open(7) would read file descriptor 7
            ("data.path", 0),  # and 0 would read stdin
        ],
    )
    def test_non_number_values_exit_one_before_acquisition(
        self, tmp_path, monkeypatch, capsys, name, value
    ):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        cfg = {**TINY, "output_dir": str(tmp_path / "out")}
        if name == "data.path":
            cfg["data"] = {**CAS_INGEST, "path": value}
        section, _, key = name.rpartition(".")
        if section:
            cfg[section] = {**cfg.get(section, {}), key: value}
        else:
            cfg[key] = value
        assert cli.main(["run", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert not (tmp_path / "out").exists()

    def test_a_directory_as_the_config_file_is_a_config_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "kind", ["directory", "not_json", "not_utf8", "no_object", "no_k", "no_ocl0", "bad_ocl0",
                 "bad_racc", "bad_gamma"],
    )
    def test_a_bad_fixture_config_is_a_config_error(self, tmp_path, capsys, kind):
        with open(cli._fixture_path("golden_claim_config.json"), encoding="utf-8") as fh:
            good = json.load(fh)
        path = tmp_path / "fixture_config.json"
        edits = {
            "no_k": {"k": None}, "no_ocl0": {"ocl0": None}, "bad_ocl0": {"ocl0": -5.0},
            "bad_racc": {"racc_weighted": "3.75"}, "bad_gamma": {"gamma": 1.5},
        }
        if kind == "directory":
            path.mkdir()
        elif kind == "not_json":
            path.write_text("{not json", encoding="utf-8")
        elif kind == "not_utf8":
            path.write_bytes(b'{"k": "\xff"}')
        elif kind == "no_object":
            path.write_text("[2.0]", encoding="utf-8")
        else:
            cfg = {**good, **edits[kind]}
            path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        assert cli.main(["verify", "--fixture-config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert str(path) in err or kind.startswith("bad_"), err

    @pytest.mark.parametrize(
        "kind",
        ["bad_cell", "no_action_column", "header_only", "missing_row", "two_claims", "no_claims"],
    )
    def test_a_damaged_fixture_table_is_a_data_error(self, tmp_path, capsys, kind):
        # Each of these crashed with a traceback: ValueError, KeyError 'action',
        # KeyError ('G1', 1), KeyError ('G1', 12), KeyError 'G2' and IndexError.
        flag = "--txns" if kind.endswith("claims") else "--expected"
        source = cli._fixture_path("golden_claim_" + ("txns" if flag == "--txns" else "expected"))
        with open(source + ".csv", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        if kind == "bad_cell":
            rows[1] = rows[1].replace("3,2,", "3,two,", 1)  # the tau cell
        elif kind == "no_action_column":
            header = header.replace(",action,", ",act,")
        elif kind == "missing_row":
            rows.pop()
        elif kind == "two_claims":
            rows += [row.replace("G1,", "G2,", 1) for row in rows]
        else:
            rows = []
        path = tmp_path / "damaged.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert cli.main(["verify", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:"), err
        assert str(path) in err or "no scripted action for claim G1 at tau 12" in err, err

    def test_the_reproduced_fixture_config_crash_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "fixture_config.json"
        path.write_text(json.dumps({"ocl0": 5}), encoding="utf-8")
        assert cli.main(["verify", "--fixture-config", str(path)]) == 1
        assert "'k'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, flags",
        [
            ("data", 5, ["run", "--preset", "complexity1"]),
            ("data", [], ["run", "--claims-per-period", "3"]),
            ("data", "x", ["run", "--path", "t.csv"]),
            ("data", None, ["evaluate", "--schema", "cas", "--fnn-model", "m"]),
            ("split", [1], ["chain-ladder", "--boundary", "5", "--out", "cl.csv"]),
            ("split", 7, ["tune", "--boundary", "5"]),
        ],
    )
    def test_a_section_that_is_no_object_is_a_config_error_under_its_flags(
        self, tmp_path, monkeypatch, capsys, section, value, flags
    ):
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        path = write_config(tmp_path / "c.json", {section: value})
        assert cli.main([*flags[:1], "--config", path, *flags[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{section} must be a JSON object" in err

    def test_a_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff\xfe{"seeds": [1]}')
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("payload", [[], ["seeds", 1], "run", 3, None])
    def test_a_config_that_is_no_json_object_is_a_config_error(self, tmp_path, capsys, payload):
        path = write_config(tmp_path / "c.json", payload)
        assert cli.main(["run", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("config error:")


# -- damaged checkpoints ------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A tiny rl + fnn run's config and its two checkpoint directories."""
    out = tmp_path_factory.mktemp("checkpoints") / "run"
    assert run_tiny(out, models=["rl", "fnn"])["stage_reached"] == "done"
    config = write_config(str(out) + "_eval.json", {**TINY, "output_dir": str(out / "eval")})
    return config, {"rl": out / "seed_3" / "rl_checkpoint", "fnn": out / "seed_3" / "fnn_model"}


def edit_json(name, change):
    def damage(directory):
        path = directory / name
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    return damage


def edit_npz(change):
    def damage(directory):
        path = directory / "model.npz"
        with np.load(path) as data:
            arrays = dict(data)
        change(arrays)
        np.savez(path, **arrays)

    return damage


def truncate(name):
    def damage(directory):
        text = (directory / name).read_text()
        (directory / name).write_text(text[: len(text) // 2])

    return damage


def overwrite(name, text):
    def damage(directory):
        (directory / name).write_text(text)

    return damage


def drop(*keys):
    def change(payload):
        for key in keys[:-1]:
            payload = payload[key]
        del payload[keys[-1]]

    return change


def put(value, *keys):
    def change(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value

    return change


def reshape(name, shape):
    def change(arrays):
        arrays[name] = arrays[name].reshape(shape)

    return change


def section_keys(model):
    if model == "rl":
        return [("env", f.name) for f in dataclasses.fields(EnvConfig)] + [
            ("sac", f.name) for f in dataclasses.fields(SacConfig)
        ]
    return [("cfg", f.name) for f in dataclasses.fields(FnnConfig)]


def to_old_layout(directory):
    """Rewrite a checkpoint with the file names of the earlier layout.

    That layout kept the scaler (with the log temperature) in ``scaler.npz``
    and each network in a JSON file of its own.
    """
    path = directory / "model.npz"
    with np.load(path) as data:
        arrays = dict(data)
    path.unlink()
    for name in ("actor", "critic1", "critic2", "net"):
        if name in arrays:
            (directory / f"{name}.json").write_text(json.dumps(arrays.pop(name).tolist()))
    np.savez(directory / "scaler.npz", **arrays)


NET = {"rl": "actor", "fnn": "net"}  # a network's array in model.npz
SECTION = {"rl": "env", "fnn": "cfg"}


def damages(model):
    net, section = NET[model], SECTION[model]
    rejects_two = "dropout" if model == "fnn" else "gamma"  # both lie below 1
    found = [
        ("model_not_npz", overwrite("model.npz", "not an archive\n")),
        ("model_empty", overwrite("model.npz", "")),
        ("scaler_reshape_shift", edit_npz(reshape("shift", (1, -1)))),
        ("scaler_reshape_currency", edit_npz(reshape("currency", (-1, 1)))),
        ("scaler_short_scale", edit_npz(lambda a: a.update(scale=a["scale"][:-1]))),
        ("scaler_text_shift", edit_npz(lambda a: a.update(shift=a["shift"].astype(str)))),
        ("scaler_float_currency", edit_npz(lambda a: a.update(currency=a["currency"] * 1.0))),
        ("scaler_nan_shift", edit_npz(lambda a: a["shift"].__setitem__(0, np.nan))),
        ("scaler_zero_scale", edit_npz(lambda a: a["scale"].__setitem__(0, 0.0))),
        ("extra_array", edit_npz(lambda a: a.update(bogus=np.zeros(1)))),
        ("net_missing", edit_npz(drop(net))),
        ("net_short", edit_npz(lambda a: a.update({net: a[net][:-1]}))),
        ("net_two_d", edit_npz(lambda a: a.update({net: a[net].reshape(1, -1)}))),
        ("net_text", edit_npz(lambda a: a.update({net: a[net].astype(str)}))),
        ("net_float32", edit_npz(lambda a: a.update({net: a[net].astype(np.float32)}))),
        ("net_nan_weight", edit_npz(lambda a: a[net].__setitem__(0, np.nan))),
        ("config_truncated", truncate("config.json")),
        ("config_missing", lambda d: (d / "config.json").unlink()),
        ("config_section_dropped", edit_json("config.json", drop(section))),
        ("config_unknown_section", edit_json("config.json", put({}, "bogus"))),
        ("config_unknown_key", edit_json("config.json", put(1, section, "bogus"))),
        ("config_rejected_value", edit_json("config.json", put(2.0, section, rejects_two))),
        ("config_wrong_type", edit_json("config.json", put("x", section, "hidden"))),
    ]
    found += [
        (f"config_drops_{'.'.join(keys)}", edit_json("config.json", drop(*keys)))
        for keys in section_keys(model)
    ]
    if model == "rl":
        found += [
            ("scaler_no_log_temp", edit_npz(drop("log_temp"))),
            ("scaler_log_temp_pair", edit_npz(lambda a: a.update(log_temp=np.zeros(2)))),
            ("critic_missing", edit_npz(drop("critic2"))),
            ("config_bool_temp", edit_json("config.json", put("yes", "sac", "auto_temp"))),
        ]
    else:
        found += [("config_old_s_scale", edit_json("config.json", put(57.5, "s_scale")))]
    for name in ("shift", "scale", "currency"):
        found.append((f"scaler_drops_{name}", edit_npz(drop(name))))
    return found


CASES = [(model, label, damage) for model in ("rl", "fnn") for label, damage in damages(model)]


class TestCheckpoints:
    @pytest.mark.parametrize(
        "model, label, damage", CASES, ids=[f"{model}-{label}" for model, label, _ in CASES]
    )
    def test_damage_exits_two_before_acquisition(
        self, checkpoints, tmp_path, monkeypatch, capsys, model, label, damage
    ):
        config, dirs = checkpoints
        copy = tmp_path / model
        shutil.copytree(dirs[model], copy)
        damage(copy)
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        flag = "--rl-checkpoint" if model == "rl" else "--fnn-model"
        assert cli.main(["evaluate", "--config", config, flag, str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(copy) in err and "Traceback" not in err

    @pytest.mark.parametrize("model", ["rl", "fnn"])
    def test_a_checkpoint_in_the_old_layout_exits_two_naming_model_npz(
        self, checkpoints, tmp_path, monkeypatch, capsys, model
    ):
        config, dirs = checkpoints
        copy = tmp_path / model
        shutil.copytree(dirs[model], copy)
        to_old_layout(copy)
        nets = ["actor", "critic1", "critic2"] if model == "rl" else ["net"]
        assert sorted(p.name for p in copy.iterdir()) == sorted(
            ["config.json", "scaler.npz"] + [f"{name}.json" for name in nets]
        )
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        flag = "--rl-checkpoint" if model == "rl" else "--fnn-model"
        assert cli.main(["evaluate", "--config", config, flag, str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(copy / "model.npz") in err

    @pytest.mark.parametrize("model", ["rl", "fnn"])
    def test_splice_full_checkpoint_on_cas_data_exits_one_before_acquisition(
        self, checkpoints, tmp_path, monkeypatch, capsys, model
    ):
        _, dirs = checkpoints
        config = write_config(tmp_path / "cas.json", {**TINY, "data": CAS_INGEST})
        monkeypatch.setattr(cli, "acquire_dataset", no_acquisition)
        flag = "--rl-checkpoint" if model == "rl" else "--fnn-model"
        assert cli.main(["evaluate", "--config", config, flag, str(dirs[model])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(dirs[model]) in err and "splice_full" in err

    def test_intact_checkpoints_score_as_the_run_did(self, checkpoints, tmp_path):
        config, dirs = checkpoints
        argv = ["evaluate", "--config", config, "--output-dir", str(tmp_path)]
        argv += ["--rl-checkpoint", str(dirs["rl"]), "--fnn-model", str(dirs["fnn"])]
        assert cli.main(argv) == 0
        for model in ("rl", "fnn"):
            name = f"metrics_{model}.csv"
            assert (tmp_path / name).read_bytes() == (dirs[model].parent / name).read_bytes()

    def test_checkpoints_load_before_acquisition(self, checkpoints, tmp_path, monkeypatch):
        config, dirs = checkpoints
        loaded = []
        monkeypatch.setattr(cli, "load_fnn", lambda path: loaded.append(path))

        def acquire(cfg, seed):
            assert loaded == [str(dirs["fnn"])]
            raise ConfigError("stop after the load")

        monkeypatch.setattr(cli, "acquire_dataset", acquire)
        assert cli.main(["evaluate", "--config", config, "--fnn-model", str(dirs["fnn"])]) == 1


# -- unreadable data files ----------------------------------------------------------


def unreadable(tmp_path, kind) -> str:
    """A directory, or a CSV holding byte 0xff, which is no UTF-8 text."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"claim_no,accident_period\n\xff,1\n")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
class TestDataFiles:
    def assert_data_error(self, capsys, argv, path):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and path in err and "Traceback" not in err

    def test_ingest(self, tmp_path, capsys, kind):
        path = unreadable(tmp_path, kind)
        self.assert_data_error(capsys, ["ingest", "--path", path], path)

    def test_run_on_ingested_data(self, tmp_path, capsys, kind):
        path = unreadable(tmp_path, kind)
        cfg = {**TINY, "data": {**CAS_INGEST, "path": path}, "output_dir": str(tmp_path / "out")}
        config = write_config(tmp_path.parent / f"{kind}.json", cfg)
        self.assert_data_error(capsys, ["run", "--config", config, "--models", "cl"], path)

    def test_report(self, tmp_path, capsys, kind):
        path = unreadable(tmp_path, kind)
        argv = ["report", "--transitions", path, "--out", str(tmp_path.parent / "h.csv")]
        self.assert_data_error(capsys, argv, path)
