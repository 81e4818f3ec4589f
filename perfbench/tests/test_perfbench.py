"""Tests of the benchmark's own code, on tiny portfolios of about 5 claims per period.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import microreserve  # noqa: E402
from microreserve import cli  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = 5


def _tiny_config(tmp_path, models, seed=1):
    return cli.load_config(
        None,
        {
            "models": models,
            "data.claims_per_period": TINY,
            "seeds": [seed],
            "output_dir": str(tmp_path / "out"),
            "sac": {"warmup_steps": 150},
        },
    )


def _every_target():
    for module, attr, _name, _post in tracer.MODULE_SPANS:
        yield getattr(microreserve, module), attr
    for module, cls, attr, _name in tracer.METHOD_SPANS + tracer.METHOD_COUNTS:
        yield getattr(getattr(microreserve, module), cls), attr


def _traced_run(cfg, run_id="test"):
    t = tracer.Tracer(run_id)
    t.install(microreserve)
    try:
        run = t.wrap(tracer.ROOT, cli.run_pipeline)
        start = time.perf_counter()
        run(cfg)
        run_s = time.perf_counter() - start
    finally:
        t.restore()
    return t, run_s


def _table(t, tmp_path):
    path = tmp_path / "spans.json"
    t.dump(str(path))
    return tracer.load_table(str(path))


def test_wrappers_restore_every_rebound_attribute():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in _every_target()]
    t = tracer.Tracer("restore")
    t.install(microreserve)
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        t.restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_self_times_sum_to_traced_run_time(tmp_path):
    cfg = _tiny_config(tmp_path, ["rl"])
    start = time.perf_counter()
    cli.run_pipeline(cfg)
    untraced_s = time.perf_counter() - start

    t, traced_s = _traced_run(_tiny_config(tmp_path, ["rl"]))
    table = _table(t, tmp_path)
    roots = [s for s in t.spans if s[3] == -1]
    assert len(roots) == 1 and roots[0][0] == tracer.ROOT
    total_self = sum(table.self_by_name().values())
    overhead = max(traced_s - untraced_s, 0.01 * traced_s)
    assert abs(total_self - traced_s) <= overhead
    assert table.calls("sac.update") > 0


def test_sac_metrics_are_zero_without_the_rl_model(tmp_path):
    t, _ = _traced_run(_tiny_config(tmp_path, ["fnn", "cl"]))
    metrics = tracer.layer_metrics(_table(t, tmp_path))
    sac = {k: v for k, v in metrics.items() if k.startswith(("sac.", "nets.sac."))}
    assert sac and all(v == 0 for v in sac.values()), sac
    assert metrics["fnn.fits"] == 1
    assert metrics["nets.fnn.forward_calls"] > 0


@pytest.mark.parametrize("name", ["rl_train", "portfolio_fit"])
def test_seed_changes_only_the_simulated_input(name):
    one = workloads.run_config(name, 1, "out")
    two = workloads.run_config(name, 2, "out")
    assert one.pop("seeds") == [1] and two.pop("seeds") == [2]
    assert one == two


def test_seed_changes_only_the_ingested_file(tmp_path, monkeypatch):
    spec = dict(workloads.WORKLOADS["ingest_tune"])
    spec["ingest"] = {**spec["ingest"], "claims_per_period": TINY}
    monkeypatch.setitem(workloads.WORKLOADS, "ingest_tune", spec)
    src = os.path.join(os.path.dirname(BENCH), "src")
    contents = {}
    for seed, sub in ((1, "a"), (2, "b"), (1, "c")):
        work = tmp_path / sub
        work.mkdir()
        path = workloads.prepare_input("ingest_tune", seed, str(work), dict(os.environ), src)
        contents[sub] = open(path, "rb").read()
        cfg = workloads.run_config("ingest_tune", seed, "out", "input.csv")
        assert cfg == workloads.run_config("ingest_tune", 1, "out", "input.csv")
    assert contents["a"] == contents["c"]
    assert contents["a"] != contents["b"]


def test_bad_cells_counts_repr_leaks(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "model,seed,slice,key,relative_ocl,rmse,claim_no\n"
        "rl,1,overall,,np.float64(0.5),'',c1_3\n"
        "fnn,1,ap,3,1.5,,c2_4\n"
    )
    assert checks.count_bad_cells(str(path)) == 2


def test_run_gate_catches_a_changed_output(tmp_path):
    cfg = _tiny_config(tmp_path, ["cl"])
    cli.run_pipeline(cfg)
    out = cfg["output_dir"]
    problems, manifest = checks.check_run(out)
    assert problems == [] and manifest["stage_reached"] == "done"
    with open(os.path.join(out, "summary.csv"), "a", encoding="utf-8") as fh:
        fh.write("tampered\n")
    problems, _ = checks.check_run(out)
    assert problems == ["hash mismatch for summary.csv"]


def test_benchmark_spec_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]}
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    table = tracer.SpanTable({"run_id": "x", "names": [], "spans": [], "counters": counters})
    assert set(tracer.layer_metrics(table)) <= names
