import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

TOOL = ROOT / "tools" / "stages.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stages", TOOL)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    return stages


def test_one_run_per_setting_reports_the_tracer_stages_per_claim_and_their_memory(tmp_path):
    out = tmp_path / "stages.json"
    cmd = [sys.executable, str(TOOL), "--workload", "portfolio_fit", "--sizes", "20",
           "--repeats", "1", "--json", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    section = json.loads(out.read_text(encoding="utf-8"))["workloads"]["portfolio_fit"]
    runs = {(run["probe"], run["collector"]): run for run in section["runs"]}
    assert set(runs) == {("time", "on"), ("time", "off"), ("memory", "on")}
    names = {span for _, _, span, _ in tracer.MODULE_SPANS}
    fine = {span for *_, span in tracer.METHOD_SPANS}
    names |= fine | {tracer.ROOT}
    for run in runs.values():
        assert run["claims_per_period"] == 20
    for collector in ("on", "off"):
        run = runs["time", collector]
        assert set(run["self_s"]) <= names
        assert {"simulator.simulate", "claims.discretize", "claims.censor"} <= set(run["self_s"])
        assert run["n_claims"] > 100
        assert abs(sum(run["self_s"].values()) - run["run_s"]) < 1e-6
    assert runs["time", "off"]["gc_passes"] == 0
    run = runs["memory", "on"]
    stages = run["memory"]
    assert set(stages) <= names
    assert {"cli.run", "fnn.rows", "fnn.train", "chainladder.rbns"} <= set(stages)
    # Memory is read at stage-level spans only.
    assert not any(name.startswith("nets.") or name in fine for name in stages)
    # Each call's own rise leaves out its children's, so the own rises add
    # up to the run's rise of the process peak.
    own = sum(s["own_peak_rise_mb"] for s in stages.values())
    assert abs(own - (run["peak_rss_mb"] - run["start_peak_mb"])) < 0.05
    for s in stages.values():
        assert s["calls"] >= 1 and s["own_peak_rise_mb"] >= 0
        assert 0 < s["entry_live_mb"] and s["exit_live_mb"] <= s["peak_at_exit_mb"] + 1
    assert "cli.run" in proc.stdout and "peak MB" in proc.stdout


def test_summary_takes_the_least_time_per_claim_and_the_rise_between_sizes():
    stages = load_tool()

    def run(size, collector, n_claims, seconds):
        return {"claims_per_period": size, "probe": "time", "collector": collector,
                "n_claims": n_claims, "run_s": 1.0, "gc_s": 0.0,
                "self_s": {"claims.censor": seconds, "fnn.train": 1.0}}

    def memory(size, peak):
        return {"claims_per_period": size, "probe": "memory", "collector": "on",
                "peak_rss_mb": peak, "memory": {"fnn.train": {"own_peak_rise_mb": peak}}}

    runs = [run(50, "on", 2000, 0.004), run(50, "on", 2000, 0.002), run(200, "on", 8000, 0.012),
            run(200, "off", 8000, 0.008), memory(50, 3.0), memory(50, 5.0)]
    summary = stages.summarize(runs, [50, 200])
    on = summary["sizes"]["50"]["on"]
    assert on["runs"] == 2 and on["us_per_claim"]["claims.censor"] == 1.0
    assert summary["sizes"]["50"]["memory"] == {
        "runs": 2, "own_peak_rise_mb": {"fnn.train": 4.0}, "peak_rss_mb_median": 4.0,
    }
    assert "off" not in summary["sizes"]["50"] and "memory" not in summary["sizes"]["200"]
    # Only data-layer stages get a rise, and only where both sizes ran.
    assert summary["rise_per_claim"] == {"50->200": {"on": {"claims.censor": 1.5}}}


@pytest.mark.parametrize("repeats", [3, 4])
def test_against_balances_the_order_and_the_path_lengths(tmp_path, monkeypatch, repeats):
    stages = load_tool()
    monkeypatch.setattr(
        stages.ab, "export_revision", lambda rev, dest: (dest / "src").mkdir(parents=True)
    )
    calls = []

    def child_run(job):
        calls.append((job["src"], job["size"], job["probe"], job["collector"]))
        return {"claims_per_period": job["size"], "probe": job["probe"],
                "collector": job["collector"], "n_claims": 10, "run_s": 1.0, "gc_s": 0.0,
                "self_s": {}, "peak_rss_mb": 1.0, "memory": {}}

    monkeypatch.setattr(stages, "child_run", child_run)
    out = tmp_path / "stages.json"
    stages.main(["--against", "HEAD", "--sizes", "20,40", "--repeats", str(repeats),
                 "--seed", "1", "--json", str(out)])
    srcs = sorted({src for src, *_ in calls})
    assert len(srcs) == 2 and len(srcs[0]) == len(srcs[1])
    side = {src: "against" if Path(src).parent.name == "a" else "this" for src in srcs}
    orders = stages.ab.pair_orders(repeats, 1)
    for size in (20, 40):
        for probe in stages.PROBES:
            runs = [src for src, *run in calls if tuple(run) == (size, *probe)]
            assert len(runs) == 2 * repeats
            firsts, seconds = runs[0::2], runs[1::2]
            assert all(a != b for a, b in zip(firsts, seconds))
            assert sorted(firsts.count(src) for src in srcs) == [repeats // 2, (repeats + 1) // 2]
            assert [side[src] for src in firsts] == [order[0] for order in orders]
    section = json.loads(out.read_text(encoding="utf-8"))["workloads"]["portfolio_fit"]
    assert section["trees"]["against"]["sizes"]["20"]["on"]["runs"] == repeats
    assert section["trees"]["against"]["sizes"]["40"]["memory"]["runs"] == repeats
    assert len([r for r in section["runs"] if r["tree"] == "against"]) == 6 * repeats


def test_json_keeps_the_other_workloads_sections(tmp_path):
    stages = load_tool()
    out = tmp_path / "stages.json"
    stages.write_json(str(out), "rl_train", {"command": "rl"})
    stages.write_json(str(out), "portfolio_fit", {"command": "fit"})
    stages.write_json(str(out), "rl_train", {"command": "rl again"})
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["workloads"] == {
        "portfolio_fit": {"command": "fit"}, "rl_train": {"command": "rl again"},
    }


def test_sizes_on_a_csv_workload_is_refused():
    cmd = [sys.executable, str(TOOL), "--workload", "ingest_tune", "--sizes", "20"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "--sizes applies to simulated workloads only" in proc.stderr
