import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def test_one_run_reports_the_tracer_stages(tmp_path):
    out = tmp_path / "stages.json"
    cmd = [
        sys.executable, str(ROOT / "tools" / "stage_memory.py"), "--workload", "portfolio_fit",
        "--claims-per-period", "20", "--json", str(out),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    stages = result["stages"]
    names = {span for _, _, span, _ in tracer.MODULE_SPANS}
    names |= {span for *_, span in tracer.METHOD_SPANS} | {tracer.ROOT}
    assert set(stages) <= names
    assert {"cli.run", "fnn.rows", "fnn.train", "chainladder.rbns"} <= set(stages)
    assert result["claims_per_period"] == 20
    # Each call's own rise leaves out its children's, so the own rises add
    # up to the run's rise of the process peak.
    own = sum(s["own_peak_rise_mb"] for s in stages.values())
    assert abs(own - (result["peak_rss_mb"] - result["start_peak_mb"])) < 0.05
    for s in stages.values():
        assert s["calls"] >= 1 and s["own_peak_rise_mb"] >= 0
        assert 0 < s["entry_live_mb"] and s["exit_live_mb"] <= s["peak_at_exit_mb"] + 1
    assert "cli.run" in proc.stdout


@pytest.mark.parametrize("repeats", [3, 4])
def test_compare_balances_the_order_and_the_path_lengths(tmp_path, monkeypatch, repeats):
    tool = ROOT / "tools" / "stage_memory.py"
    spec = importlib.util.spec_from_file_location("stage_memory", tool)
    stage_memory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_memory)
    monkeypatch.setattr(
        stage_memory.ab, "export_revision", lambda rev, dest: (dest / "src").mkdir(parents=True)
    )
    calls = []

    def child_run(src, workload, seed, claims_per_period, out):
        calls.append((str(src), claims_per_period))
        return {"peak_rss_mb": 1.0}

    monkeypatch.setattr(stage_memory, "child_run", child_run)
    out = tmp_path / "memory.json"
    stage_memory.compare(str(out), "HEAD", "portfolio_fit", [20, 40], repeats, 1)
    srcs = sorted({src for src, _ in calls})
    assert len(srcs) == 2 and len(srcs[0]) == len(srcs[1])
    side = {src: "before" if Path(src).parent.name == "a" else "after" for src in srcs}
    orders = stage_memory.ab.pair_orders(repeats, 1, ("before", "after"))
    for size in (20, 40):
        runs = [src for src, s in calls if s == size]
        assert len(runs) == 2 * repeats
        firsts, seconds = runs[0::2], runs[1::2]
        assert all(a != b for a, b in zip(firsts, seconds))
        assert sorted(firsts.count(src) for src in srcs) == [repeats // 2, (repeats + 1) // 2]
        assert [side[src] for src in firsts] == [order[0] for order in orders]
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["sizes"]["20"]["before"]["runs"]) == repeats
