import json
import subprocess
import sys
from pathlib import Path

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
