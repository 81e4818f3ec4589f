import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

TOOL = ROOT / "tools" / "scaling.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("scaling", TOOL)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def test_one_run_reports_the_tracer_stages_per_claim(tmp_path):
    out = tmp_path / "run.json"
    cmd = [sys.executable, str(TOOL), "--one", "--claims-per-period", "10", "--collector", "off",
           "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(out.read_text(encoding="utf-8"))
    names = {span for _, _, span, _ in tracer.MODULE_SPANS}
    names |= {span for *_, span in tracer.METHOD_SPANS} | {tracer.ROOT}
    assert set(run["self_s"]) <= names
    assert {"simulator.simulate", "claims.discretize", "claims.censor"} <= set(run["self_s"])
    assert run["collector"] == "off" and run["claims_per_period"] == 10
    assert run["n_claims"] > 100 and run["gc_passes"] == 0
    assert abs(sum(run["self_s"].values()) - run["run_s"]) < 1e-6


def test_summary_takes_the_least_time_per_claim_and_the_rise_between_sizes():
    scaling = load_tool()

    def run(size, collector, n_claims, seconds):
        return {"claims_per_period": size, "collector": collector, "n_claims": n_claims,
                "run_s": 1.0, "gc_s": 0.0, "self_s": {"claims.censor": seconds, "fnn.train": 1.0}}

    runs = [run(50, "on", 2000, 0.004), run(50, "on", 2000, 0.002), run(200, "on", 8000, 0.012),
            run(200, "off", 8000, 0.008)]
    summary = scaling.summarize(runs, [50, 200])
    on = summary["sizes"]["50"]["on"]
    assert on["runs"] == 2 and on["us_per_claim"]["claims.censor"] == 1.0
    assert "off" not in summary["sizes"]["50"]
    # Only data-layer stages get a rise, and only where both sizes ran.
    assert summary["rise_per_claim"] == {"50->200": {"on": {"claims.censor": 1.5}}}
