"""tools/ab.py on a toy child: pair order, resource use from os.wait4, and the summary."""

import importlib.util
import json
import random
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# Takes perfbench/child.py's arguments; spins for the CPU time and touches the
# pages that its tree's spin.json asks for.
TOY_CHILD = """
import argparse, json, os, sys, time
parser = argparse.ArgumentParser()
for flag in ("--src", "--config", "--result", "--launched"):
    parser.add_argument(flag)
args = parser.parse_args()
with open(os.path.join(args.src, "spin.json")) as fh:
    spin = json.load(fh)
if spin.get("fail"):
    sys.exit("toy child failed")
start = time.perf_counter()
pages = bytearray(4096 * spin["pages"])
for i in range(0, len(pages), 4096):
    pages[i] = 1
while time.process_time() < spin["cpu_s"]:
    pass
with open(args.result, "w") as fh:
    json.dump({"run_s": time.perf_counter() - start}, fh)
"""


def toy_trees(tmp_path, against: dict, this: dict):
    child = tmp_path / "child.py"
    child.write_text(TOY_CHILD, encoding="utf-8")
    configs = {}
    for side, spin in (("against", against), ("this", this)):
        src = tmp_path / side
        src.mkdir()
        (src / "spin.json").write_text(json.dumps(spin), encoding="utf-8")
        cfg = tmp_path / f"{side}.json"
        cfg.write_text("{}", encoding="utf-8")
        configs[side] = (src, cfg)
    return child, configs


def test_pairs_alternate_in_a_seeded_order_and_read_wait4(tmp_path):
    child, configs = toy_trees(
        tmp_path, {"cpu_s": 0.25, "pages": 6000}, {"cpu_s": 0.05, "pages": 10}
    )
    lines = []
    pairs = ab.run_pairs(configs, 3, seed=5, child=child, echo=lines.append)
    rng = random.Random(5)
    for pair in pairs:
        order = list(ab.SIDES)
        rng.shuffle(order)
        assert pair["order"] == order
        assert set(pair) == {"order", *ab.SIDES}
        for side in ab.SIDES:
            assert set(pair[side]) == set(ab.MEASURES)
            assert pair[side]["user_s"] > 0 and pair[side]["minflt"] > 0
        # The slower tree spins longer and faults in about 6,000 more pages.
        assert pair["this"]["user_s"] < pair["against"]["user_s"]
        assert pair["against"]["minflt"] - pair["this"]["minflt"] > 3000
    assert len(lines) == 3 and lines[0].startswith("pair 1/3")

    summary = ab.summarize(pairs, seed=0)
    user = summary["measures"]["user_s"]
    assert user["this_wins"] == 3 and user["median_ratio"] < 1.0
    low, high = user["interval"]
    assert low <= user["median_ratio"] <= high < 1.0
    assert summary["pairs"] == 3


def test_a_failing_child_stops_the_run(tmp_path):
    child, configs = toy_trees(tmp_path, {"fail": True}, {"cpu_s": 0.0, "pages": 1})
    with pytest.raises(RuntimeError, match="toy child failed"):
        ab.run_pairs(configs, 1, seed=0, child=child, echo=lambda _: None)


def sample(run_s, nivcsw=3):
    return {"run_s": run_s, "user_s": run_s, "minflt": 100, "nivcsw": nivcsw, "maxrss_mb": 40.0}


def test_summary_of_an_a_a_run_holds_one():
    pairs = [{"order": list(ab.SIDES), "against": sample(2.0), "this": sample(2.0)}] * 4
    summary = ab.summarize(pairs, seed=0)
    for m in ("run_s", "user_s", "minflt", "maxrss_mb"):
        entry = summary["measures"][m]
        assert entry["median_ratio"] == 1.0 and entry["interval"] == [1.0, 1.0]
        assert entry["this_wins"] == 0
    assert summary["contended_pairs"] == []


def test_bootstrap_interval_is_seeded_and_brackets_the_median():
    ratios = [0.70, 0.74, 0.78, 0.81, 0.90, 1.02, 0.76, 0.79]
    low, high = ab.bootstrap_median_interval(ratios, seed=3)
    assert (low, high) == ab.bootstrap_median_interval(ratios, seed=3)
    assert min(ratios) <= low <= statistics.median(ratios) <= high <= max(ratios)


def test_a_pair_with_many_context_switches_is_flagged():
    pairs = [
        {"order": list(ab.SIDES), "against": sample(2.0), "this": sample(1.5)},
        {"order": list(ab.SIDES), "against": sample(2.0, nivcsw=40), "this": sample(1.5)},
        {"order": list(ab.SIDES), "against": sample(2.0), "this": sample(1.6)},
    ]
    summary = ab.summarize(pairs, seed=0)
    assert summary["contended_pairs"] == [1]
    assert summary["measures"]["run_s"]["median_ratio"] == 0.75
