"""One ``microreserve run`` in a fresh process, timed from the inside.

Usage (started by run.py, one child at a time):

    python3 perfbench/child.py --src SRC --config CFG.json --result OUT.json
        --launched MONOTONIC [--setup-only [--count-claims]]
        [--spans SPANS.json --run-id ID]

``setup_s`` runs from the parent's launch stamp (a CLOCK_MONOTONIC reading,
comparable across processes) to the moment the run call starts: interpreter
start, numpy and microreserve imports, and config load and validation.
``run_s`` is the run call itself, from config to manifest. With ``--spans``
the call sites listed in tracer.py are wrapped for this process only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--count-claims", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import microreserve
    from microreserve import cli  # imports numpy and every other module

    cfg = cli.load_config(args.config, {})
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if args.count_claims:
        result["n_claims"] = len(cli.acquire_dataset(cfg, cfg["seeds"][0]))

    if not args.setup_only:
        run = cli.run_pipeline
        tracer = None
        if args.spans:
            from tracer import ROOT, Tracer

            tracer = Tracer(args.run_id)
            tracer.install(microreserve)
            run = tracer.wrap(ROOT, run)
        start = time.perf_counter()
        try:
            run(cfg)
        finally:
            result["run_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
                tracer.dump(args.spans)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
