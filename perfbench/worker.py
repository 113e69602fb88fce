"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced

A fresh process per pass means no state carries from one timed pass to
the next, as for a command-line user, and ru_maxrss is that pass's peak.
Set-up is the import of cdhg.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"


def import_cdhg():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cdhg
    setup_s = time.perf_counter() - start
    if SRC not in Path(cdhg.__file__).resolve().parents:
        raise SystemExit(f"cdhg was imported from {cdhg.__file__}, not from {SRC}")
    return cdhg, setup_s


def run_pass(cdhg, workload: str, seed: int, traced: bool) -> dict:
    import workloads

    cases = workloads.instances(workload, seed)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer(cdhg)
        tracer.install()
    outputs, times, errors = [], [], {}
    try:
        start = time.perf_counter()
        for iid, case in cases:
            began = time.perf_counter()
            try:
                if tracer is None:
                    out = workloads.run_instance(cdhg, workload, case)
                else:
                    out = tracer.run(iid, workloads.run_instance, cdhg, workload, case)
            except Exception as exc:  # one instance's failure must not stop the pass
                out = None
                errors[iid] = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - began)
            outputs.append(out)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = workloads.Checker(workload)
    failures = dict(errors)
    for (iid, case), out in zip(cases, outputs):
        if iid in errors:
            continue
        try:
            problems = checker.check(iid, case, out)
        except (KeyError, ValueError, TypeError) as exc:  # output not in the expected shape
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[iid] = "; ".join(problems)
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "times": {iid: t for (iid, _), t in zip(cases, times)},
        "attempted": len(cases),
        "failures": failures,
    }
    if tracer is not None:
        for iid, problem in tracer.problems:
            failures.setdefault(iid, problem)
        result["layers"] = tracer.metrics(wall)
        SPAN_DIR.mkdir(exist_ok=True)
        with open(SPAN_DIR / f"{workload}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = parser.parse_args()
    cdhg, setup_s = import_cdhg()
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(run_pass(cdhg, args.workload, args.seed, args.mode == "traced"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
