"""The cdhg benchmark: census, analyze and build workloads.

    python3 perfbench/run.py --workload census|analyze|build --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(perfbench/worker.py), one at a time, and starts only while the run's
elapsed time plus one more pass of the mean length fits in --seconds; at
least one pass runs.  Set-up (the import of cdhg) is measured in every
worker plus SETUP_PROBES import-only workers, and reported as a median.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it give each metric with
its unit, the failed share and the environment stamp.  Exit status is 1
when an output is wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as declared in
    BENCHMARK.json, the one list of metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stamp() -> dict:
    """nproc, Python and the commit: results compare only within one."""
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": tree.hexdigest()[:16],
    }


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # One hash seed for every pass: set iteration order changes the
        # searches' work a little, and that is not what the seed varies.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.setups: list[float] = []

    def worker(self, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker passed the {RUN_LIMIT_S} s run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(result["setup_s"])
        return result

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.worker("setup")

    def repeat(self, modes: tuple[str, ...]) -> list[list[dict]]:
        """Run the modes in turn, as often as fits in --seconds."""
        rounds = []
        start = time.monotonic()
        while True:
            rounds.append([self.worker(mode) for mode in modes])
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > self.seconds:
                return rounds


def tally(passes: list[dict]) -> tuple[int, int, dict[str, str]]:
    """Instance runs attempted and failed over all passes, and the reason
    each failing instance gave."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    reasons = {}
    for p in passes:
        reasons.update(p["failures"])
    return attempted, failed, reasons


def best_times(passes: list[dict]) -> list[float]:
    """Each instance's fastest repeat in the run.  Load from other tenants
    of a shared host only ever slows a repeat, and slow spells come and go
    within a run, so the fastest of many short repeats moves far less from
    run to run than any one pass or a median."""
    per_instance: dict[str, list[float]] = {}
    for p in passes:
        for iid, t in p["times"].items():
            per_instance.setdefault(iid, []).append(t)
    return [min(ts) for ts in per_instance.values()]


def end_to_end(runner: Runner, passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(runner.setups),
        "wall_s": sum(best_times(passes)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def verdicts_ms(passes: list[dict]) -> dict[str, float]:
    """Percentiles of the instances' best times.  Printed, not bounded:
    small instances slow more than large ones when the host is busy, and
    over ten runs their spread passed the largest bound allowed."""
    best = [t * 1000 for t in best_times(passes)]
    return {"verdict_p50_ms": nearest_rank(best, 0.5), "verdict_p90_ms": nearest_rank(best, 0.9)}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in layers}
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(p["wall_s"] for p in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not (ROOT / "src" / "cdhg" / "__init__.py").is_file():
            raise BenchError(f"no cdhg package under {ROOT / 'src'}")
        env = stamp()
        runner = Runner(args.workload, args.seed, args.seconds)
        if args.trace:
            units = declared_units("per_layer")
            rounds = runner.repeat(("pass", "traced"))
            untraced, traced = [r[0] for r in rounds], [r[1] for r in rounds]
            passes = untraced + traced
            metrics = per_layer(untraced, traced)
        else:
            units = declared_units("end_to_end")
            runner.probe_setup()
            passes = [r[0] for r in runner.repeat(("pass",))]
            metrics = end_to_end(runner, passes)
        if metrics.keys() != units.keys():
            raise BenchError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, reasons = tally(passes)
    for iid, why in sorted(reasons.items()):
        print(f"FAIL {iid}: {why}")
    print(f"workload: {args.workload} seed={args.seed} passes={len(passes)} "
          f"env={json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in verdicts_ms(passes).items():
            print(f"{name}: {value:.6g} ms (not bounded; best of {len(passes)} passes)")
    print(f"failed_share: {failed / attempted:.6g} share ({failed}/{attempted})")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
