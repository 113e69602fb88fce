"""Record the goldens of all three workloads from the library in src/.

    python3 perfbench/make_goldens.py

Run once on the commit whose outputs are the reference; the benchmark
only reads the files it writes.  The analyze inputs are stored with
their reports, so a later change to the census corpus leaves the
workload as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cdhg  # noqa: E402
import workloads  # noqa: E402

# Order 9 would add S9, one 7 s instance that cannot repeat within a run.
ANALYZE_MAX_ORDER = 8
ANALYZE_MAX_MEMBER_SIZE = 3


def census_golden() -> str:
    text = workloads.run_instance(cdhg, "census", {})
    missing = [line for line in workloads.CENSUS_PINNED_LINES if line not in text.splitlines()]
    if missing:
        raise SystemExit(f"census report lacks the pinned lines {missing}")
    return text


def analyze_cases() -> list[dict]:
    """The first instance of every distinct dihypergraph among the census
    instances within the bounds, in corpus order."""
    seen = set()
    cases = []
    for g in cdhg.census_corpus(ANALYZE_MAX_ORDER):
        for x in cdhg.census_hypersets(g, ANALYZE_MAX_MEMBER_SIZE):
            h = cdhg.cd_construct(g, x)
            if h in seen:
                continue
            seen.add(h)
            case = {
                "id": f"{g.name} X={[list(m) for m in x.members]}",
                "group": cdhg.serialize_group(g),
                "hyperset": "".join(" ".join(map(str, m)) + "\n" for m in x.members),
            }
            case["report"] = workloads.run_instance(cdhg, "analyze", case)
            cases.append(case)
    return cases


def build_goldens() -> dict[str, list[str]]:
    goldens = {}
    for name, table in workloads.build_groups():
        text = workloads.group_text(name, table)
        for subset in workloads.build_pool(name, len(table)):
            dump, report = workloads.run_instance(cdhg, "build", {"group": text, "subset": subset})
            goldens[workloads.build_key(name, subset)] = [workloads.digest(dump), workloads.digest(report)]
    return goldens


def main() -> None:
    out = workloads.GOLDENS
    out.mkdir(exist_ok=True)
    (out / "census.txt").write_text(census_golden())
    cases = analyze_cases()
    (out / "analyze.json").write_text(json.dumps(cases, indent=1) + "\n")
    builds = build_goldens()
    (out / "build.json").write_text(json.dumps(builds, indent=0, sort_keys=True) + "\n")
    print(f"census golden, {len(cases)} analyze cases, {len(builds)} build goldens")


if __name__ == "__main__":
    main()
