"""Command line front end: build, analyze, census."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .groups import CutoffExceeded, FiniteGroup, load_group
from .hypersets import CayleyHyperset, aut_g_x, is_cayley_closed, load_hyperset
from .hypergraphs import cd_construct, dump_dihypergraph, is_connected, is_undirected, uniformity
from .perms import Theorem2Report, aut_hypergraph, verify_theorem2
from .census import run_census

__all__ = ["AnalysisReport", "build_analysis_report", "main"]


class AnalysisReport(SimpleNamespace):
    """entries: the ordered (key, value) lines describing one (group,
    hyperset) instance."""

    def render(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.entries) + "\n"


def build_analysis_report(
    g: FiniteGroup, x: CayleyHyperset, with_aut: bool = True
) -> AnalysisReport:
    h = cd_construct(g, x)
    u = uniformity(h)
    entries: list[tuple[str, str]] = [
        ("group", g.name),
        ("order", str(g.order)),
        ("members", str(len(x.members))),
        ("cayley_closed", "true" if is_cayley_closed(g, x) else "false"),
        ("connected", "true" if is_connected(h) else "false"),
        ("undirected", "true" if is_undirected(h) else "false"),
        ("uniformity", str(u) if u is not None else "none"),
        ("arcs", str(len(h.arcs))),
        ("edges", str(len(h.edges))),
    ]
    aut_h = aut_g_x_order = report = None
    reason = "--no-aut"
    if with_aut:
        try:
            aut = aut_hypergraph(h)
            aut_h = str(aut.order)
            report = verify_theorem2(g, x, aut=aut)
        except CutoffExceeded as exc:
            reason = str(exc)
        if aut_h is None:
            # Aut(G, X) needs no vertex search; only the order cap refuses it
            try:
                aut_g_x_order = str(len(aut_g_x(g, x)))
            except CutoffExceeded as exc:
                aut_g_x_order = f"skipped: {exc}"
    skipped = f"skipped: {reason}"
    entries.append(("aut_h", aut_h or skipped))
    if report is None:
        entries.append(("aut_g_x", aut_g_x_order or skipped))
        entries.append(("normalizer", skipped))
        entries.extend((key, skipped) for _, key in Theorem2Report.checks)
    else:
        entries.append(("aut_g_x", str(report.aut_g_x_order)))
        entries.append(("normalizer", str(report.normalizer_order)))
        entries.extend(
            (key, "pass" if getattr(report, name) else "fail")
            for name, key in Theorem2Report.checks
        )
    return AnalysisReport(entries=tuple(entries))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_pair(group_path: str, hyperset_path: str) -> tuple[FiniteGroup, CayleyHyperset]:
    g = load_group(Path(group_path).read_text())
    x = load_hyperset(Path(hyperset_path).read_text(), g)
    return g, x


def main(argv: Optional[list[str]] = None) -> int:
    # loaded here, not with the module: the library's callers of
    # build_analysis_report need no argparse and gettext
    import argparse

    parser = argparse.ArgumentParser(
        prog="cdhg",
        description="Build and analyze Cayley dihypergraphs over small finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct the dihypergraph and dump its arcs")
    p_build.add_argument("--group", required=True, help="group file")
    p_build.add_argument("--hyperset", required=True, help="hyperset file")
    p_build.add_argument("--out", help="write the dump here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="report the instance's invariants")
    p_analyze.add_argument("--group", required=True, help="group file")
    p_analyze.add_argument("--hyperset", required=True, help="hyperset file")
    p_analyze.add_argument("--no-aut", action="store_true", help="skip automorphism-dependent fields")
    p_analyze.add_argument("--out", help="write the report here instead of stdout")

    p_census = sub.add_parser("census", help="run the verification sweep over small groups")
    p_census.add_argument("--max-order", type=int, default=8, help="largest group order")
    p_census.add_argument("--max-member-size", type=int, default=3, help="largest seed subset size")
    p_census.add_argument("--out", help="write the report here instead of stdout")

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            g, x = _load_pair(args.group, args.hyperset)
            _emit(dump_dihypergraph(cd_construct(g, x)), args.out)
            return 0
        if args.command == "analyze":
            g, x = _load_pair(args.group, args.hyperset)
            report = build_analysis_report(g, x, with_aut=not args.no_aut)
            _emit(report.render(), args.out)
            return 0
        result = run_census(max_order=args.max_order, max_member_size=args.max_member_size)
        _emit(result.render(), args.out)
        return 0 if result.all_pass else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
