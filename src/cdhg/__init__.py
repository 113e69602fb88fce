"""Cayley dihypergraphs over small finite groups.

The library builds dihypergraphs whose arcs are the right translates of an
identity-containing subset family, checks the structural facts that hold
for them (connectivity, undirectedness, translate closure), and recovers
group presentations from regular automorphism subgroups.
"""

import importlib

from .groups import (
    AUT_ORDER_CAP,
    CutoffExceeded,
    FiniteGroup,
    Permutation,
    direct_product,
    element_order,
    group_automorphisms,
    inner_automorphisms,
    is_subgroup,
    load_group,
    make_cyclic,
    make_dihedral,
    serialize_group,
    subgroup_generated,
    subgroup_index,
)
from .hypersets import (
    CayleyHyperset,
    are_cayley_equivalent,
    aut_g_x,
    cayley_closure,
    cayley_equivalence_classes,
    inn_g_x,
    is_cayley_closed,
    load_hyperset,
    non_cayley_equivalent_representatives,
    right_translate,
    single_cayley_closure,
    validate_hyperset,
)
from .hypergraphs import (
    Dihypergraph,
    UndirectedHypergraph,
    cd_construct,
    ch_construct,
    dump_dihypergraph,
    hypergraph_isomorphic,
    is_connected,
    is_undirected,
    load_dihypergraph,
    to_cayley_digraph,
    underlying,
    uniformity,
)
from .perms import (
    CayleyPresentations,
    CayleyRecovery,
    PermGroup,
    Theorem2Report,
    aut_hypergraph,
    cayley_presentations,
    find_regular_subgroups,
    is_regular,
    normalizer,
    regular_to_cayley,
    right_regular,
    verify_theorem2,
)
from .census import CensusResult, census_corpus, census_hypersets, run_census


def __getattr__(name):
    # The command line is imported on first use, not with the package:
    # importing it here would put cdhg.cli in sys.modules before
    # "python -m cdhg.cli" runs it as __main__, which warns.
    if name in ("cli", "AnalysisReport", "build_analysis_report"):
        cli = importlib.import_module(f"{__name__}.cli")
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AUT_ORDER_CAP",
    "AnalysisReport",
    "CayleyHyperset",
    "CayleyPresentations",
    "CayleyRecovery",
    "CensusResult",
    "CutoffExceeded",
    "Dihypergraph",
    "FiniteGroup",
    "PermGroup",
    "Permutation",
    "Theorem2Report",
    "UndirectedHypergraph",
    "are_cayley_equivalent",
    "aut_g_x",
    "aut_hypergraph",
    "build_analysis_report",
    "cayley_closure",
    "cayley_equivalence_classes",
    "cayley_presentations",
    "cd_construct",
    "census_corpus",
    "census_hypersets",
    "ch_construct",
    "direct_product",
    "dump_dihypergraph",
    "element_order",
    "find_regular_subgroups",
    "group_automorphisms",
    "hypergraph_isomorphic",
    "inn_g_x",
    "inner_automorphisms",
    "is_cayley_closed",
    "is_connected",
    "is_regular",
    "is_subgroup",
    "is_undirected",
    "load_dihypergraph",
    "load_group",
    "load_hyperset",
    "make_cyclic",
    "make_dihedral",
    "non_cayley_equivalent_representatives",
    "normalizer",
    "regular_to_cayley",
    "right_regular",
    "right_translate",
    "run_census",
    "serialize_group",
    "single_cayley_closure",
    "subgroup_generated",
    "subgroup_index",
    "to_cayley_digraph",
    "underlying",
    "uniformity",
    "validate_hyperset",
    "verify_theorem2",
]
