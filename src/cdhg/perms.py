"""Vertex permutations, regular subgroups, and the normalizer check.

Composition is left to right throughout: (a then b) sends v to b[a[v]],
matching the exponent convention v^(ab) = (v^a)^b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional

from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    _chain_of_elements,
    _chain_products,
    _chain_search,
    _stabiliser_chain,
)
from .hypersets import CayleyHyperset, aut_g_x, validate_hyperset
from .hypergraphs import Dihypergraph, _completion_search, cd_construct

__all__ = [
    "Permutation",
    "PermGroup",
    "CayleyRecovery",
    "Theorem2Report",
    "right_regular",
    "is_regular",
    "aut_hypergraph",
    "find_regular_subgroups",
    "regular_to_cayley",
    "normalizer",
    "verify_theorem2",
    "dump_permgroup",
]

@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        o = other.images
        return Permutation(tuple(o[v] for v in self.images))

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


class PermGroup:
    """A permutation group on 0..degree-1, kept as a stabiliser chain.

    The chain holds one transversal T_k per point k: T_k[0] is the
    identity, every map in T_k fixes 0..k-1, and the others send k to
    distinct points, in increasing order of that image.  Every element
    is then one product r_{n-1} then ... then r_0 with r_k in T_k, so
    the order is prod |T_k|, membership is a sift through the levels,
    and perms is listed from the chain only when a caller first reads
    it.  normalizer and find_regular_subgroups do not read it: they walk
    the chain by groups._chain_search, which cuts a partial product at
    the first level that rules it out.  For a regular group T_0 holds
    every element, in order of its image of 0, so T_0[w] is the element
    sending 0 to w.

    generators is a subset whose closure is the whole group; normalizer
    checks conjugation on it instead of on every element.  A searched
    chain's generators are the maps its search found, a strong
    generating set (groups._stabiliser_chain); a chain read off
    elements defaults to its maps past the identity, which for a
    regular group are T_0[1:].
    """

    def __init__(
        self,
        degree: int,
        transversals: tuple[tuple[tuple[int, ...], ...], ...],
        generators: tuple[Permutation, ...],
    ):
        self.degree = degree
        self.transversals = transversals
        self.generators = generators

    @staticmethod
    def from_elements(
        degree: int,
        elements: Iterable[tuple[int, ...]],
        generators: Optional[tuple[Permutation, ...]] = None,
    ) -> "PermGroup":
        """The group whose chain groups._chain_of_elements reads off these
        image tuples, under its condition; the generators default to the
        chain's non-identity maps."""
        transversals = _chain_of_elements(degree, elements)
        if generators is None:
            generators = tuple(Permutation(r) for reps in transversals for r in reps[1:])
        return PermGroup(degree, transversals, generators)

    @cached_property
    def perms(self) -> frozenset[Permutation]:
        """Every element, listed from the chain on first use."""
        return frozenset(map(Permutation, _chain_products(self.transversals, self.degree)))

    @property
    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    @cached_property
    def _sifts(self) -> list[dict[int, tuple[int, ...]]]:
        """Per level k, r(k) -> r^-1 for each r in T_k but the identity."""
        return [
            {r[k]: _inverse(r) for r in reps[1:]}
            for k, reps in enumerate(self.transversals)
        ]

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        # at level k, p fixes 0..k-1; dividing out the r in T_k with
        # r(k) = p(k) leaves a map fixing k too, and p is in the group
        # exactly when no level lacks its r
        cur = p.images
        for k, level in enumerate(self._sifts):
            w = cur[k]
            if w != k:
                undo = level.get(w)
                if undo is None:
                    return False
                cur = itemgetter(*cur)(undo)
        return True

    def sorted_perms(self) -> list[Permutation]:
        return sorted(self.perms, key=lambda p: p.images)


def right_regular(g: FiniteGroup) -> PermGroup:
    """The right translations v -> v*h, one per group element: the
    columns of the table, each moving 0 unless it is the identity."""
    columns = list(zip(*g.table))
    gens = tuple(Permutation(columns[h]) for h in g.generators)
    return PermGroup.from_elements(g.order, columns, gens)


def is_regular(p: PermGroup, n: int) -> bool:
    """Sharply transitive on n points: degree n, order n, and n distinct
    images of 0, that is n maps in T_0 and nothing fixing 0."""
    return p.degree == n and p.order == n == len(p.transversals[0])


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def aut_hypergraph(h: Dihypergraph) -> PermGroup:
    """Every vertex permutation preserving the arc set, as the chain
    groups._stabiliser_chain builds over the base 0..n-1 from the first
    arc-preserving completion of (0, ..., k-1, w), the search the
    isomorphism test shares.  Refused as 'over cutoff (n >
    AUT_VERTEX_CUTOFF)' by that search, and by the order cap."""
    n = h.vertex_count
    search = _completion_search(h, h)
    transversals, found = _stabiliser_chain(n, range(n), lambda k, w: search((*range(k), w)))
    return PermGroup(n, transversals, tuple(map(Permutation, found)))


def _cycle_step(k: int, x: tuple[int, ...], length: int) -> Optional[int]:
    """The semiregularity rule at level k of a chain search, where the
    images of 0..k are final: length is that of the cycles closed so far,
    0 before any has closed; the result is the length after level k, or
    None when x's cycles cannot all share one length.

    The walk from k follows final images.  A cycle closes at its largest
    point, so back at k it has closed, and must have the common length;
    a walk that has taken length steps without coming back lies on a
    longer cycle.  At the last level every cycle has closed, so exactly
    the semiregular permutations pass every level."""
    cur, steps = x[k], 1
    while cur != k:
        if steps == length:
            return None
        if cur > k:
            return length
        cur, steps = x[cur], steps + 1
    if length and steps != length:
        return None
    return steps


def find_regular_subgroups(p: PermGroup, n: int) -> list[PermGroup]:
    """All order-n subgroups of p acting regularly on 0..n-1.

    A regular subgroup holds exactly one permutation sending 0 to w for
    each w, so the search fills those n slots.  Every product of two
    filled slots lands in a slot read off from the images, which both
    propagates forced choices and prunes inconsistent ones.

    Only the identity and the semiregular members can sit in a slot, so
    those are indexed once, in image order, and slots hold indices.
    They are found by groups._chain_search with _cycle_step, which cuts
    a partial product as soon as its cycles cannot share one length,
    and perms is not listed on the group.  A product is composed by a
    per-member itemgetter and looked up in the index; a product outside
    the index is a conflict.  Each subgroup found is read off its
    members by PermGroup.from_elements: every member but the identity
    moves 0, so its chain is T_0 alone, and its generators are T_0 past
    the identity.  Products are not memoised: in S8 a table of them
    answered 31% of lookups and doubled the search's peak memory
    without making it faster.
    """
    if p.degree != n:
        raise ValueError(f"group acts on degree {p.degree}, expected {n}")
    ims = sorted(_chain_search(p.transversals, _cycle_step, 0))
    if not ims or ims[0] != tuple(range(n)):
        raise ValueError("permutation group does not contain the identity")
    index = {im: i for i, im in enumerate(ims)}
    # compose[i](o) is the image tuple of member i then o (for n = 1,
    # where nothing is ever composed, it would be a bare int)
    compose = [itemgetter(*im) for im in ims]
    candidates: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, len(ims)):
        candidates[ims[i][0]].append(i)

    results: list[tuple[int, ...]] = []
    slots = [-1] * n
    slots[0] = 0

    def propagate(newly: int) -> Optional[list[int]]:
        """Close filled slots under products; return the slots this call
        filled (for undo), or None on a conflict."""
        added: list[int] = []
        queue = [newly]
        while queue:
            a = queue.pop()
            pa = slots[a]
            # slot 0 holds the identity, whose products are always consistent
            for b in range(1, n):
                pb = slots[b]
                if pb < 0:
                    continue
                for left, right in ((pa, pb), (pb, pa)) if a != b else ((pa, pa),):
                    o = ims[right]
                    k = o[ims[left][0]]
                    prod = index.get(compose[left](o), -1)
                    cur = slots[k]
                    if prod < 0 or (cur >= 0 and cur != prod):
                        for u in added:
                            slots[u] = -1
                        return None
                    if cur < 0:
                        slots[k] = prod
                        added.append(k)
                        queue.append(k)
        return added

    def descend() -> None:
        w = next((i for i in range(n) if slots[i] < 0), None)
        if w is None:
            results.append(tuple(sorted(slots)))
            return
        for cand in candidates[w]:
            slots[w] = cand
            added = propagate(w)
            if added is not None:
                descend()
                for u in added:
                    slots[u] = -1
            slots[w] = -1

    descend()
    # each subgroup fills the slots one way, so results has no repeats;
    # indices follow image order, so sorted index tuples sort the
    # subgroups as their sorted image lists would
    return [PermGroup.from_elements(n, map(ims.__getitem__, r)) for r in sorted(results)]


@dataclass(frozen=True)
class CayleyRecovery:
    """Output of the regular-subgroup reconstruction: a group and a
    hyperset over the same vertex labels 0..n-1 as the dihypergraph."""

    group: FiniteGroup
    hyperset: CayleyHyperset


def regular_to_cayley(h: Dihypergraph, r: PermGroup) -> CayleyRecovery:
    """Rebuild a group and hyperset from a regular subgroup of Aut(h).

    Vertices are labeled by the unique permutation p_j carrying the base
    vertex 0 onto j, which is T_0[j]; reading products off those labels,
    table[i][j] = p_j(i), gives the group table, the transpose of T_0,
    and the arcs leaving vertex 0 give one member per arc orbit.

    The rebuilt group's right translation by j sends i to i*j = p_j(i),
    so its right translations are exactly r, and cd_construct of the
    result is the r-orbit of the arcs at 0.  That equals h exactly when
    r preserves the arcs of h, so the final comparison is the whole arc
    check and no other is made.
    """
    n = h.vertex_count
    if not is_regular(r, n):
        raise ValueError(f"subgroup of order {r.order} on degree {r.degree} is not regular on {n} vertices")
    group = FiniteGroup.from_table(f"regular{n}", list(zip(*r.transversals[0])))
    members = []
    for v, e in h.arcs:
        if v == 0:
            if 0 not in e:
                raise ValueError(f"arc at the base vertex has edge {e} missing the vertex itself")
            members.append(e)
    hyperset = validate_hyperset(group, members)
    if cd_construct(group, hyperset) != h:
        raise ValueError("the given permutations do not preserve the arcs of h")
    return CayleyRecovery(group=group, hyperset=hyperset)


def _generator_images(small: PermGroup) -> list[tuple[int, ...]]:
    """The images of each non-identity generator of small.  Conjugation
    is an injective homomorphism, so it maps small onto itself as soon
    as it maps these into small."""
    return [s.images for s in small.generators if not s.is_identity()]


def _conjugates_into(x: tuple[int, ...], probes: list[itemgetter], inside: set) -> bool:
    """True when x^-1 then s then x lies in inside for every probe s,
    the getter that composes s then x as probe(x)."""
    undo = itemgetter(*_inverse(x))
    return all(undo(probe(x)) in inside for probe in probes)


def normalizer(big: PermGroup, small: PermGroup) -> PermGroup:
    """Elements of big whose conjugation maps small onto itself, for a
    regular small.

    Write small = {t_w}, with t_w the member sending 0 to w: small's T_0
    is t_0, t_1, ... in order of image of 0.  Every element n of the
    normalizer N sends 0 to some w, and n then t_w^-1 lies in N and fixes
    0, so N = N_0 . small, with N_0 the elements of N fixing 0.  For x
    fixing 0 and a generator s = t_w, the conjugate x^-1 then s then x
    sends 0 to x(w), so if it lies in small it is t_(x(w)); and it is
    t_(x(w)) exactly when x(s(v)) = t_(x(w))(x(v)) for every v (the
    holomorph lemma; Dixon & Mortimer, Permutation Groups, 1996).  So x
    is in N_0 exactly when every such triple (v, w, s(v)) holds:
    conjugation is an injective homomorphism, so it maps small onto
    itself once it maps the generators into it.

    groups._chain_search walks big's stabiliser of 0 and checks each
    triple at level max(v, w, s(v)), where the three images are final,
    so a cut branch holds no element of N_0 and kept is N_0.  N is read
    off kept and T_0 by groups._chain_of_elements, whose condition
    holds: T_0 sends 0 to every point, and for k >= 1 every element of N
    fixing 0..k-1 fixes 0, so it is kept.
    """
    n = big.degree
    if n != small.degree:
        raise ValueError(f"degree mismatch: {n} vs {small.degree}")
    if not is_regular(small, n):
        raise ValueError(f"small of order {small.order} is not regular on {n} points")
    if not all(p in big for p in small.generators):
        raise ValueError("small is not contained in big")
    t0 = small.transversals[0]
    # checks[k] holds the triples (v, w, s(v)) of the non-identity
    # generators s = t_w with max(v, w, s(v)) = k
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s in _generator_images(small):
        w = s[0]
        for v, sv in enumerate(s):
            checks[max(v, w, sv)].append((v, w, sv))

    def step(k, x, state):
        return state if all(x[sv] == t0[x[w]][x[v]] for v, w, sv in checks[k]) else None

    kept = _chain_search(((t0[0],), *big.transversals[1:]), step, True)
    return PermGroup.from_elements(n, [*kept, *t0])


@dataclass(frozen=True)
class Theorem2Report:
    """Results of the normalizer factorization checks for one instance."""

    group_order: int
    aut_h_order: int
    aut_g_x: tuple[GroupAutomorphism, ...]
    normalizer_order: int
    product_factorization: bool
    order_matches: bool
    trivial_intersection: bool
    g_r_normal: bool
    stabilizer_matches: bool

    @property
    def aut_g_x_order(self) -> int:
        return len(self.aut_g_x)

    @property
    def all_pass(self) -> bool:
        return (
            self.product_factorization
            and self.order_matches
            and self.trivial_intersection
            and self.g_r_normal
            and self.stabilizer_matches
        )


def verify_theorem2(
    g: FiniteGroup, x: CayleyHyperset, aut: Optional[PermGroup] = None
) -> Theorem2Report:
    """Check that the normalizer of the right translations inside the
    dihypergraph's automorphisms factors as translations composed with
    the hyperset-preserving group automorphisms.

    A precomputed automorphism group may be passed to avoid repeating
    the search.
    """
    if aut is None:
        aut = aut_hypergraph(cd_construct(g, x))
    g_r = right_regular(g)
    norm = normalizer(aut, g_r)
    auts = aut_g_x(g, x)
    sigma = tuple(a.map for a in auts)
    # G_R is regular, so its T_0 lists all of it; product holds each
    # sigma then t with t in G_R
    translations = g_r.transversals[0]
    product = set(_chain_products((translations, sigma), g.order))
    elements = set(_chain_products(norm.transversals, g.order))
    # conjugation by q is an injective homomorphism, so it sends
    # <generators> = G_R onto G_R once it sends each generator into G_R
    probes = [itemgetter(*s) for s in _generator_images(g_r)]
    inside = set(translations)
    g_r_normal = all(_conjugates_into(q, probes, inside) for q in elements)
    stabilizer = {q for q in elements if q[0] == 0}
    return Theorem2Report(
        group_order=g.order,
        aut_h_order=aut.order,
        aut_g_x=auts,
        normalizer_order=norm.order,
        product_factorization=product == elements,
        order_matches=norm.order == g.order * len(sigma),
        trivial_intersection=inside.intersection(sigma) == {tuple(range(g.order))},
        g_r_normal=g_r_normal,
        stabilizer_matches=stabilizer == set(sigma),
    )


def dump_permgroup(p: PermGroup) -> str:
    """One 'perm 0->a 1->b ...' line per permutation, sorted."""
    lines = []
    for perm in p.sorted_perms():
        lines.append("perm " + " ".join(f"{i}->{v}" for i, v in enumerate(perm.images)))
    return "\n".join(lines) + "\n"
