"""Vertex permutations, regular subgroups, and the normalizer check.

Composition is left to right throughout: (a then b) sends v to b[a[v]],
matching the exponent convention v^(ab) = (v^a)^b.  Permutation is
groups.Permutation, re-exported.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Optional

from .groups import (
    CutoffExceeded,
    FiniteGroup,
    Permutation,
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
    "CayleyPresentations",
    "CayleyRecovery",
    "Theorem2Report",
    "right_regular",
    "is_regular",
    "aut_hypergraph",
    "find_regular_subgroups",
    "regular_to_cayley",
    "cayley_presentations",
    "normalizer",
    "verify_theorem2",
]


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
    generating set (groups._stabiliser_chain).  When none are given, as
    for a chain read off elements or a regular group the search found,
    they are the chain's maps past the identity (T_0[1:] for a regular
    group), made on first read.
    """

    def __init__(
        self,
        degree: int,
        transversals: tuple[tuple[tuple[int, ...], ...], ...],
        generators: Optional[tuple[Permutation, ...]] = None,
    ):
        self.degree = degree
        self.transversals = transversals
        if generators is not None:
            self.generators = generators

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        """The chain's maps past the identity, when none were given: every
        element is a product of them."""
        return tuple(Permutation(r) for reps in self.transversals for r in reps[1:])

    @staticmethod
    def _regular(
        t0: tuple[tuple[int, ...], ...], generators: Optional[tuple[Permutation, ...]] = None
    ) -> "PermGroup":
        """The regular group t0 lists in order of image of 0; the later
        levels hold the identity alone, as its other elements move 0."""
        return PermGroup(len(t0), (t0, *[(t0[0],)] * (len(t0) - 1)), generators)

    @staticmethod
    def _from_elements(degree: int, elements: Iterable[tuple[int, ...]]) -> "PermGroup":
        """The group G whose chain groups._chain_of_elements reads off
        these image tuples of its elements; its generators are the
        chain's non-identity maps.  elements must hold, for each k and
        each point w of k's orbit under the maps of G fixing 0..k-1, one
        such map sending k to w, as all of G does; nothing checks it, and
        other input gives a wrong chain: {id, (0 1), (1 2)} reads as
        order 4."""
        return PermGroup(degree, _chain_of_elements(degree, elements))

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


def right_regular(g: FiniteGroup) -> PermGroup:
    """The right translations v -> v*h, one per group element: the
    columns of the table, column h sending 0 to h."""
    columns = tuple(zip(*g.table))
    return PermGroup._regular(columns, tuple(Permutation(columns[h]) for h in g.generators))


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
    isomorphism test shares, asked only for the points w its pair codes
    leave feasible: the chain and its generators are those every point
    would give (proof in hypergraphs._completion_search).  AUT_ORDER_CAP
    refuses it three ways: by the vertex pairs and by the images tried
    in that search, and by the chain's order."""
    n = h.vertex_count
    search, feasible = _completion_search(h, h)
    transversals, found = _stabiliser_chain(
        n, range(n), lambda k, w: search((*range(k), w)), feasible
    )
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
    the semiregular permutations pass every level.  Their one cycle
    length divides len(x), so a first cycle of another length cuts."""
    cur, steps = x[k], 1
    while cur != k:
        if steps == length:
            return None
        if cur > k:
            return length
        cur, steps = x[cur], steps + 1
    if steps != length and (length or len(x) % steps):
        return None
    return steps


def _conjugator(y: tuple[int, ...]):
    """The map t -> y^-1 then t then y on image tuples: undo(t) is y^-1
    then t, and the getter of its images, applied to y, composes y."""
    if len(y) < 2:
        return lambda t: t  # the identity is all there is
    undo = itemgetter(*_inverse(y))
    return lambda t: itemgetter(*undo(t))(y)


def _semiregular(x: tuple[int, ...]) -> bool:
    """Every cycle of x has one length: _cycle_step passes at every level."""
    length = 0
    for k in range(len(x)):
        length = _cycle_step(k, x, length)
        if length is None:
            return False
    return True


def _regular_search(p: PermGroup, n: int) -> list[tuple[tuple[tuple[int, ...], ...], dict]]:
    """The order-n subgroups of p acting regularly on 0..n-1, up to
    conjugacy by K, the group generated by p's generators that fix 0 and
    1: one (T_0, orbit) pair per subgroup R whose slot-1 member, the one
    sending 0 to 1, comes first in slot 1's candidate list among its
    orbit under conjugation by K.  orbit maps each member c of that orbit to a transporter, a y in K
    with first^y = c; it is shared by every R with that slot-1 member,
    and its size is R's weight.  For a chain groups._stabiliser_chain
    built, as aut_hypergraph's is, or one whose generators are its chain
    maps, K is all of p's maps fixing 0 and 1; for other generators K
    may be smaller, which lists more but counts the same.

    The weights count exactly.  For x in K, x^-1 then c then x sends 0 to
    1 when c does, so R -> R^x is a bijection, with inverse R -> R^(x^-1),
    from the subgroups whose slot-1 member is c to those whose slot-1
    member is c^x.  So each regular subgroup S, its slot-1 member c =
    first^y with y = orbit[c], is R^y for exactly one listed R, and the
    weights sum to the number of regular subgroups; every class of them
    under conjugation by p meets the list.

    A regular subgroup holds exactly one member sending 0 to w for each
    w, so the search fills those n slots, the smallest empty one next;
    the filled slots hold a group H generated by the candidates chosen
    on the path.  When slot w takes candidate c, H is closed by left
    multiplication, old members by c only and new ones by every
    generator.  The old members times the old generators lie in H, so
    this closure is <H, c>, and it fails (on a product that is not
    semiregular or lands in a slot holding another member) exactly when
    <H, c> is not regular.  Each subgroup is reached by one path, as
    each step gives the smallest empty slot its member: no repeats.
    Slot w's candidates are the semiregular maps of p sending 0 to w,
    listed on the slot's first visit by groups._chain_search with
    _cycle_step down the chain below the map of T_0 sending 0 to w: a
    group that a slot-1 member fills is not searched further, so in S7 a
    7-cycle fills every slot and slots 2 to 6 are never listed.
    """
    if p.degree != n:
        raise ValueError(f"group acts on degree {p.degree}, expected {n}")
    if n == 0 or len(p.transversals[0]) < n:
        # no group has order 0, and a regular subgroup needs p transitive
        return []
    identity = p.transversals[0][0]
    lists: dict[int, list[tuple[int, ...]]] = {}

    def candidates(w: int) -> list[tuple[int, ...]]:
        if w not in lists:
            lists[w] = _chain_search(((p.transversals[0][w],), *p.transversals[1:]), _cycle_step, 0)
        return lists[w]

    fixers = [(_conjugator(y), y) for y in (g.images for g in p.generators) if y[:2] == (0, 1)]
    firsts: list[tuple[tuple[int, ...], dict]] = []
    seen: set[tuple[int, ...]] = set()
    for c in candidates(1) if n > 1 else ():
        if c not in seen:
            orbit, queue = {c: identity}, [c]
            for d in queue:
                for conjugate, y in fixers:
                    e = conjugate(d)
                    if e not in orbit:
                        orbit[e] = itemgetter(*orbit[d])(y)  # orbit[d] then y
                        queue.append(e)
            seen.update(orbit)
            firsts.append((c, orbit))

    out: list[tuple[tuple[tuple[int, ...], ...], dict]] = []
    slots: list[Optional[tuple[int, ...]]] = [identity] + [None] * (n - 1)
    members = [identity]  # H's members, in the order their slots were filled

    def closes(size: int, gens: list[itemgetter]) -> bool:
        """Close members under left multiplication by gens (gens[j](o) is
        the j-th generator then o), where members[:size] is closed under
        all but the last, c = members[size]; False on a conflict."""
        i = 1  # the identity times c is c
        while i < len(members):
            for g in gens if i >= size else gens[-1:]:
                im = g(members[i])
                cur = slots[im[0]]
                if cur is None and _semiregular(im):
                    slots[im[0]] = im
                    members.append(im)
                elif cur != im:
                    return False
            i += 1
        return True

    def descend(gens: list[itemgetter], orbit: dict) -> None:
        w = next((i for i in range(n) if slots[i] is None), None)
        if w is None:
            out.append((tuple(sorted(members)), orbit))
            return
        size = len(members)
        for cand, below in firsts if w == 1 else [(c, orbit) for c in candidates(w)]:
            slots[w] = cand
            members.append(cand)
            grown = [*gens, itemgetter(*cand)]  # n >= 2: a tuple getter
            if closes(size, grown):
                descend(grown, below)
            while len(members) > size:
                slots[members.pop()[0]] = None

    try:
        descend([], {identity: identity})
    finally:
        del descend  # as in groups._chain_search
    return out


def find_regular_subgroups(p: PermGroup, n: int) -> list[PermGroup]:
    """All order-n subgroups of p acting regularly on 0..n-1, in order of
    their sorted image lists: each subgroup _regular_search lists,
    conjugated by every transporter of its slot-1 member's orbit, which
    gives each regular subgroup once, built from its sorted members by
    PermGroup._regular.  perms is not listed on p.  Products are not
    memoised: in S8 a table of them answered 31% of lookups and doubled
    the search's peak memory without making it faster."""
    found = []
    for t0, orbit in _regular_search(p, n):
        for y in orbit.values():
            found.append(tuple(sorted(map(_conjugator(y), t0))))
    return [PermGroup._regular(t0) for t0 in sorted(found)]


class CayleyRecovery(SimpleNamespace):
    """Output of the regular-subgroup reconstruction: group, a
    FiniteGroup, and hyperset, a CayleyHyperset over the same vertex
    labels 0..n-1 as the dihypergraph."""


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


class CayleyPresentations(SimpleNamespace):
    """Output of cayley_presentations: aut, Aut(h), or None when it is
    refused; broken, the first generator of Aut(h) that moves an arc off
    the arc set, or None when every generator keeps it; and listed, one
    (T_0, orbit, recovery) entry per regular subgroup R of Aut(h) that
    the search lists, the orbit's size R's weight and recovery
    regular_to_cayley(h, R), or None when that round trip fails."""

    def entry_for(self, r: PermGroup):
        """The entry of listed for R = r^(y^-1), for a regular r such as
        the right translations, where the orbit holding r's slot-1 member
        maps it to the transporter y, so R's slot-1 member is the orbit's
        first and r is among the conjugates R's weight counts; None when
        R is not listed, as when r does not lie in Aut(h).  For n = 1 the
        slot is 0."""
        t0 = r.transversals[0]
        lead = t0[1 % len(t0)]
        y = next((orbit[lead] for _, orbit, _ in self.listed if lead in orbit), None)
        if y is None:
            return None
        conjugate = tuple(sorted(map(_conjugator(_inverse(y)), t0)))
        return next((entry for entry in self.listed if entry[0] == conjugate), None)


def cayley_presentations(h: Dihypergraph) -> CayleyPresentations:
    """The regular subgroups of Aut(h), each with the Cayley presentation
    of h it gives: h is Cayley when Aut(h) holds a regular subgroup, as
    Sabidussi (1958) has it for graphs.  Each regular subgroup R that
    _regular_search lists goes through regular_to_cayley, whose group
    and hyperset rebuild h by cd_construct, or which refuses R; every
    other regular subgroup is a conjugate of a listed one that its
    weight counts.  All of it depends on the arcs alone.

    The generators are the maps the search for Aut(h)'s stabiliser chain
    found, whose products are all of Aut(h), and a product of
    arc-preserving maps preserves the arcs.  So when no generator breaks
    an arc, no element does, and every regular subgroup conjugate to a
    listed one under Aut(h) shares its round trip.  For a in Aut(h) and R
    regular in Aut(h), R^a is regular in Aut(h), and conjugation by a is
    an isomorphism from R to R^a: their recovered groups are isomorphic.
    Both preserve the arcs, so cd_construct of each recovery is h
    (regular_to_cayley), and both read the same arcs at vertex 0: R^a's
    round trip holds exactly when R's does.  So each listed R stands for
    its weight's worth of regular subgroups.  When a generator breaks an
    arc that proof fails, so every regular subgroup is listed and
    recovered on its own, each with weight 1.
    """
    try:
        aut = aut_hypergraph(h)
    except CutoffExceeded:
        return CayleyPresentations(aut=None, broken=None, listed=())
    arcs = h.arcs

    def moves_an_arc(p: Permutation) -> bool:
        im = p.images
        return {(im[v], tuple(sorted([im[u] for u in e]))) for v, e in arcs} != arcs

    broken = next(filter(moves_an_arc, aut.generators), None)
    n = h.vertex_count
    if broken is None:
        listed = _regular_search(aut, n)
    else:
        t0s = [r.transversals[0] for r in find_regular_subgroups(aut, n)]
        listed = [(t0, {t0[1 % n]: t0[0]}) for t0 in t0s]
    entries = []
    for t0, orbit in listed:
        try:
            recovery = regular_to_cayley(h, PermGroup._regular(t0))
        except ValueError:
            recovery = None
        entries.append((t0, orbit, recovery))
    return CayleyPresentations(aut=aut, broken=broken, listed=tuple(entries))


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
    # checks[k] holds the triples (v, w, s(v)) of the generators s = t_w
    # with max(v, w, s(v)) = k; the identity's hold for every x fixing 0
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s in (p.images for p in small.generators):
        w = s[0]
        for v, sv in enumerate(s):
            checks[max(v, w, sv)].append((v, w, sv))

    def step(k, x, state):
        for v, w, sv in checks[k]:
            if x[sv] != t0[x[w]][x[v]]:
                return None
        return state

    kept = _chain_search(((t0[0],), *big.transversals[1:]), step, True)
    return PermGroup._from_elements(n, [*kept, *t0])


class Theorem2Report(SimpleNamespace):
    """Results of the normalizer factorization checks for one instance:
    group_order, aut_h_order, aut_g_x (the Permutations of Aut(G, X)),
    normalizer_order, and one bool per sub-check in checks."""

    # each sub-check of Theorem 2, in report order, as (the report's
    # attribute, the key of its line in cdhg analyze)
    checks = (
        ("product_factorization", "theorem2_product_factorization"),
        ("order_matches", "theorem2_order"),
        ("trivial_intersection", "theorem2_trivial_intersection"),
        ("g_r_normal", "theorem2_normality"),
        ("stabilizer_matches", "theorem2_stabilizer"),
    )

    @property
    def aut_g_x_order(self) -> int:
        return len(self.aut_g_x)

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name) for name, _ in self.checks)


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
    sigma = tuple(a.images for a in auts)
    # G_R is regular, so its T_0 lists all of it; product holds each
    # sigma then t with t in G_R
    translations = g_r.transversals[0]
    product = set(_chain_products((translations, sigma), g.order))
    elements = set(_chain_products(norm.transversals, g.order))
    # conjugation by q is an injective homomorphism, so it sends
    # <generators> = G_R onto G_R once it sends each generator into G_R.
    # The q that do form a group, and every element of norm is a product
    # of its chain's transversal maps, each itself an element of norm: so
    # every element normalises G_R exactly when every non-identity map
    # of the chain does, and only those are tested
    probes = [itemgetter(*s.images) for s in g_r.generators]
    inside = set(translations)
    g_r_normal = all(
        _conjugates_into(q, probes, inside) for t in norm.transversals for q in t[1:]
    )
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
