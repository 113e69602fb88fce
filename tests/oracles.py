"""Independent brute-force oracles for cross-checking the library.

Everything here works on plain data (multiplication tables as nested
lists, arcs as frozensets of (vertex, edge) pairs, permutations as image
tuples) and enumerates from first principles, or hands it to networkx.
Nothing imports cdhg, so a bug in the library cannot hide inside its
own oracle.
"""

from itertools import permutations
from math import gcd

import networkx as nx
from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_node_match


def arc_set(arcs):
    """Normalize arcs to a frozenset of (vertex, sorted edge tuple)."""
    return frozenset((v, tuple(sorted(e))) for v, e in arcs)


def brute_hypergraph_automorphisms(n, arcs):
    """All vertex permutations preserving the arc set, by full scan.

    Feasible for n <= 8 or so; the 7-point case scans 5040 candidates.
    """
    target = arc_set(arcs)
    found = []
    for p in permutations(range(n)):
        image = frozenset((p[v], tuple(sorted(p[w] for w in e))) for v, e in target)
        if image == target:
            found.append(p)
    return found


def preserves_arcs(images, arcs):
    """True when every permutation, given by its image tuple, maps the
    arc set onto itself."""
    target = arc_set(arcs)
    return all(
        frozenset((p[v], tuple(sorted(p[w] for w in e))) for v, e in target) == target
        for p in images
    )


def carries_arcs(p, arcs_a, arcs_b):
    """True when the permutation p, given by its image tuple, maps the
    arc set arcs_a onto arcs_b."""
    image = frozenset((p[v], tuple(sorted(p[w] for w in e))) for v, e in arc_set(arcs_a))
    return image == arc_set(arcs_b)


def brute_hypergraph_isomorphism(n, arcs_a, arcs_b):
    """First permutation carrying arcs_a onto arcs_b, or None."""
    a = arc_set(arcs_a)
    b = arc_set(arcs_b)
    if len(a) != len(b):
        return None
    for p in permutations(range(n)):
        image = frozenset((p[v], tuple(sorted(p[w] for w in e))) for v, e in a)
        if image == b:
            return p
    return None


def brute_group_automorphisms(table):
    """All bijections fixing 0 with p[i*j] = p[i]*p[j], by full scan."""
    n = len(table)
    found = []
    for tail in permutations(range(1, n)):
        p = (0,) + tail
        if all(p[table[i][j]] == table[p[i]][p[j]] for i in range(n) for j in range(n)):
            found.append(p)
    return found


def totient(n):
    """Euler's phi by trial division: |Aut(Z_n)|."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def abelian_aut_order(cyclic_orders):
    """|Aut| of the direct product of cyclic groups of these orders, by
    the counting formula of Hillar and Rhea ("Automorphisms of finite
    abelian groups", 2007), applied to each primary part.  For a p-group
    with exponents e_1 <= ... <= e_m, d_k = max{l : e_l = e_k} and
    c_k = min{l : e_l = e_k} (1-based),
    |Aut| = prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (m - d_j))
            * prod_i p^((e_i - 1)(m - c_i + 1))."""
    exponents = {}
    for n in cyclic_orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    order = 1
    for p, es in exponents.items():
        es.sort()
        m = len(es)
        for k, e in enumerate(es, start=1):
            d = max(l for l in range(1, m + 1) if es[l - 1] == e)
            c = min(l for l in range(1, m + 1) if es[l - 1] == e)
            order *= (p**d - p ** (k - 1)) * p ** (e * (m - d)) * p ** ((e - 1) * (m - c + 1))
    return order


def brute_is_group(table):
    """True when 0 is a two-sided identity, every triple associates and
    every element has a two-sided inverse, each checked by full scan."""
    n = len(table)
    if any(table[0][i] != i or table[i][0] != i for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return False
    return all(
        any(table[i][j] == 0 and table[j][i] == 0 for j in range(n)) for i in range(n)
    )


def brute_center(table):
    """Elements commuting with every element."""
    n = len(table)
    return [z for z in range(n) if all(table[z][a] == table[a][z] for a in range(n))]


def table_inverses(table):
    """Two-sided inverse of each element, assuming a valid group table."""
    n = len(table)
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0 and table[j][i] == 0:
                inv[i] = j
                break
    return inv


def brute_single_closure(table, member):
    """All translates member*g^-1 over g in member, from the definition."""
    inv = table_inverses(table)
    return {tuple(sorted(table[s][inv[g]] for s in member)) for g in member}


def close_subset(table, seed):
    """Smallest subgroup containing seed, by product saturation."""
    members = {0} | set(seed)
    while True:
        fresh = {table[a][b] for a in members for b in members} - members
        if not fresh:
            return frozenset(members)
        members |= fresh


def greedy_generators(table):
    """Each element, in index order, that the subgroup generated by the
    elements picked before it does not hold."""
    gens = []
    reached = close_subset(table, ())
    for a in range(1, len(table)):
        if a not in reached:
            gens.append(a)
            reached = close_subset(table, gens)
    return tuple(gens)


def brute_cayley_classes(table, members):
    """Members partitioned by b = a*s^-1 for some s in a, tested pair by
    pair in both directions and closed transitively; each class and the
    list of classes sorted."""
    members = sorted(set(members))
    translates = {a: brute_single_closure(table, a) for a in members}
    classes = []
    for a in members:
        if any(a in cls for cls in classes):
            continue
        cls, frontier = {a}, [a]
        while frontier:
            c = frontier.pop()
            for b in members:
                if b not in cls and (b in translates[c] or c in translates[b]):
                    cls.add(b)
                    frontier.append(b)
        classes.append(tuple(sorted(cls)))
    return sorted(classes)


def all_subgroups_up_to(table, max_order):
    """Every subgroup of order <= max_order, by one-generator extension.

    Any subgroup is reached by adding its elements one at a time, so a
    breadth-first sweep over closures is exhaustive.
    """
    n = len(table)
    found = {close_subset(table, ())}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for c in range(n):
                if c in s:
                    continue
                t = close_subset(table, s | {c})
                if len(t) <= max_order and t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    return found


def brute_translate_arcs(table, members):
    """Every arc (h, m*h) of CD(G, X), m*h the sorted products s*h over
    s in m, for each element h and member m."""
    n = len(table)
    return {(h, tuple(sorted(table[s][h] for s in m))) for m in members for h in range(n)}


def brute_is_undirected(arcs):
    """Every edge some arc enters is entered from each of its vertices,
    tested arc by arc."""
    arcs = set(arcs)
    return all((w, e) in arcs for _, e in arcs for w in e)


def _compose(p, q):
    """Left-to-right composition of image tuples: v -> q[p[v]]."""
    return tuple(q[v] for v in p)


def _inverse(p):
    """Inverse of an image tuple."""
    out = [0] * len(p)
    for v, w in enumerate(p):
        out[w] = v
    return tuple(out)


def _perm_closure(gens, n):
    """Group generated by image tuples, as a frozenset of image tuples."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def is_semiregular(p):
    """Every power of p but the identity moves every point: the cycles of
    p then share one length."""
    identity = tuple(range(len(p)))
    q = p
    while q != identity:
        if any(q[v] == v for v in identity):
            return False
        q = _compose(q, p)
    return True


def brute_regular_subgroups(perms, n):
    """All order-n subgroups of the given permutation set acting regularly.

    perms: iterable of image tuples forming a group.  Subgroups are found
    by extending generating sets one element at a time, keeping closures
    of order <= n; regularity is then |H| = n plus transitivity.
    """
    elems = sorted(set(perms))
    found = {frozenset({tuple(range(n))})}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for c in elems:
                if c in s:
                    continue
                t = _perm_closure(sorted(s | {c}), n)
                if len(t) <= n and t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    regulars = []
    for s in found:
        if len(s) != n:
            continue
        orbit = {p[0] for p in s}
        if len(orbit) == n:
            regulars.append(s)
    return regulars


def brute_conjugacy_classes(group, subgroups):
    """The classes of the subgroups (collections of image tuples) under
    conjugation by every element x of group, s -> x^-1 s x member by
    member, each a sorted list of indices, in order of first index."""
    index = {frozenset(s): i for i, s in enumerate(subgroups)}
    classes, seen = [], set()
    for i, s in enumerate(subgroups):
        if i not in seen:
            conjugates = (frozenset(_compose(_compose(_inverse(x), t), x) for t in s) for x in group)
            cls = {index[c] for c in conjugates}
            seen |= cls
            classes.append(sorted(cls))
    return classes


def generator_conjugacy_classes(generators, subgroups):
    """The classes of the subgroups (collections of image tuples) under
    conjugation by the group the generators generate, breadth first, s ->
    a^-1 s a member by member for each generator a; each a sorted list of
    indices, in order of first index.  Every conjugate must be listed."""
    index = {frozenset(s): i for i, s in enumerate(subgroups)}
    pairs = [(_inverse(a), a) for a in generators]
    classes, seen = [], set()
    for i in range(len(subgroups)):
        if i not in seen:
            cls = [i]
            seen.add(i)
            for j in cls:
                for ai, a in pairs:
                    k = index[frozenset(_compose(_compose(ai, t), a) for t in subgroups[j])]
                    if k not in seen:
                        seen.add(k)
                        cls.append(k)
            classes.append(sorted(cls))
    return classes


def brute_normalizer(big, small):
    """Elements x of big with x^-1 s x in small for every s in small, by
    full scan.  big, small: iterables of image tuples forming groups."""
    small = frozenset(small)
    found = set()
    for x in big:
        xi = _inverse(x)
        if all(_compose(_compose(xi, s), x) in small for s in small):
            found.add(x)
    return frozenset(found)


def _vf2_matcher(n, arcs_a, arcs_b):
    """networkx's VF2 matcher between the incidence digraphs of arcs_a
    and arcs_b.

    Each side has a node per vertex and a node per distinct edge, told
    apart by a "kind" attribute that the match must keep; an edge node
    points to its vertices, and an arc (v, e) points from v to e's node.
    An edge node's out-neighbours are its vertices, so a match sends it
    to the node of the image of its edge, and so carries arcs to arcs;
    each vertex bijection carrying arcs_a onto arcs_b is one match."""
    def incidence(arcs):
        d = nx.DiGraph()
        d.add_nodes_from((("v", v) for v in range(n)), kind="v")
        for v, e in arc_set(arcs):
            d.add_node(("e", e), kind="e")
            d.add_edges_from((("e", e), ("v", u)) for u in e)
            d.add_edge(("v", v), ("e", e))
        return d

    return DiGraphMatcher(
        incidence(arcs_a), incidence(arcs_b), node_match=categorical_node_match("kind", None)
    )


def vf2_isomorphic(n, arcs_a, arcs_b):
    """True when some vertex bijection carries arcs_a onto arcs_b, decided
    by networkx's VF2 on incidence digraphs."""
    return _vf2_matcher(n, arcs_a, arcs_b).is_isomorphic()


def vf2_automorphism_count(n, arcs):
    """The number of vertex permutations preserving arcs, counted by
    networkx's VF2 as the matches of the incidence digraph with itself."""
    return sum(1 for _ in _vf2_matcher(n, arcs, arcs).isomorphisms_iter())
