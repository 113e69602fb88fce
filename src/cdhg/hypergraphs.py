"""Dihypergraphs built from groups and hypersets, and their invariants.

A dihypergraph is a vertex count plus a set of arcs (vertex, edge), where
an edge is a sorted tuple of vertex indices.  The edge set is derived from
the arcs on its first read and kept, so repeated edges collapse: two arcs
entering the same subset share one edge.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Optional

from .groups import AUT_ORDER_CAP, CutoffExceeded, FiniteGroup, _Value
from .hypersets import CayleyHyperset, cayley_equivalence_classes

__all__ = [
    "Arc",
    "Dihypergraph",
    "UndirectedHypergraph",
    "cd_construct",
    "ch_construct",
    "underlying",
    "is_connected",
    "is_undirected",
    "uniformity",
    "to_cayley_digraph",
    "hypergraph_isomorphic",
    "dump_dihypergraph",
    "load_dihypergraph",
]

Arc = tuple[int, tuple[int, ...]]


class Dihypergraph(_Value):
    """A vertex count and its arcs (vertex, edge), equal and hashed by
    both fields."""

    __slots__ = ("vertex_count", "arcs", "_edges")
    _key = attrgetter("vertex_count", "arcs")

    def __init__(self, vertex_count: int, arcs: frozenset[Arc]):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_edges", None)

    @property
    def edges(self) -> frozenset[tuple[int, ...]]:
        """The distinct edges of the arcs, made on the first read and
        kept in _edges for every later one."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(e for _, e in self.arcs))
        return self._edges

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)


class UndirectedHypergraph(_Value):
    """A vertex count and its edges, equal and hashed by both fields."""

    __slots__ = ("vertex_count", "edges")
    _key = attrgetter("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)


def _translates(g: FiniteGroup, member: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The translates member*h = {s*h : s in member}, sorted, in order
    of h: read down the member's rows of the table together."""
    return map(tuple, map(sorted, zip(*map(g.table.__getitem__, member))))


def cd_construct(g: FiniteGroup, x: CayleyHyperset) -> Dihypergraph:
    """Arcs (h, m*h) for every element h and member m.

    Distinct members stay distinct after any right translate, so the arc
    count is always |G| * |X|.

    Members of one Cayley class share their translates.  Taking the
    members in order, if m*s^-1 is a member m0 done before, for some s in
    m, then m = m0*s and m*h = m0*(s*h): m's edge at h is m0's edge at
    s*h, read off m0's translates through row s of the table, with no
    sort and no new tuple.  Only a member with no such m0 sorts its own
    translates, so a Cayley-closed X, whose edges are each entered from
    each of their vertices, sorts each distinct edge once.
    """
    if x.group_order != g.order:
        raise ValueError(f"hyperset is over order {x.group_order}, group has order {g.order}")
    table, inverse = g.table, g.inverse
    done: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    arcs = set()
    for m in x.members:
        rows = [table[t] for t in m]
        for s in m[1:]:
            si = inverse[s]
            row = done.get(tuple(sorted([r[si] for r in rows])))
            if row is not None:
                arcs.update(enumerate(map(row.__getitem__, table[s])))
                break
        else:
            row = done[m] = list(_translates(g, m))
            arcs.update(enumerate(row))
    return Dihypergraph(vertex_count=g.order, arcs=frozenset(arcs))


def ch_construct(g: FiniteGroup, y: CayleyHyperset) -> UndirectedHypergraph:
    """Undirected hypergraph whose edges are all right translates of y's
    members.  Members must be pairwise non-equivalent, otherwise distinct
    inputs could describe one translate family twice."""
    if y.group_order != g.order:
        raise ValueError(f"hyperset is over order {y.group_order}, group has order {g.order}")
    for cls in cayley_equivalence_classes(g, y):
        if len(cls) > 1:
            raise ValueError(
                f"members {cls[0]} and {cls[1]} are Cayley equivalent; "
                "pass one representative per class"
            )
    edges = set()
    for m in y.members:
        edges.update(_translates(g, m))
    return UndirectedHypergraph(vertex_count=g.order, edges=frozenset(edges))


def underlying(h: Dihypergraph) -> UndirectedHypergraph:
    """Forget arc directions: keep the distinct edge subsets."""
    return UndirectedHypergraph(vertex_count=h.vertex_count, edges=h.edges)


def is_connected(h: Dihypergraph) -> bool:
    """Connectivity of the bipartite incidence structure on vertices and
    edges; vertices lying in no edge are isolated.  Joining n vertices
    takes n - 1 merges and an edge e makes at most |e| - 1, so edges
    too small to make them give False before any list over the vertices
    is made."""
    n, edges = h.vertex_count, h.edges
    if n - 1 > sum(map(len, edges)) - len(edges):
        return False
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in edges:
        r = find(e[0])
        for v in e[1:]:
            rv = find(v)
            if rv != r:
                parent[rv] = r
    roots = {find(v) for v in range(n)}
    return len(roots) == 1


def is_undirected(h: Dihypergraph) -> bool:
    """Every edge is entered from each of its vertices.  The pairs
    (w, e) with e an edge and w in e number sum |e|, since an edge lists
    distinct vertices.  When every arc holds its own vertex, as every
    arc cd_construct makes does, the arcs are among those pairs, so they
    are all of them exactly when the counts agree.  Otherwise each
    distinct edge is tested once, rather than once per arc entering
    it."""
    arcs, edges = h.arcs, h.edges
    if all(v in e for v, e in arcs):
        return len(arcs) == sum(map(len, edges))
    return all((w, e) in arcs for e in edges for w in e)


def uniformity(h: Dihypergraph) -> Optional[int]:
    """The common edge size, or None if edges are absent or of mixed size."""
    sizes = set(map(len, h.edges))
    if len(sizes) == 1:
        return sizes.pop()
    return None


def to_cayley_digraph(g: FiniteGroup, x: CayleyHyperset) -> frozenset[tuple[int, int]]:
    """For a 2-uniform hyperset, the classical digraph on connection set
    S = (union of members) minus the identity: arcs (h, s*h)."""
    for m in x.members:
        if len(m) != 2:
            raise ValueError(f"member {m} has size {len(m)}; the digraph view needs all members of size 2")
    connection = sorted({s for m in x.members for s in m} - {0})
    return frozenset((h, g.table[s][h]) for s in connection for h in g.elements())


def _pair_codes(h: Dihypergraph) -> list[list[int]]:
    """code[u][v], a label of the ordered vertex pair (u, v) that every
    isomorphism keeps: for each edge size, the arcs from u whose edge
    holds v, the arcs from v whose edge holds u and the edges holding
    both, and on the diagonal also u's own arcs.  Each count is one digit
    in base len(arcs) + 1, the sizes taking four digits each in
    increasing order, so equal codes mean equal counts.  This is the pair
    colouring of Weisfeiler & Leman (1968) before any refinement."""
    n = h.vertex_count
    base = len(h.arcs) + 1
    edges = h.edges
    unit = {s: base ** (4 * i) for i, s in enumerate(sorted({len(e) for e in edges}))}
    code = [[0] * n for _ in range(n)]
    for u, e in h.arcs:
        d = unit[len(e)]
        code[u][u] += d * base**3
        for v in e:
            code[u][v] += d
            code[v][u] += d * base
    for e in edges:
        d = unit[len(e)] * base**2
        for u in e:
            row = code[u]
            for v in e:
                row[v] += d
    return code


def _completion_search(
    a: Dihypergraph, b: Dihypergraph
) -> tuple[Callable[[tuple[int, ...]], Optional[tuple[int, ...]]], Optional[list[list[int]]]]:
    """The search for vertex bijections mapping the arcs of a onto the
    arcs of b, as a function of a prefix: given the images of vertices
    0..len(prefix)-1, it returns the first arc-preserving completion, as
    an image tuple, or None.  It comes paired with feasible, None unless
    b is a.

    Backtracking in natural vertex order, candidate images in natural
    order.  Every isomorphism keeps the pair codes, so the pruning is
    exact and the first completion is the one the unpruned search finds:
    the images of v are the w whose diagonal code and sorted row of codes
    equal v's, and a prefix image without both ends the search at once.
    At step k, w is kept only if its codes against the images of
    0..k-1 equal those of k against 0..k-1; then each arc of a whose last
    vertex is k is verified, but for those the codes already decide.  An
    edge of size 1 holding u is (u,), so an arc (v, (u,)) is one digit
    of code[v][u]: for u = v the candidate test matches it, and else the
    step of the later of v and u, in code[k][m] with m the earlier.
    When every arc of a and of b holds its own vertex, an edge of size 2
    holding v and u is {v, u}, so an arc (v, {v, u}) is one digit of
    code[k][m] in the same way.  Where arcs miss their vertex, it may be
    any {u, x}, so those arcs are verified.

    The codes are computed once, so repeated prefixes share them.  When b
    is a, the identity on 0..k-1 passes every test, so for a prefix
    (0, ..., k-1, w) only w is tested, then the search goes on from k+1.

    Then feasible[k] lists, in increasing order, the w in candidates[k]
    with code[w][:k] == heads[k], exactly those whose first test passes
    against the identity on 0..k-1.  A map s of Aut(a) fixing 0..k-1
    keeps the codes, so code[s(k)][m] = code[s(k)][s(m)] = code[k][m] for
    m < k, and s(k) has k's key: feasible[k] holds every image of k under
    those maps.  The search refuses (0, ..., k-1, w) at its first test
    for every other w, and so for each point of w's orbit under such
    maps, all of which are others too.  So groups._stabiliser_chain over
    feasible in place of every point skips only prefixes that fail and
    whose orbits hold no feasible point: it asks the same prefixes that
    succeed, in the same order, and finds the same maps and transversals.

    groups.AUT_ORDER_CAP bounds what the search lists and visits.  More
    vertex pairs than the cap are refused before the codes are made, as
    'over cap CAP: n vertices give n^2 vertex pairs'; and every image w
    fits tests is counted, over all calls of first, so the test past the
    cap is refused as 'search over cap CAP: more than CAP images tried'.
    """
    n = a.vertex_count
    if b is not a and (
        n != b.vertex_count
        or len(a.arcs) != len(b.arcs)
        or sorted(map(len, a.edges)) != sorted(map(len, b.edges))
    ):
        return (lambda prefix: None), None
    if n * n > AUT_ORDER_CAP:
        raise CutoffExceeded(f"over cap {AUT_ORDER_CAP}: {n} vertices give {n * n} vertex pairs")
    code_a = _pair_codes(a)
    code_b = code_a if b is a else _pair_codes(b)
    key_a = [(row[v], tuple(sorted(row))) for v, row in enumerate(code_a)]
    key_b = key_a if b is a else [(row[v], tuple(sorted(row))) for v, row in enumerate(code_b)]
    if b is not a and sorted(key_a) != sorted(key_b):
        return (lambda prefix: None), None
    images: dict = {}
    for w, key in enumerate(key_b):
        images.setdefault(key, []).append(w)
    candidates = [images[key] for key in key_a]
    # the codes of k against 0..k-1, which the image of k must match
    heads = [row[:k] for k, row in enumerate(code_a)]
    feasible = None
    if b is a:
        feasible = [[w for w in ws if code_a[w][:k] == heads[k]] for k, ws in enumerate(candidates)]
    arcs_b = {(v, frozenset(e)) for v, e in b.arcs}
    implied = 2 if all(v in e for arcs in {a.arcs, b.arcs} for v, e in arcs) else 1
    # the other arcs of a, scheduled at the step where their last vertex
    # gets mapped, with the getter of their edge's images (a tuple)
    pending: list[list] = [[] for _ in range(n)]
    for v, e in sorted(a.arcs):
        if len(e) > implied:
            pending[max(v, e[-1])].append((v, itemgetter(*e)))
    identity = tuple(range(n))
    tried = 0

    def fits(k: int, w: int, mapping: list[int]) -> bool:
        """w passes as the image of k, the images of 0..k-1 in mapping."""
        nonlocal tried
        tried += 1
        if tried > AUT_ORDER_CAP:
            raise CutoffExceeded(f"search over cap {AUT_ORDER_CAP}: more than {AUT_ORDER_CAP} images tried")
        row = code_b[w]
        if [row[m] for m in mapping[:k]] != heads[k]:
            return False
        mapping[k] = w
        for v, get in pending[k]:
            if (mapping[v], frozenset(get(mapping))) not in arcs_b:
                return False
        return True

    def first(prefix: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        k = len(prefix)
        start = k - 1 if b is a and k and prefix[:-1] == identity[: k - 1] else 0
        mapping = [*prefix, *[-1] * (n - k)]
        for j in range(start, k):
            w = prefix[j]
            if w in prefix[:j] or w not in candidates[j] or not fits(j, w, mapping):
                return None
        used = [False] * n
        for w in prefix:
            used[w] = True

        def descend(k: int) -> bool:
            if k == n:
                return True
            for w in candidates[k]:
                if not used[w] and fits(k, w, mapping):
                    used[w] = True
                    if descend(k + 1):
                        return True
                    used[w] = False
            return False

        try:
            return tuple(mapping) if descend(k) else None
        finally:
            del descend  # it reaches itself by its own cell: empty it, or a cycle is left

    return first, feasible


def hypergraph_isomorphic(a: Dihypergraph, b: Dihypergraph) -> Optional[tuple[int, ...]]:
    """A vertex bijection carrying the arcs of a onto the arcs of b, as an
    image tuple, or None: the first completion of the empty prefix.  Size
    mismatches short-circuit to None; otherwise the search is refused
    past AUT_ORDER_CAP vertex pairs or images tried (_completion_search)."""
    return _completion_search(a, b)[0](())


def dump_dihypergraph(h: Dihypergraph) -> str:
    """Render the dihypergraph dump format, arcs sorted by vertex then edge.
    Labels are made up to the largest vertex an arc names, the last
    arc's vertex or an edge's last, so a large vertex count alone costs
    nothing.  Each distinct edge's text is rendered once, however many
    arcs enter it."""
    arcs = h.sorted_arcs()
    edges = h.edges
    top = max([e[-1] for e in edges] + [arcs[-1][0]]) if arcs else -1
    label = [str(v) for v in range(top + 1)]
    text = {e: " ".join([label[u] for u in e]) for e in edges}
    lines = [f"dihypergraph {h.vertex_count}"]
    lines.extend([f"arc {label[v]} : {text[e]}" for v, e in arcs])
    return "\n".join(lines) + "\n"


def load_dihypergraph(text: str) -> Dihypergraph:
    """Parse the dihypergraph dump format back into a value.

    Arcs loaded from text are not required to place the vertex inside its
    edge, unlike arcs built by cd_construct.  The header is exactly
    ``dihypergraph <n>`` and an arc line exactly ``arc <v> : <vertices>``.
    Canonical indices decode by one lookup, which also does the range
    check; any other token (+1, 01, -0, out of range or not a number)
    goes through int().  The lookup holds no more entries than the text
    has characters, so a large vertex count alone costs nothing.  Each
    distinct text after the colon is decoded once: an edge every token of
    which the lookup decodes is kept by its text, and a later arc line
    with the same text reuses it, with no split when its head is the
    canonical ``arc <v> ``.  A line whose vertex or edge the lookup
    misses decodes wholly through int(), so its message is the one it
    would have on its own.
    """
    lines = [ln.partition("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("dihypergraph "):
        raise ValueError("expected 'dihypergraph <n>' on the first line")
    try:
        _, count = lines[0].split()
        n = int(count)
    except ValueError:
        raise ValueError(f"bad vertex count in {lines[0]!r}") from None
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    labels = [str(u) for u in range(min(n, len(text)))]
    lookup = dict(zip(labels, range(n))).__getitem__
    heads = {f"arc {label} ": u for u, label in enumerate(labels)}
    decoded: dict[str, tuple[int, ...]] = {}
    arcs = set()
    for ln in lines[1:]:
        head, colon, tail = ln.partition(":")
        # a canonical head followed by a text decoded before is a good
        # line: the text passed every check when it was first decoded
        v = heads.get(head)
        if v is not None and tail in decoded:
            arcs.add((v, decoded[tail]))
            continue
        words = head.split()
        if not colon or ":" in tail or not head.startswith("arc ") or len(words) < 2:
            raise ValueError(f"expected 'arc <v> : <vertices>', got {ln!r}")
        if len(words) > 2:
            raise ValueError(f"bad arc line {ln!r}")
        try:
            v = lookup(words[1])
            edge = decoded.get(tail)
            if edge is None:
                edge = decoded[tail] = tuple(sorted(set(map(lookup, tail.split()))))
        except KeyError:
            try:
                v, *raw = map(int, [words[1], *tail.split()])
            except ValueError:
                raise ValueError(f"bad arc line {ln!r}") from None
            edge = tuple(sorted(set(raw)))
            bad = [u for u in (v, *edge) if not 0 <= u < n]
            if bad and edge:
                raise ValueError(f"vertex {bad[0]} out of range 0..{n - 1} in {ln!r}")
        if not edge:
            raise ValueError(f"empty edge in arc line {ln!r}")
        arcs.add((v, edge))
    return Dihypergraph(vertex_count=n, arcs=frozenset(arcs))
