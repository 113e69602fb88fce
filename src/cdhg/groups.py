"""Finite groups as validated multiplication tables.

Elements are the indices 0..n-1 and the identity is always index 0.
table[i][j] is the product of element i by element j, in that order.
Every constructor funnels through full axiom validation, so a FiniteGroup
value in hand is always a genuine group.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "AUT_ORDER_CAP",
    "CutoffExceeded",
    "FiniteGroup",
    "Permutation",
    "make_cyclic",
    "make_dihedral",
    "direct_product",
    "load_group",
    "serialize_group",
    "subgroup_generated",
    "is_subgroup",
    "subgroup_index",
    "element_order",
    "group_automorphisms",
    "inner_automorphisms",
]

# The one automorphism cap.  _stabiliser_chain refuses a larger Aut(h)
# or Aut(G, X) by its order, before listing any element; the completion
# search behind Aut(h) and the isomorphism test refuses more vertex
# pairs than this (n <= 223), and more images tried in one search.  S8
# (40,320) is the largest Aut(h) in the census, and 1,143 images its
# worst search; Z2^5 has 9,999,360 automorphisms, 322,560 preserving
# {{0, 1}}.
AUT_ORDER_CAP = 50000


class CutoffExceeded(ValueError):
    """An exact computation was refused because the input is over desk scale."""


class _Value:
    """The value semantics of FiniteGroup, Permutation, CayleyHyperset,
    Dihypergraph and UndirectedHypergraph, written once.

    A subclass gives its __slots__, a written-out __init__ that stores
    each field by object.__setattr__, and _key, an operator.attrgetter
    of the fields that take part in equality.  Instances are immutable;
    == holds only between instances of one class with equal keys, and
    the hash is that of the key, a tuple; repr lists every public slot
    by keyword, in slot order.  A private slot, one whose name starts
    with an underscore, holds a cache derived from the fields and is
    left out of all three.  These are written out rather than made by
    dataclasses, which would load inspect and ast and build the methods
    by exec on every import.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__name__}({fields})"


class FiniteGroup(_Value):
    """A finite group given by its full multiplication table.

    Do not construct directly; use from_table or one of the factory
    functions so the axioms are checked.  The name is a display label
    and generators are what validation found; neither takes part in
    equality.
    """

    __slots__ = ("name", "order", "table", "inverse", "generators")
    _key = attrgetter("order", "table", "inverse")

    def __init__(
        self,
        name: str,
        order: int,
        table: tuple[tuple[int, ...], ...],
        inverse: tuple[int, ...],
        # the greedy generating set Light's test ran over: each element,
        # in index order, outside the subgroup the earlier ones generate
        generators: tuple[int, ...],
    ):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "order", order)
        put(self, "table", table)
        put(self, "inverse", inverse)
        put(self, "generators", generators)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    @staticmethod
    def from_table(name: str, table: Sequence[Sequence[int]]) -> "FiniteGroup":
        rows = tuple(tuple(row) for row in table)
        inverse, generators = _validate_table(rows)
        return FiniteGroup(
            name=name, order=len(rows), table=rows, inverse=inverse, generators=generators
        )


def _validate_table(
    table: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check the group axioms on a raw table; return the inverse map and
    the generators the associativity test ran over.

    Shape, identity and a right inverse for every element (a 0 in every
    row) are checked first, each in O(n^2).  Associativity is then proved
    by Light's test (Clifford & Preston, The Algebraic Theory of
    Semigroups, 1961) in O(n^2 log n).  Call a "good" when
    (x*a)*y == x*(a*y) for all x, y.  The identity is good, and if a and
    b are good so is a*b.  The loop takes each element in index order
    that the closure of 0 under right multiplication by the generators
    has not reached, checks that it is good, and adds it as a generator.
    Every element the closure reaches is a product of generators, so
    good; once it reaches the whole table, the table is associative.

    At most log2(n) generators are checked.  The reached set R is closed
    under products and all good, and right multiplication by an element
    with a right inverse is injective, so R is a subgroup; a generator a
    outside R adds the coset R*a, disjoint from R and as large, so R at
    least doubles.  Without the inverse check first, a monoid such as a
    null semigroup with an identity adjoined would need n-2 generators.

    An associative table with identity and right inverses is a group, so
    each right inverse is two-sided and is the one 0 in its row.

    Raises ValueError naming the violated axiom and the indices involved.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table: a group has at least the identity")
    # membership, not comparison, so an entry that is no integer fails here
    points = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        if not points.issuperset(row):
            j, v = next((j, v) for j, v in enumerate(row) if v not in points)
            raise ValueError(f"entry table[{i}][{j}] = {v} is out of range 0..{n - 1}")

    # identity must sit at index 0; if some other index acts as identity,
    # say so, since the fix is a renumbering rather than a different table
    identity = tuple(range(n))
    if table[0] != identity or tuple(map(itemgetter(0), table)) != identity:
        for e in range(1, n):
            if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
                raise ValueError(
                    f"identity is element {e}, not 0; renumber the elements so the identity has index 0"
                )
        raise ValueError("no identity element: index 0 is not a two-sided identity")

    try:
        inverse = tuple(row.index(0) for row in table)
    except ValueError:
        i = next(i for i, row in enumerate(table) if 0 not in row)
        raise ValueError(f"no inverse for element {i}") from None

    reached = [False] * n
    reached[0] = True
    closure = [0]
    gens: list[int] = []
    for a in range(1, n):
        if reached[a]:
            continue
        ta = table[a]
        # x*(a*y) for every y, read as one row lookup
        times_a = itemgetter(*ta)
        for x, tx in enumerate(table):
            row_xa = table[tx[a]]
            if times_a(tx) != row_xa:
                y = next(y for y in range(n) if row_xa[y] != tx[ta[y]])
                raise ValueError(
                    f"associativity fails at ({x},{a},{y}): "
                    f"({x}*{a})*{y} = {row_xa[y]} but {x}*({a}*{y}) = {tx[ta[y]]}"
                )
        gens.append(a)
        _grow_closure(table, gens, reached, closure)
    return inverse, tuple(gens)


def _grow_closure(
    table: Sequence[Sequence[int]], gens: Sequence[int], reached: list[bool], closure: list[int]
) -> None:
    """Grow closure, the elements reached from 0 so far, to the subgroup
    gens generate, marking each new element in reached."""
    for e in closure:
        te = table[e]
        for s in gens:
            f = te[s]
            if not reached[f]:
                reached[f] = True
                closure.append(f)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively: i*j = (i + j) mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(f"Z{n}", table)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on an n-gon.

    Element index f*n + r stands for the pair (rotation r, flip f), so
    indices 0..n-1 form the rotation subgroup and the identity is 0.
    """
    if n < 1:
        raise ValueError(f"dihedral parameter must be positive, got {n}")
    m = 2 * n

    def mul(i: int, j: int) -> int:
        r1, f1 = i % n, i // n
        r2, f2 = j % n, j // n
        r = (r1 + r2) % n if f1 == 0 else (r1 - r2) % n
        return (f1 ^ f2) * n + r

    table = [[mul(i, j) for j in range(m)] for i in range(m)]
    return FiniteGroup.from_table(f"D{n}", table)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs packed row-major: index = i_a * |b| + i_b."""
    nb = b.order
    n = a.order * nb
    table = [[0] * n for _ in range(n)]
    for ia in range(a.order):
        for ib in range(nb):
            left = ia * nb + ib
            row = table[left]
            ra = a.table[ia]
            rb = b.table[ib]
            for ja in range(a.order):
                base = ra[ja] * nb
                for jb in range(nb):
                    row[ja * nb + jb] = base + rb[jb]
    return FiniteGroup.from_table(f"{a.name}x{b.name}", table)


def _meaningful_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def load_group(text: str) -> FiniteGroup:
    """Parse the group file format.

    Layout: a ``group <name>`` line, an ``order <n>`` line, a ``table``
    line, then n rows of n space-separated indices.  ``#`` starts a
    comment.  The element numbering must put the identity at index 0.
    """
    lines = _meaningful_lines(text)
    if len(lines) < 3:
        raise ValueError("group file too short: expected group/order/table headers")
    if not lines[0].startswith("group "):
        raise ValueError(f"expected 'group <name>' on the first line, got {lines[0]!r}")
    # lines are stripped, so a line starting "group " has a name
    name = lines[0][len("group "):].strip()
    parts = lines[1].split()
    if len(parts) != 2 or parts[0] != "order":
        raise ValueError(f"expected 'order <n>' on the second line, got {lines[1]!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"order is not an integer: {parts[1]!r}") from None
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if lines[2] != "table":
        raise ValueError(f"expected 'table' on the third line, got {lines[2]!r}")
    body = lines[3:]
    if len(body) != n:
        raise ValueError(f"expected {n} table rows, got {len(body)}")
    # canonical spellings decode by one lookup; any other token (+1, 01,
    # -0, out of range or not a number) goes through int() and validation
    index = {str(v): v for v in range(n)}.__getitem__
    table = []
    for i, line in enumerate(body):
        tokens = line.split()
        try:
            row = tuple(map(index, tokens))
        except KeyError:
            try:
                row = [int(tok) for tok in tokens]
            except ValueError:
                raise ValueError(f"table row {i} has a non-integer entry: {line!r}") from None
        if len(row) != n:
            raise ValueError(f"table row {i} has {len(row)} entries, expected {n}")
        table.append(row)
    return FiniteGroup.from_table(name, table)


def serialize_group(g: FiniteGroup) -> str:
    """Inverse of load_group: emit the group file format."""
    lines = [f"group {g.name}", f"order {g.order}", "table"]
    lines.extend(" ".join(str(v) for v in row) for row in g.table)
    return "\n".join(lines) + "\n"


def subgroup_generated(g: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the seed, as a set of element indices:
    the closure of 0 under right multiplication by the seed, which in a
    finite group is closed under inverses too."""
    gens = list(seed)
    for s in gens:
        if not (0 <= s < g.order):
            raise ValueError(f"seed element {s} is out of range 0..{g.order - 1}")
    reached = [False] * g.order
    reached[0] = True
    closure = [0]
    _grow_closure(g.table, gens, reached, closure)
    return frozenset(closure)


def is_subgroup(g: FiniteGroup, s: Iterable[int]) -> bool:
    """True when s is nonempty, contains 0, and is closed under the table."""
    members = frozenset(s)
    if not members or 0 not in members:
        return False
    if any(not (0 <= a < g.order) for a in members):
        return False
    return all(g.table[a][b] in members for a in members for b in members)


def subgroup_index(g: FiniteGroup, s: Iterable[int]) -> int:
    """|G| / |s| for a verified subgroup s."""
    members = frozenset(s)
    if not is_subgroup(g, members):
        raise ValueError("not a subgroup of the given group")
    return g.order // len(members)


def element_order(g: FiniteGroup, a: int) -> int:
    k, cur = 1, a
    while cur != 0:
        cur = g.table[cur][a]
        k += 1
    return k


class Permutation(_Value):
    """A bijection of 0..degree-1, kept as its tuple of images: a vertex
    permutation, or a group automorphism of element indices, which is a
    vertex permutation of CD(G, X) (Theorem 2).  Composition is left to
    right: a.then(b) sends v to b(a(v))."""

    __slots__ = ("images",)
    # a getter of one name returns the bare value, so the key, whose
    # hash is the permutation's, is the 1-tuple built by hand
    _key = staticmethod(lambda p: (p.images,))

    def __init__(self, images: tuple[int, ...]):
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        o = other.images
        return Permutation(tuple(o[v] for v in self.images))


def _close_partial_map(
    g: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> Optional[list[Optional[int]]]:
    """Propagate gens->images over the generated subgroup.

    Returns the partial map (None entries outside the subgroup), or None on
    any conflict with the homomorphism equation or injectivity.
    """
    n = g.order
    table = g.table
    mapping: list[Optional[int]] = [None] * n
    mapping[0] = 0
    used = [False] * n
    used[0] = True
    queue = [0]
    while queue:
        e = queue.pop()
        me = mapping[e]
        for s, t in zip(gens, images):
            e2 = table[e][s]
            m2 = table[me][t]
            if mapping[e2] is None:
                if used[m2]:
                    return None
                mapping[e2] = m2
                used[m2] = True
                queue.append(e2)
            elif mapping[e2] != m2:
                return None
    return mapping


def _orbit(
    point: int, maps: Sequence[tuple[int, ...]], identity: tuple[int, ...]
) -> dict[int, tuple[int, ...]]:
    """Each point that products of maps carry point to, with the first
    such product found breadth first, as an image tuple; point itself
    gets the identity."""
    orbit = {point: identity}
    queue = [point]
    for p in queue:
        via = itemgetter(*orbit[p])
        for m in maps:
            q = m[p]
            if q not in orbit:
                # via(m) is orbit[p] then m, which sends point to q
                orbit[q] = via(m)
                queue.append(q)
    return orbit


def _products(
    group: Iterable[tuple[int, ...]], reps: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The image tuples of s then r for s in group and r in reps, made on
    demand, so a chain of these holds no level of a group in memory.
    reps holds more than the identity, so n >= 2 and itemgetter(*s)(r)
    is a tuple."""
    for s in group:
        yield from map(itemgetter(*s), reps)


def _chain_products(
    transversals: Sequence[tuple[tuple[int, ...], ...]], n: int
) -> Iterable[tuple[int, ...]]:
    """The image tuples of every product r_{m-1} then ... then r_0 with
    r_k in transversals[k], made on demand; levels holding only the
    identity add nothing."""
    group: Iterable[tuple[int, ...]] = [tuple(range(n))]
    for reps in reversed(transversals):
        if len(reps) > 1:
            group = _products(group, reps)
    return group


def _chain_of_elements(
    n: int, elements: Iterable[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The stabiliser chain over the base 0..n-1 of a group G on 0..n-1,
    read off image tuples of G's elements in O(|elements| n).

    Each element is put under its first moved point k, and the first one
    for each image of k is kept; T_k is the identity followed by the kept
    maps in order of image, as _stabiliser_chain lists them.  This is G's
    chain when, for every k, elements holds a map of G^(k) (fixing
    0..k-1) sending k to each point of k's orbit under G^(k)."""
    identity = tuple(range(n))
    levels: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
    for p in elements:
        for k, w in enumerate(p):
            if w != k:
                levels[k].setdefault(w, p)
                break
    return tuple(
        (identity, *map(level.get, sorted(level))) if level else (identity,) for level in levels
    )


def _chain_search(
    transversals: Sequence[tuple[tuple[int, ...], ...]],
    step: Callable[[int, tuple[int, ...], object], object],
    state: object,
) -> list[tuple[int, ...]]:
    """The image tuples of the products r_{m-1} then ... then r_0 with
    r_k in transversals[k] that every level's step lets through, found
    depth first from r_0 down.

    At level k the partial product x is r_k then ... then r_0, and the
    levels below fix 0..k, so x's images of 0..k are those of every
    product under it.  step(k, x, state) sees each partial product, at
    every level, and returns the state for level k+1, or None to cut
    every product under x.  Each T_k lists the identity first, so that
    r composes nothing."""
    out: list[tuple[int, ...]] = []
    last = len(transversals) - 1

    def descend(k: int, x: tuple[int, ...], state: object) -> None:
        for i, r in enumerate(transversals[k]):
            y = itemgetter(*r)(x) if i else x
            below = step(k, y, state)
            if below is None:
                continue
            if k == last:
                out.append(y)
            else:
                descend(k + 1, y, below)

    try:
        descend(0, transversals[0][0], state)
    finally:
        del descend  # it reaches itself by its own cell: empty it, or a cycle is left
    return out


def _stabiliser_chain(
    n: int,
    base: Sequence[int],
    first: Callable[[int, int], Optional[tuple[int, ...]]],
    candidates: Sequence[Iterable[int]],
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], tuple[tuple[int, ...], ...]]:
    """The transversals and the maps found of a permutation group G on
    0..n-1 whose only element fixing each of base = b_0, b_1, ... is the
    identity.  first(k, w) is the first map of G fixing b_0..b_(k-1) and
    sending b_k to w, as an image tuple, or None; it is asked only for
    the points of candidates[k], in order, which must hold every image of
    b_k under G^(k).  Refused as 'aut order over cap AUT_ORDER_CAP: at
    least N' before any element is listed, as soon as the levels built
    so far give more than the cap.

    G^(k) holds the maps of G fixing each of b_0..b_(k-1), and T_k holds
    one map of G^(k) per point of b_k's orbit under G^(k), the identity
    first.  The levels are built from the last down to k = 0 (Sims 1970,
    "Computational methods in the study of permutation groups"), and
    found holds every map first has returned so far.  Each answer is
    checked to fix what it was asked to, so a map found at level k'
    fixes b_0..b_(k'-1), and at level k <= k' it lies in G^(k).  At
    level k:

    - a point in b_k's orbit under <found> is an image of b_k, and
      b_0..b_(k-1), which G^(k) fixes, are none, nor is a point outside
      candidates[k]; none of these is searched;
    - for any other w, first(k, w) either yields a map of G^(k) sending
      b_k to w, which joins found, or fails: then w is no image of b_k,
      and nor is any point of w's orbit under <found>, since a
      G^(k)-orbit is a union of <found>-orbits, so those are skipped.

    So when the level ends, b_k's orbit under <found> is its whole orbit
    under G^(k), and T_k lists one product of found per point of it.
    Every such product fixes b_0..b_(k-1) and sends b_k to its own
    point, so the products r_{m-1} then ... then r_0 with r_k in T_k
    are distinct and |G| = prod |T_k|, with nothing listed.  found
    generates G: an element g of G^(k) is s then r, with r in T_k
    sending b_k where g does and s = g then r^-1 in G^(k+1), so by
    induction from G^(m) = 1, G^(k) is generated by the maps found at
    levels k and above.

    The levels built so far, from the last down to k, give
    |G^(k)| <= |G|, a bound that only grows and ends at |G|; testing it
    after each level refuses exactly the groups over the cap, without
    building the levels below.
    """
    identity = tuple(range(n))
    found: list[tuple[int, ...]] = []
    transversals = []
    order = 1
    for k in reversed(range(len(base))):
        b, fixed = base[k], base[:k]
        orbit = _orbit(b, found, identity)
        dead = set(fixed)
        for w in candidates[k]:
            if w in orbit or w in dead:
                continue
            m = first(k, w)
            if m is None:
                dead.update(_orbit(w, found, identity))
                continue
            if m[b] != w or any(m[p] != p for p in fixed):
                raise RuntimeError(
                    f"stabiliser chain level {k} does not give distinct products: the map "
                    f"found for {b} -> {w} must fix the base points before {b} and send {b} to {w}"
                )
            found.append(m)
            orbit = _orbit(b, found, identity)
        transversals.append((identity, *(orbit[v] for v in sorted(orbit) if v != b)))
        order *= len(orbit)
        if order > AUT_ORDER_CAP:
            raise CutoffExceeded(f"aut order over cap {AUT_ORDER_CAP}: at least {order}")
    transversals.reverse()
    return tuple(transversals), tuple(found)


def _automorphism_search(
    g: FiniteGroup, members: Sequence[tuple[int, ...]]
) -> tuple[Permutation, ...]:
    """The automorphisms of g that map every member to a member, as
    Permutations of element indices sorted by images: all of Aut(g)
    when members is empty, built and refused by _stabiliser_chain over
    a base b_0, b_1, ... that generates g.

    The base is greedy: the elements of the members in index order,
    then the others, each joining when the subgroup H_(k-1) of the
    earlier ones does not hold it.  With no members it is the generators
    validation found.  The chain asks first(k, w) only for the w with
    b_k's label, its candidates, and first sends b_i to itself for i < k
    and b_k to w, then the later base points depth first over their
    candidates.  Level j closes b_0..b_j -> t_0..t_j by
    _close_partial_map over H_j, then checks each member that lies in
    H_j and not in H_(j-1): its image must be a member.  The last
    level's H is g, so the first closure there that passes is an
    automorphism that has passed every member's check.

    The pruning is exact.  Let sigma be an automorphism that permutes
    the members (an injective map of the finite member set into itself
    is onto).  An element's label, its order and the sorted sizes of
    the members holding it, is sigma-invariant: sigma keeps orders, and
    carries the members holding s one to one onto the members holding
    sigma(s), keeping their sizes.  So sigma(b_j) has b_j's label and
    is among the candidates.  A homomorphism on H_j is fixed by its
    values on b_0..b_j, so the closure is sigma on H_j, and a member
    inside H_j has the image under sigma that the check reads.  Every
    branch that is cut therefore holds no such sigma.
    """
    n = g.order
    table = g.table
    sizes: list[list[int]] = [[] for _ in range(n)]
    for m in members:
        for s in m:
            sizes[s].append(len(m))
    labels = [(element_order(g, a), tuple(sorted(sizes[a]))) for a in range(n)]
    # greedy base as in _validate_table, over the members' elements and
    # then the others; checks[k] holds the members that first lie inside
    # H_k.  The member (0,) maps to itself.
    reached = [False] * n
    reached[0] = True
    closure = [0]
    base: list[int] = []
    checks: list[list[tuple[int, ...]]] = []
    pending = [m for m in members if len(m) > 1]
    for a in sorted(range(1, n), key=lambda e: not sizes[e]):
        if reached[a]:
            continue
        base.append(a)
        _grow_closure(table, base, reached, closure)
        inside = [m for m in pending if all(reached[s] for s in m)]
        checks.append(inside)
        pending = [m for m in pending if m not in inside]
    candidates = [[t for t in range(n) if labels[t] == labels[s]] for s in base]
    member_set = frozenset(members)

    def extend(j: int, images: list[int]) -> Optional[tuple[int, ...]]:
        mapping = _close_partial_map(g, base[: j + 1], images)
        if mapping is None or not all(
            tuple(sorted(mapping[s] for s in m)) in member_set for m in checks[j]
        ):
            return None
        if j + 1 == len(base):
            return tuple(mapping)
        return next(filter(None, (extend(j + 1, [*images, t]) for t in candidates[j + 1])), None)

    try:
        transversals, _ = _stabiliser_chain(n, base, lambda k, w: extend(k, [*base[:k], w]), candidates)
    finally:
        del extend  # as in _chain_search, also when the chain is refused
    return tuple(map(Permutation, sorted(_chain_products(transversals, n))))


def group_automorphisms(g: FiniteGroup) -> tuple[Permutation, ...]:
    """All automorphisms of g, exact, sorted by images: the search of
    _automorphism_search with no members to preserve."""
    return _automorphism_search(g, ())


def inner_automorphisms(g: FiniteGroup) -> tuple[Permutation, ...]:
    """The conjugation maps x -> h^-1 x h, one per coset of the center,
    sorted by images."""
    table = g.table
    seen = set()
    for h in range(g.order):
        hi = g.inverse[h]
        m = tuple(table[table[hi][x]][h] for x in range(g.order))
        seen.add(m)
    return tuple(map(Permutation, sorted(seen)))
