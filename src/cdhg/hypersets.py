"""Identity-containing subset families and the translate-closure calculus.

A hyperset over a group is a set of subsets of element indices, each
containing the identity 0.  Members are kept as sorted tuples and the
member list itself is sorted, so equal hypersets compare equal.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from .groups import FiniteGroup, Permutation, _Value, _automorphism_search, inner_automorphisms

__all__ = [
    "CayleyHyperset",
    "validate_hyperset",
    "load_hyperset",
    "right_translate",
    "cayley_closure",
    "single_cayley_closure",
    "is_cayley_closed",
    "are_cayley_equivalent",
    "cayley_equivalence_classes",
    "non_cayley_equivalent_representatives",
    "aut_g_x",
    "inn_g_x",
]

Member = tuple[int, ...]


class CayleyHyperset(_Value):
    """A sorted family of identity-containing subsets of a group's indices,
    equal and hashed by both fields."""

    __slots__ = ("group_order", "members")
    _key = attrgetter("group_order", "members")

    def __init__(self, group_order: int, members: tuple[Member, ...]):
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[Member]:
        return frozenset(self.members)


def _canonical_member(g: FiniteGroup, member: Iterable[int]) -> Member:
    vals = sorted(set(member))
    if not vals:
        raise ValueError("empty member: each member must contain the identity 0")
    for v in (vals[0], vals[-1]):
        if v < 0 or v >= g.order:
            raise ValueError(f"member element {v} is out of range 0..{g.order - 1}")
    if vals[0] != 0:
        raise ValueError(f"member {tuple(vals)} does not contain the identity 0")
    return tuple(vals)


def validate_hyperset(g: FiniteGroup, raw: Iterable[Iterable[int]]) -> CayleyHyperset:
    """Normalize raw member collections into a canonical hyperset."""
    members = sorted({_canonical_member(g, m) for m in raw})
    return CayleyHyperset(group_order=g.order, members=tuple(members))


def load_hyperset(text: str, g: FiniteGroup) -> CayleyHyperset:
    """Parse the hyperset file format: one member per line, space-separated
    indices, ``#`` comments."""
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            raw.append([int(tok) for tok in body.split()])
        except ValueError:
            raise ValueError(f"line {lineno} has a non-integer entry: {body!r}") from None
    return validate_hyperset(g, raw)


def right_translate(g: FiniteGroup, member: Member, h: int) -> Member:
    """The translate member*h = {s*h : s in member}, sorted."""
    row_of = g.table
    return tuple(sorted(row_of[s][h] for s in member))


def _translate_class(g: FiniteGroup, member: Member) -> frozenset[Member]:
    """All translates member*s^-1 over s in member: the equivalence class."""
    return frozenset(right_translate(g, member, g.inverse[s]) for s in member)


def cayley_closure(g: FiniteGroup, x: CayleyHyperset) -> CayleyHyperset:
    """Union of every member's translate class.

    The closure always contains x, is itself closed, and closing again is
    a no-op.
    """
    out: set[Member] = set()
    for m in x.members:
        out.update(_translate_class(g, m))
    return CayleyHyperset(group_order=g.order, members=tuple(sorted(out)))


def single_cayley_closure(g: FiniteGroup, member: Iterable[int]) -> CayleyHyperset:
    """Closure of the one-member hyperset {member}."""
    m = _canonical_member(g, member)
    return CayleyHyperset(group_order=g.order, members=tuple(sorted(_translate_class(g, m))))


def is_cayley_closed(g: FiniteGroup, x: CayleyHyperset) -> bool:
    return cayley_closure(g, x) == x


def are_cayley_equivalent(g: FiniteGroup, a: Iterable[int], b: Iterable[int]) -> bool:
    """True when b = a*s^-1 for some s in a.

    The relation is symmetric and transitive on identity-containing
    subsets even though the definition reads one-sidedly.
    """
    ma = _canonical_member(g, a)
    mb = _canonical_member(g, b)
    return mb in _translate_class(g, ma)


def cayley_equivalence_classes(
    g: FiniteGroup, x: CayleyHyperset
) -> tuple[tuple[Member, ...], ...]:
    """Partition the members of x by Cayley equivalence.

    A member's translate class is its whole equivalence class, so each
    class of x is one member's translate class cut down to x.  Classes
    are sorted by their smallest member; members inside a class keep
    their sorted order.
    """
    members = x.member_set()
    return tuple(sorted({tuple(sorted(_translate_class(g, m) & members)) for m in x.members}))


def non_cayley_equivalent_representatives(g: FiniteGroup, x: CayleyHyperset) -> CayleyHyperset:
    """One representative per equivalence class: the lexicographically
    smallest member of each class."""
    reps = sorted(cls[0] for cls in cayley_equivalence_classes(g, x))
    return CayleyHyperset(group_order=g.order, members=tuple(reps))


def _member_image(aut: Permutation, member: Member) -> Member:
    return tuple(sorted(aut.images[s] for s in member))


def aut_g_x(g: FiniteGroup, x: CayleyHyperset) -> tuple[Permutation, ...]:
    """Group automorphisms that permute the members of x, as Permutations
    of element indices sorted by images.

    They come from the automorphism search itself, pruned by x: a base
    element maps only to elements of its order lying in members of the
    same sizes, and each member is checked as soon as the images chosen
    fix its image.  Refused by the order cap when more than
    AUT_ORDER_CAP automorphisms preserve x, before any is listed.
    """
    return _automorphism_search(g, x.members)


def inn_g_x(g: FiniteGroup, x: CayleyHyperset) -> tuple[Permutation, ...]:
    """Inner automorphisms that permute the members of x, sorted by
    images."""
    member_set = x.member_set()
    return tuple(
        a
        for a in inner_automorphisms(g)
        if all(_member_image(a, m) in member_set for m in x.members)
    )
