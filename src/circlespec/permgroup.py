"""Small permutation groups, fully enumerated.

Everything downstream counts orbits of a subgroup G <= S(n) acting on
n-tuples, so groups are kept as explicit element sets of image tuples: the
orbit route reads their cycle types, the rank route only the generators,
which stay validated `Perm`s built from cycles (a transposition is a
2-cycle).  Through `errors.admit`, `closure` admits degrees up to
`errors.DEFAULT_DEGREE_CAP` = 8, so S(8), 40320 elements, closes in a
fraction of a second.
`orbit_count_free` computes the orbit count on enumerating tuples twice, by
the index formula n!/#G and by direct enumeration, and refuses to return if
the two disagree: the action there is free, so every orbit has exactly #G
elements, and a mismatch means the engine is broken.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from circlespec.errors import DEFAULT_DEGREE_CAP, Caps, Immutable, Record, admit


class Perm(Record):
    """A permutation of {0..n-1} stored as its image tuple."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if any(not isinstance(i, int) or isinstance(i, bool) for i in images):
            raise ValueError(f"permutation images must be ints, got {images!r}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        super().__init__(images)

    @classmethod
    def from_cycle(cls, n: int, cycle: Sequence[int]) -> "Perm":
        images = list(range(n))
        for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
            images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        # (self * other)(i) = self(other(i))
        return Perm(self.images[j] for j in other.images)

    def serialize(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def closure(n: int, generators: Iterable[Perm]) -> tuple[tuple[int, ...], ...]:
    """Breadth-first closure of the generators inside S(n): its sorted image tuples.

    The search runs on the image tuples themselves: p * g is
    `itemgetter(*g.images)(p)`, which is a tuple for every generator other
    than the identity, and the identity adds nothing to the closure, so it is
    skipped (for n < 2 it is the only permutation)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    admit(n, DEFAULT_DEGREE_CAP, "{} permuted points")
    gens = list(generators)
    for g in gens:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} does not match {n}")
    identity = tuple(range(n))
    getters = [operator.itemgetter(*g.images) for g in gens if g.images != identity]
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for get in getters:
                q = get(p)
                if q not in els:
                    els.add(q)
                    new.append(q)
        frontier = new
    return tuple(sorted(els))


class PermSubgroup(Immutable):
    """A subgroup of S(degree) held as its generators, `Perm`s, plus its full element
    set, the image tuples of `closure`; nothing compares subgroups, so it is no `Record`."""

    __slots__ = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators: Iterable[Perm]):
        generators = tuple(generators)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "elements", closure(degree, generators))

    @classmethod
    def trivial(cls, n: int) -> "PermSubgroup":
        return cls(n, ())

    @classmethod
    def symmetric(cls, n: int) -> "PermSubgroup":
        """S(n), the block group of one block: (0 1), and the n-cycle for n >= 3."""
        if n < 1:
            return cls.trivial(n)
        return contiguous_block_group(n, 1)

    @classmethod
    def cyclic(cls, n: int) -> "PermSubgroup":
        admit(n, DEFAULT_DEGREE_CAP, "{} permuted points")  # first: the n-cycle takes n images
        if n < 2:
            return cls.trivial(n)
        return cls(n, [Perm.from_cycle(n, list(range(n)))])

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "generators": [g.serialize() for g in self.generators],
        }

    def __repr__(self) -> str:
        return f"PermSubgroup(degree={self.degree}, order={self.order})"


def orbit_count_free(G: PermSubgroup, tuple_cap: int = Caps.tuples) -> int:
    """Orbit count of G on tuples enumerating {0..n-1}, computed two ways.

    G acts freely there (a permutation fixing an enumerating tuple fixes
    every value), so the count is n!/#G; the direct enumeration must agree
    exactly or the engine has a defect worth crashing over.
    """
    n = G.degree
    n_fact = math.factorial(n)
    admit(n_fact * G.order, tuple_cap, "orbit enumeration: {} steps")
    if n_fact % G.order:
        raise RuntimeError(f"Lagrange violation: {G.order} does not divide {n}!")
    formula = n_fact // G.order
    seen: set[tuple[int, ...]] = set()
    enumerated = 0
    for t in itertools.permutations(range(n)):
        if t in seen:
            continue
        orbit = {tuple(imgs[v] for v in t) for imgs in G.elements}
        if len(orbit) != G.order:
            raise RuntimeError(f"action not free on {t}: orbit size {len(orbit)} != {G.order}")
        seen |= orbit
        enumerated += 1
    if enumerated != formula:
        raise RuntimeError(
            f"orbit count mismatch: formula {formula}, enumeration {enumerated}"
        )
    return enumerated


def contiguous_block_group(block_size: int, blocks: int) -> PermSubgroup:
    """Permutations acting within each of `blocks` contiguous runs of
    `block_size` positions: order (block_size!)^blocks.

    Positions encode pairs (i, j), i in [block_size], j in [blocks],
    column-major: position = i + block_size * j, so block j is the run
    [block_size*j, block_size*(j+1)).
    """
    if block_size < 1 or blocks < 1:
        raise ValueError("block_size and blocks must be >= 1")
    degree = block_size * blocks
    admit(degree, DEFAULT_DEGREE_CAP, "{} permuted points")
    gens = []
    for j in range(blocks):
        block = list(range(block_size * j, block_size * (j + 1)))
        if block_size >= 2:
            gens.append(Perm.from_cycle(degree, block[:2]))
        if block_size >= 3:
            gens.append(Perm.from_cycle(degree, block))
    G = PermSubgroup(degree, gens)
    expected = math.factorial(block_size) ** blocks
    if G.order != expected:
        raise RuntimeError(f"blockwise closure gave order {G.order}, expected {expected}")
    return G


def wreath_block_group(block_size: int, blocks: int) -> PermSubgroup:
    """Within-block permutations plus whole-block swaps: order
    (block_size!)^blocks * blocks!.  `contiguous_block_group` checks the
    arguments.  Blocks j and j + 1 swap by one slice assignment."""
    gens = list(contiguous_block_group(block_size, blocks).generators)
    degree = block_size * blocks
    for j in range(blocks - 1):
        images = list(range(degree))
        lo, mid, hi = block_size * j, block_size * (j + 1), block_size * (j + 2)
        images[lo:hi] = images[mid:hi] + images[lo:mid]
        gens.append(Perm(images))
    G = PermSubgroup(degree, gens)
    expected = math.factorial(block_size) ** blocks * math.factorial(blocks)
    if G.order != expected:
        raise RuntimeError(f"wreath closure gave order {G.order}, expected {expected}")
    return G

