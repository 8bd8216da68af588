"""Finite atomic measures on the circle with exact rational weights.

A measure is a finite map from circle points to strictly positive weights.
Convolution multiplies atoms pairwise and adds weights, and translation is
convolution with a unit point mass; singularity is support disjointness,
which is the whole story for purely atomic measures.
`generic_measure` builds the model of "d points drawn from a continuous
measure": d fresh generators, equal weight, no multiplicative relations.
`relation_scan` only searches exponents +-1 on distinct atoms, summing
packed keys (negated for inverses) and decoding each rational sum as the
relation's constant, so it does not certify that absence.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from circlespec.circle import CirclePoint, GeneratorAllocator, _PackedCodec, parse_fraction
from circlespec.errors import Caps, MeasureFormatError, Record, admit, require_positive

WeightPairs = Mapping[CirclePoint, Fraction] | Iterable[tuple[CirclePoint, Fraction]]


class AtomicMeasure(Record):
    """Finite positive measure: CirclePoint -> positive rational weight.

    Atoms are kept in canonical point order.  Measures are not normalized.
    The empty measure is allowed (mass zero) so that `add` has a unit.
    Measures are equal when their atom dicts are; a dict is mutable, so no hash.
    """

    __slots__ = _fields = ("_atoms",)
    __hash__ = None

    def __init__(self, atoms: WeightPairs = ()):
        pairs = atoms.items() if isinstance(atoms, Mapping) else atoms
        acc: dict[CirclePoint, Fraction] = {}
        for p, w in pairs:
            if not isinstance(p, CirclePoint):
                raise ValueError(f"atom must be a CirclePoint, got {p!r}")
            w = w if type(w) is Fraction else Fraction(w)
            acc[p] = acc[p] + w if p in acc else w
        for p, w in acc.items():
            if w <= 0:
                raise ValueError(f"weight of atom {p} must be positive, got {w}")
        super().__init__(dict(sorted(acc.items(), key=lambda kv: kv[0].sort_key())))

    def items(self):
        """(point, weight) pairs in canonical point order."""
        return self._atoms.items()

    def support(self) -> tuple[CirclePoint, ...]:
        return tuple(self._atoms)

    def weight(self, point: CirclePoint) -> Fraction:
        return self._atoms.get(point, Fraction(0))

    def __len__(self) -> int:
        return len(self._atoms)

    def convolve(self, other: "AtomicMeasure") -> "AtomicMeasure":
        """Pushforward of the product measure under multiplication: every pair
        of atoms is multiplied, and the constructor adds equal products' weights."""
        return AtomicMeasure((p * q, w * v) for p, w in self.items() for q, v in other.items())

    def convolve_power(self, k: int) -> "AtomicMeasure":
        require_positive(**{"convolution power": k})
        return functools.reduce(AtomicMeasure.convolve, (self,) * k)

    def translate(self, a: CirclePoint) -> "AtomicMeasure":
        """Convolution with the unit point mass at a: atoms shift, weights survive."""
        return self.convolve(AtomicMeasure({a: 1}))

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        # The constructor adds the weights of shared atoms.
        return AtomicMeasure((*self.items(), *other.items()))

    def is_singular_to(self, other: "AtomicMeasure") -> bool:
        """Mutual singularity: the supports are disjoint."""
        return self._atoms.keys().isdisjoint(other._atoms.keys())


def generic_measure(d: int, allocator: GeneratorAllocator | None = None) -> AtomicMeasure:
    """d fresh atoms, weight 1/d each: the exact model of d points of a
    continuous measure, free of multiplicative relations."""
    require_positive(**{"atom count": d})
    allocator = allocator or GeneratorAllocator()
    w = Fraction(1, d)
    return AtomicMeasure(((allocator.fresh_point(), w) for _ in range(d)))


class Relation(Record):
    """A multiplicative relation among distinct atoms: prod atoms[i]^exponents[i]
    equals `constant`, a point with empty generic part."""

    __slots__ = _fields = ("atoms", "exponents", "constant")

    def to_json_obj(self):
        return {
            "atoms": [str(a) for a in self.atoms],
            "exponents": list(self.exponents),
            "constant": str(self.constant),
        }


def relation_scan(mu: AtomicMeasure, degree: int, tuple_cap: int = Caps.tuples) -> list[Relation]:
    """Search for relations prod z_i^{+-1} = rational constant among 1..degree
    distinct atoms, leading sign +1, each reported once.  Other exponents and
    repeated atoms are never tried, so [] does not certify genericity: for
    a = g0, b = g1, c = g0^2 g1^-1 the scan is [] at degrees 2 and 3, yet
    a*a = b*c and the symmetric square is not simple.

    Each signed product is one sum of packed keys, from one codec of power
    `degree` over the atoms; an inverse's key is the negated key.  A product
    is rational exactly when its generic digits, its key mod `codec.M`, are
    zero, and the relation's constant is then decoded from that key.
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise ValueError(f"scan degree must be an int >= 2, got {degree!r}")
    atoms = mu.support()
    d = len(atoms)
    total = sum(math.comb(d, L) * 2 ** (L - 1) for L in range(1, min(degree, d) + 1))
    admit(total, tuple_cap, "relation scan: {} sign tuples")
    codec = _PackedCodec(atoms, degree)
    keys = [(key, -key % codec.modulus) for key in map(codec.key, atoms)]  # exponent +1, -1
    found = []
    for L in range(1, min(degree, d) + 1):
        tails = list(itertools.product((1, -1), repeat=L - 1))
        for subset in itertools.combinations(range(d), L):
            head = keys[subset[0]][0]
            for tail, tail_keys in zip(tails, itertools.product(*(keys[i] for i in subset[1:]))):
                total = head + sum(tail_keys)
                if total % codec.M == 0:
                    constant = codec.point(*codec.sort_key(total % codec.modulus))
                    found.append(Relation(tuple(atoms[i] for i in subset), (1,) + tail, constant))
    return found


# -- JSON measure format ------------------------------------------------------
#
# {"atoms":[{"weight":"1/4","rational":"1/3","generic":{"0":1,"3":-2}},...]}
#
# Weights and rational parts are decimal-free fraction strings; generic maps
# generator index (ASCII digits) to a non-zero integer exponent.  Serialization
# is canonical: atoms in point order, generator keys in index order, compact
# separators.  parse -> serialize is byte-identical on canonical input.


def measure_to_json(mu: AtomicMeasure) -> str:
    atoms = [
        {"weight": str(w), "rational": str(p.rational), "generic": {str(i): e for i, e in p.generic}}
        for p, w in mu.items()
    ]
    return json.dumps({"atoms": atoms}, separators=(",", ":"))


def measure_from_json(text: str) -> AtomicMeasure:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MeasureFormatError(f"measure is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"atoms"} or not isinstance(obj["atoms"], list):
        raise MeasureFormatError('measure JSON must be {"atoms": [...]}')
    pairs = []
    for k, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or set(entry) != {"weight", "rational", "generic"}:
            raise MeasureFormatError(
                f"atom {k} must have exactly the keys weight/rational/generic"
            )
        weight = parse_fraction(entry["weight"])
        if weight <= 0:
            raise MeasureFormatError(f"atom {k} weight must be positive, got {weight}")
        rational = parse_fraction(entry["rational"])
        if not 0 <= rational < 1:
            raise MeasureFormatError(f"atom {k} rational part must lie in [0, 1), got {rational}")
        generic = entry["generic"]
        if not isinstance(generic, dict):
            raise MeasureFormatError(f"atom {k} generic part must be an object")
        exponents = []
        for key, e in generic.items():
            if not (isinstance(key, str) and key.isascii() and key.isdigit() and str(int(key)) == key):
                raise MeasureFormatError(f"atom {k} generator index {key!r} is not a canonical decimal")
            if not isinstance(e, int) or isinstance(e, bool) or e == 0:
                raise MeasureFormatError(f"atom {k} exponent {e!r} must be a non-zero integer")
            exponents.append((int(key), e))
        pairs.append((CirclePoint(rational, exponents), weight))
    try:
        return AtomicMeasure(pairs)
    except ValueError as exc:
        raise MeasureFormatError(str(exc)) from None
