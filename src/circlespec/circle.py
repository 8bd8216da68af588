"""Exact arithmetic on the circle group.

A point carries a rational rotation (reduced fraction in [0, 1), standing for
e^{2 pi i r}) together with a formal product of "generic" generators g_i with
integer exponents.  The generators are free abelian symbols: a point built
from fresh generators satisfies no multiplicative relation beyond those
forced by construction.  That freeness is the exact stand-in this library
uses for points drawn from a continuous measure, and it is what makes every
downstream counting argument a matter of integer bookkeeping instead of
floating point.

Products of distinct fresh generators factor uniquely: two exponent vectors
give the same point only when they are equal and the rational parts agree.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Mapping  # the abc's isinstance is cached; typing's is not
from fractions import Fraction

from circlespec.errors import Immutable, MeasureFormatError

ExponentPairs = Mapping[int, int] | Iterable[tuple[int, int]]

_GENERATOR_TOKEN = re.compile(r"^g(\d+)\^(-?\d+)$", re.ASCII)
_FRACTION_TOKEN = re.compile(r"^\d+(?:/\d+)?$", re.ASCII)
_ZERO = Fraction(0)  # built once for the points that pass it: sorts then compare it by identity
_FRACTION_RE = re.compile(r"^-?\d+(?:/\d+)?$", re.ASCII)


def parse_fraction(text) -> Fraction:
    """Parse a decimal-free fraction string like "1/4" or "-2" in ASCII digits
    (re.ASCII: a bare \\d matches digits of any script); a zero denominator is an error."""
    if not isinstance(text, str) or not _FRACTION_RE.match(text.strip()):
        raise MeasureFormatError(f"bad fraction {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise MeasureFormatError(f"zero denominator in fraction {text!r}") from None


class GeneratorAllocator:
    """Issues strictly increasing generator indices, never reused.

    One allocator per model run keeps "fresh" meaningful: a point minted via
    `fresh_point` shares no generator with anything allocated before it.
    """

    def __init__(self):
        self.next_index = 0

    def fresh(self) -> int:
        i = self.next_index
        self.next_index += 1
        return i

    def fresh_point(self) -> "CirclePoint":
        return CirclePoint.generator(self.fresh())


@functools.total_ordering
class CirclePoint(Immutable):
    """An element of the circle group: e^{2 pi i r} * prod_i g_i^{e_i}.

    `rational` is a Fraction reduced into [0, 1); `generic` is a sorted tuple
    of (generator index, non-zero exponent) pairs.  Instances are immutable
    and hashable, but no `Record`: `==`, hot wherever reports compare `entries`,
    is written out, and the hash is computed once.  The group operation is `*`;
    `**` raises to an integer power; `inverse()` inverts.  `sort_key()`,
    lexicographic on (rational, generic), defines the total order every
    canonical sort keys on; `__lt__` compares it and `total_ordering` derives the rest.
    """

    __slots__ = ("rational", "generic", "_hash")

    def __init__(self, rational=_ZERO, generic: ExponentPairs = ()):
        r = rational if rational is _ZERO else Fraction(rational) % 1
        pairs = generic.items() if isinstance(generic, Mapping) else generic
        acc: dict[int, int] = {}
        for i, e in pairs:
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise ValueError(f"generator index must be a non-negative int, got {i!r}")
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"exponent must be an int, got {e!r}")
            acc[i] = acc.get(i, 0) + e
        gen = tuple(sorted((i, e) for i, e in acc.items() if e != 0))
        object.__setattr__(self, "rational", r)
        object.__setattr__(self, "generic", gen)
        object.__setattr__(self, "_hash", hash((r, gen)))

    @classmethod
    def _canonical(cls, rational: Fraction, generic: tuple) -> "CirclePoint":
        """Trusted constructor: `rational` in [0, 1), `generic` canonical."""
        p = object.__new__(cls)
        object.__setattr__(p, "rational", rational)
        object.__setattr__(p, "generic", generic)
        object.__setattr__(p, "_hash", hash((rational, generic)))
        return p

    @classmethod
    def identity(cls) -> "CirclePoint":
        return cls()

    @classmethod
    def generator(cls, index: int, exponent: int = 1) -> "CirclePoint":
        if type(index) is int and index >= 0 and type(exponent) is int:  # bool is no int here
            return cls._canonical(_ZERO, ((index, exponent),) if exponent else ())
        return cls(_ZERO, ((index, exponent),))  # the constructor names the bad value

    @property
    def is_identity(self) -> bool:
        return self.is_rational and self.rational == 0

    @property
    def is_rational(self) -> bool:
        """True when the point has no generic part (a pure rational rotation)."""
        return not self.generic

    def __mul__(self, other: "CirclePoint") -> "CirclePoint":
        if not isinstance(other, CirclePoint):
            return NotImplemented
        # The constructor sums repeated indices, drops zero exponents and sorts.
        return CirclePoint(self.rational + other.rational, self.generic + other.generic)

    def inverse(self) -> "CirclePoint":
        return self ** -1

    def __pow__(self, k: int) -> "CirclePoint":
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"exponent must be an int, got {k!r}")
        # Scalar action agrees with the k-fold product because the group is abelian.
        return CirclePoint(self.rational * k, tuple((i, e * k) for i, e in self.generic))

    def sort_key(self):
        return (self.rational, self.generic)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CirclePoint):
            return NotImplemented
        return self.rational == other.rational and self.generic == other.generic

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "CirclePoint") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        factors = []
        if self.rational:
            factors.append(str(self.rational))
        factors.extend(f"g{i}^{e}" for i, e in self.generic)
        return " * ".join(factors) if factors else "1"

    def __repr__(self) -> str:
        return f"CirclePoint({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "CirclePoint":
        """Inverse of str(): accepts "1", "1/3", "g0^2", "1/3 * g0^2 * g5^-1".
        The rational factor is unsigned and read by `parse_fraction`."""
        rational = None
        generic: dict[int, int] = {}
        for token in text.split("*"):
            token = token.strip()
            m = _GENERATOR_TOKEN.match(token)
            if m:
                i, e = int(m.group(1)), int(m.group(2))
                if e == 0:
                    raise MeasureFormatError(f"zero exponent in point {text!r}")
                if i in generic:
                    raise MeasureFormatError(f"repeated generator g{i} in point {text!r}")
                generic[i] = e
            elif _FRACTION_TOKEN.match(token):
                if rational is not None:
                    raise MeasureFormatError(f"two rational factors in point {text!r}")
                rational = parse_fraction(token)  # "1" is the identity: 1 reduces to 0 mod 1
            else:
                raise MeasureFormatError(f"bad factor {token!r} in point {text!r}")
        return cls(rational or 0, generic)


class _PackedCodec:
    """Packs circle points into ints modulo `modulus` = L*M, so that multiplying
    up to n of them is one integer sum and one `%`.  r/L * prod_j g_j^e_j has key
    r*M + sum_j e_j*step_j: L is the lcm of the denominators, and step_j puts an
    odd u_j < 2^16, which spreads int hashes (2^(w*j) alone has 61 residues
    modulo 2^61 - 1), at balanced digit j in base 2^w > 2*n*max|e|.  A product
    of up to n points has its generic part inside (-M/2, M/2), M = 2^(w*g + 17)
    for g generators, below the rotation digit: equal products have equal keys,
    and a negated key is the inverse's key.  `sort_key` takes one step per
    nonzero digit; `ordered` sorts on integer keys and decodes each once.  Codecs are equal
    when they pack alike (same L, w and generators), whatever their decode cache holds: no `Record`."""

    __slots__ = ("L", "M", "modulus", "w", "gens", "step", "inverse", "digit", "fractions")

    def __init__(self, points: Iterable[CirclePoint], n: int):
        points = list(points)
        self.L = math.lcm(*(p.rational.denominator for p in points))
        self.gens = sorted({i for p in points for i, _ in p.generic})
        self.w = (2 * n * max((abs(e) for p in points for _, e in p.generic), default=1)).bit_length()
        self.M = 1 << (self.w * len(self.gens) + 17)
        self.modulus = self.L * self.M
        odd = [0x9E37 * (j + 1) % 2**16 | 1 for j in range(len(self.gens))]  # 0x9E37 = 2^16 / golden ratio
        self.step = [u << (self.w * j) for j, u in enumerate(odd)]
        self.inverse = [pow(u, -1, 1 << self.w) for u in odd]
        self.digit = dict(zip(self.gens, self.step))
        self.fractions: dict[int, Fraction] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, _PackedCodec):
            return NotImplemented
        return (self.L, self.w, self.gens) == (other.L, other.w, other.gens)

    def key(self, p: CirclePoint) -> int:
        scaled = p.rational.numerator * (self.L // p.rational.denominator)
        return (scaled * self.M + sum(e * self.digit[i] for i, e in p.generic)) % self.modulus

    def product(self, keys: Iterable[int]) -> int:
        """The key of the product of the points with these keys."""
        return sum(keys) % self.modulus

    def sort_key(self, key: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(numerator over L, generic pairs): sorts as `CirclePoint.sort_key` does."""
        rest = (key + (self.M >> 1)) % self.M - (self.M >> 1)  # the generic part, balanced
        r = (key - rest) // self.M % self.L
        w, half, pairs = self.w, 1 << (self.w - 1), []
        while rest:
            j = ((rest & -rest).bit_length() - 1) // w  # the lowest nonzero digit, as u_j is odd
            e = ((rest >> (w * j)) * self.inverse[j] + half) % (2 * half) - half
            rest -= e * self.step[j]
            pairs.append((self.gens[j], e))
        return r, tuple(pairs)

    def point(self, r: int, pairs: tuple[tuple[int, int], ...]) -> CirclePoint:
        """The point with sort key (r, pairs)."""
        if r not in self.fractions:
            self.fractions[r] = Fraction(r, self.L)
        return CirclePoint._canonical(self.fractions[r], pairs)

    def ordered(self, items: Iterable[tuple[int, object]]) -> list[tuple[CirclePoint, object]]:
        """(point, value) for each (key, value), in canonical point order.
        Distinct keys have distinct sort keys, so the sort never compares values."""
        keyed = sorted((self.sort_key(key), value) for key, value in items)
        return [(self.point(r, pairs), value) for (r, pairs), value in keyed]
