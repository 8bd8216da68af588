"""Finite couplings, Markov operators, and the projection identities.

A coupling of two finite probability spaces is a joint matrix with the two
spaces as exact marginals.  It corresponds one-to-one with a Markov operator
from functions on the left space to functions on the right: divide the
joint column of a target point by that point's probability.  Both directions
of the correspondence are exact and round-trip to the byte.

The module's centerpiece is an executable identity: composing a Markov
operator into a product space with the conditional expectation onto a
sub-product equals the operator of the relatively independent extension of
the restricted coupling.  `project_markov` computes both sides separately
and refuses to return if they differ.  The conditional expectation is a
Kronecker product of per-component factors, so the direct side applies it
axis by axis to integer numerators ((A⊗B)·vec X = vec(B·X·Aᵀ)), reading no
coupling; `inclusion_exclusion_identity` compares integer-scaled matrices.
The empty selection takes no case of its own: its sub-product is the product
of no spaces, the one-point space.

Every check and derivation runs on integer numerators: the constructors of
`FiniteSpace`, `Coupling` and `MarkovOp` validate every entry and both
marginals, signs from numerators, each row and column scaled once by
`_integer_row` (the module's one lcm) and cross-multiplied with its target;
the derivations build each stored `Fraction` once, and `project_markov`
cross-multiplies its two sides.  Couplings that exact maps derive from valid
objects skip validation through the trusted `Coupling._canonical`: the
results of `coupling_from_markov`, `marginal_coupling` and `rel_indep_extension`.
`markov_from_coupling` still validates: it builds the operator that
`project_markov` returns from its extension route and the operator side of
every round trip, so each identity validates one output of its own.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Iterable, Sequence

from circlespec import linalg
from circlespec.errors import Caps, Immutable, admit


def _fractions(values: Iterable) -> tuple[Fraction, ...]:
    """`values` as Fractions; anything not already one goes through `Fraction()`."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators w and common denominator D with values == w / D."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _check_sums(lines, weights, targets, error: str) -> None:
    """Raise ValueError(error.format(i, exact total, target)) at the first line i
    that, weighted by `weights`, does not sum to its target."""
    w, w_den = _integer_row(weights)
    for i, (line, target) in enumerate(zip(lines, targets)):
        nums, den = _integer_row(line)
        total, den = sum(map(operator.mul, w, nums)), den * w_den
        if total * target.denominator != target.numerator * den:
            raise ValueError(error.format(i, Fraction(total, den), target))


class FiniteSpace(Immutable):
    """A finite probability space: point labels plus strictly positive
    rational probabilities summing to one."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels: Iterable[str], probs: Iterable[Fraction]):
        labels = tuple(labels)
        probs = _fractions(probs)
        if len(labels) != len(probs):
            raise ValueError(f"{len(labels)} labels vs {len(probs)} probabilities")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if any(p.numerator <= 0 for p in probs):
            raise ValueError("probabilities must be strictly positive")
        _check_sums([probs], [1] * len(probs), [1], "probabilities sum to {1}, not 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self is other or (self.labels == other.labels and self.probs == other.probs)

    def __hash__(self):
        return hash((self.labels, self.probs))

    def __repr__(self) -> str:
        return f"FiniteSpace({list(self.labels)})"


def product_space(components: Sequence[FiniteSpace]) -> FiniteSpace:
    """Product probability space; points are label tuples joined with commas,
    ordered with the last component varying fastest.  The product of no
    spaces is the one-point space with label "" and probability 1."""
    labels = []
    probs = []
    for combo in itertools.product(*(range(c.size) for c in components)):
        picked = [c.probs[i] for c, i in zip(components, combo)]
        labels.append(",".join(c.labels[i] for c, i in zip(components, combo)))
        probs.append(Fraction(math.prod(p.numerator for p in picked), math.prod(p.denominator for p in picked)))
    return FiniteSpace(labels, probs)


class Coupling(Immutable):
    """A joint distribution on left x right with the two spaces as exact
    marginals.  joint[i][j] is the mass on (left point i, right point j).

    The constructor validates; `_canonical` trusts, and serves only the
    couplings this module derives from valid ones (see the module notes)."""

    __slots__ = ("left", "right", "joint")

    def __init__(self, left: FiniteSpace, right: FiniteSpace, joint: Sequence[Sequence[Fraction]]):
        joint = tuple(map(_fractions, joint))
        if len(joint) != left.size or any(len(row) != right.size for row in joint):
            raise ValueError(f"joint must be {left.size}x{right.size}")
        if any(x.numerator < 0 for row in joint for x in row):
            raise ValueError("joint entries must be non-negative")
        _check_sums(joint, [1] * right.size, left.probs, "row {} sums to {}, expected left marginal {}")
        _check_sums(zip(*joint), [1] * left.size, right.probs, "column {} sums to {}, expected right marginal {}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "joint", joint)

    @classmethod
    def _canonical(cls, left: FiniteSpace, right: FiniteSpace, joint: tuple) -> "Coupling":
        """Trusted constructor: `joint` rows are tuples of non-negative
        Fractions with `left` and `right` as exact marginals."""
        c = object.__new__(cls)
        object.__setattr__(c, "left", left)
        object.__setattr__(c, "right", right)
        object.__setattr__(c, "joint", joint)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coupling):
            return NotImplemented
        return self.left == other.left and self.right == other.right and self.joint == other.joint

    def __repr__(self) -> str:
        return f"Coupling({self.left.size}x{self.right.size})"


class MarkovOp(Immutable):
    """A measure-preserving Markov operator from functions on `source` to
    functions on `target`; matrix[t][s] is indexed target x source.

    Two stochastic constraints, both induced by the coupling correspondence:
    rows sum to one (constants are preserved) and target-weighted columns
    reproduce the source probabilities (the measure is preserved): column s
    pushes Σ_t w_t·m_ts, target probabilities w and column m scaled once."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, matrix: Sequence[Sequence[Fraction]]):
        matrix = tuple(map(_fractions, matrix))
        if len(matrix) != target.size or any(len(row) != source.size for row in matrix):
            raise ValueError(f"matrix must be {target.size}x{source.size}")
        if any(x.numerator < 0 for row in matrix for x in row):
            raise ValueError("matrix entries must be non-negative")
        _check_sums(matrix, [1] * source.size, itertools.repeat(1), "row {} sums to {}, not 1")
        _check_sums(zip(*matrix), target.probs, source.probs, "column {} pushes mass {}, expected {}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def mean(cls, source: FiniteSpace, target: FiniteSpace) -> "MarkovOp":
        """The rank-one operator sending every function to its mean."""
        return cls(source, target, [list(source.probs)] * target.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkovOp):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"MarkovOp({self.target.size}x{self.source.size})"


def markov_from_coupling(c: Coupling) -> MarkovOp:
    """Divide the joint column of each target point by its probability."""
    matrix = [[Fraction(x.numerator * p.denominator, x.denominator * p.numerator) for x in col]
              for p, col in zip(c.right.probs, zip(*c.joint))]
    return MarkovOp(c.left, c.right, matrix)


def coupling_from_markov(phi: MarkovOp) -> Coupling:
    """Exact inverse of markov_from_coupling."""
    joint = tuple(tuple(Fraction(m.numerator * p.numerator, m.denominator * p.denominator)
                        for p, m in zip(phi.target.probs, col)) for col in zip(*phi.matrix))
    return Coupling._canonical(phi.source, phi.target, joint)


@dataclass(frozen=True)
class FactorStructure:
    """A product of component spaces with a chosen sub-product: the selected
    component indices, strictly increasing.  The empty selection is the
    trivial factor: its sub-product is the product of no spaces, one point.
    `columns` gives each full point, in product order, its sub-product index
    and the product of its unselected coordinate probabilities."""

    components: tuple[FiniteSpace, ...]
    selected: tuple[int, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("factor structure needs at least one component")
        if list(self.selected) != sorted(set(self.selected)):
            raise ValueError("selected indices must be strictly increasing")
        if any(not 0 <= i < len(self.components) for i in self.selected):
            raise ValueError("selected index out of range")

    @cached_property
    def full_space(self) -> FiniteSpace:
        return product_space(self.components)

    @cached_property
    def sub_space(self) -> FiniteSpace:
        return product_space([self.components[i] for i in self.selected])

    @cached_property
    def columns(self) -> tuple[tuple[int, Fraction], ...]:
        """Built per component, the last varying fastest: a selected one adds
        a mixed-radix digit to the index, an unselected one a weight factor."""
        sub, weight = [0], [Fraction(1)]
        for i, c in enumerate(self.components):
            if i in self.selected:
                sub = [s * c.size + k for s in sub for k in range(c.size)]
                weight = [w for w in weight for _ in range(c.size)]
            else:
                sub = [s for s in sub for _ in range(c.size)]
                weight = [Fraction(w.numerator * p.numerator, w.denominator * p.denominator)
                          for w in weight for p in c.probs]
        return tuple(zip(sub, weight))


def marginal_coupling(lam: Coupling, factor: FactorStructure) -> Coupling:
    """Restrict a coupling of X with the full product to the sub-product of
    the selected components, summing out each row's integer numerators."""
    if lam.right != factor.full_space:
        raise ValueError("coupling right space is not the factor's full product")
    sub = factor.sub_space
    joint = []
    for row in lam.joint:
        nums, den = _integer_row(row)
        sums = [0] * sub.size
        for n, (s, _) in zip(nums, factor.columns):
            sums[s] += n
        joint.append(tuple(Fraction(n, den) for n in sums))
    return Coupling._canonical(lam.left, sub, tuple(joint))


def rel_indep_extension(lam: Coupling, factor: FactorStructure) -> Coupling:
    """Extend a coupling of X with the selected sub-product to the full
    product, making the unselected components independent given the rest:
    the extension's mass at (x, y) is the restricted mass at (x, y_selected)
    times the product of the unselected coordinate probabilities."""
    if lam.right != factor.sub_space:
        raise ValueError("coupling right space is not the selected sub-product")
    joint = tuple(tuple(Fraction(row[s].numerator * w.numerator, row[s].denominator * w.denominator)
                        for s, w in factor.columns) for row in lam.joint)
    return Coupling._canonical(lam.left, factor.full_space, joint)


def conditional_expectation_matrix(factor: FactorStructure) -> list[list[Fraction]]:
    """Matrix on functions over the full product averaging out the unselected
    coordinates: (Ef)(y) depends only on the selected part of y.  The dense
    definition; `project_markov` applies E factored instead."""
    columns = factor.columns
    return [[extra if s == r else Fraction(0) for s, extra in columns] for r, _ in columns]


def _factored_expectation(phi: MarkovOp, factor: FactorStructure) -> tuple[list[tuple[int, ...]], int]:
    """E·phi for E = ⊗_i F_i (F_i = I if i is selected, else 1·p_iᵀ) without
    forming E, as integer rows over one denominator D: on phi's columns, scaled
    once, each line along an unselected axis i (stride prod_{j>i} d_j) becomes
    its sum weighted by w_i = D_i·p_i, and D is multiplied by D_i."""
    stride = len(phi.matrix)
    flat, den = _integer_row([x for col in zip(*phi.matrix) for x in col])
    cols = [flat[start:start + stride] for start in range(0, len(flat), stride)]
    for i, space in enumerate(factor.components):
        block, stride = stride, stride // space.size
        if i in factor.selected:
            continue
        weights, axis_den = _integer_row(space.probs)
        den *= axis_den
        for v in cols:
            for start in range(0, len(v), block):
                for first in range(start, start + stride):
                    line = range(first, first + block, stride)
                    total = sum(w * v[j] for w, j in zip(weights, line))
                    for j in line:
                        v[j] = total
    return list(zip(*cols)), den


def project_markov(phi: MarkovOp, factor: FactorStructure) -> MarkovOp:
    """Compose phi (into the full product) with conditional expectation onto
    the selected components, and verify, by exact computation, that the
    result is the Markov operator of the relatively independent extension of
    the restricted coupling.  The identity failing raises: it is the point.
    The direct side (`_factored_expectation`, equal to the dense product
    `conditional_expectation_matrix(factor) · phi`) reads only phi and the
    component probabilities; only the extension side goes through couplings."""
    if phi.target != factor.full_space:
        raise ValueError("operator target is not the factor's full product")
    direct, den = _factored_expectation(phi, factor)

    lam = coupling_from_markov(phi)  # its right space, checked equal, becomes the factor's own
    restricted = marginal_coupling(Coupling._canonical(lam.left, factor.full_space, lam.joint), factor)
    via_extension = markov_from_coupling(rel_indep_extension(restricted, factor))
    ext, ext_den = _integer_row([x for row in via_extension.matrix for x in row])
    direct_scaled = [n * ext_den for row in direct for n in row]
    if len(via_extension.matrix) != len(direct) or direct_scaled != [e * den for e in ext]:
        raise RuntimeError(
            "projection identity failed: conditional expectation of the operator "
            "differs from the relatively-independent-extension operator"
        )
    return via_extension  # equal to the direct side, and already validated


def _checked_dims(dims: Sequence[int]) -> list[int]:
    dims = list(dims)
    if not dims or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in dims):
        raise ValueError("dims must be a non-empty list of ints >= 1")
    return dims


def dimension_identity(dims: Sequence[int]) -> dict:
    """prod d_i - 1 = sum over non-empty S of prod_{i in S} (d_i - 1),
    the count of dimensions removed by subtracting the constants from a
    product, computed exactly on both sides."""
    dims = _checked_dims(dims)
    n = len(dims)
    lhs = math.prod(dims) - 1
    rhs = sum(
        math.prod(dims[i] - 1 for i in S)
        for k in range(1, n + 1)
        for S in itertools.combinations(range(n), k)
    )
    return {
        "dims": dims,
        "dimension_lhs": lhs,
        "dimension_rhs": rhs,
        "dimension_identity": lhs == rhs,
    }


def inclusion_exclusion_identity(
    dims: Sequence[int],
    probs: Sequence[Sequence[Fraction]] | None = None,
    matrix_cap: int = Caps.matrix,
) -> dict:
    """Check, entry by entry, that the projection onto functions depending on
    all coordinates complements the sub-product projections with alternating
    signs, and check the dimension count it forces.

    With q_i the mean projection on component i and p_T the projection onto
    functions of the coordinates in T (p_empty = projection onto constants):

        Id - tensor_i (Id - q_i) = sum_{k=0}^{n-1} (-1)^(n-k-1) sum_{|T|=k} p_T

    and on dimensions:  prod d_i - 1 = sum over non-empty S of prod_{i in S} (d_i - 1).

    The matrices are compared on integers, each factor scaled by the common
    denominator D_i of p_i (D_i·Id; rows w_i = D_i·p_i for q_i).  The cap
    charges the (2^n - 1)·n·total² entries that the Kronecker steps of the
    2^n - 1 terms write against 256·matrix_cap (about 10^6 by default).
    """
    dims = _checked_dims(dims)
    n = len(dims)
    total = math.prod(dims)
    entries = (2**n - 1) * n * total**2
    admit(entries, 256 * matrix_cap, f"{entries} dense entries")
    if probs is None:
        probs = [[Fraction(1, d)] * d for d in dims]
    probs = list(map(_fractions, probs))
    if len(probs) != n or any(len(row) != d for row, d in zip(probs, dims)):
        raise ValueError("probs shape does not match dims")
    weights, scales = zip(*map(_integer_row, probs))
    if any(min(w) <= 0 or sum(w) != den for w, den in zip(weights, scales)):
        raise ValueError("each probability row must be positive and sum to 1")

    def scaled_identity(size, c):
        return [[c if r == s else 0 for s in range(size)] for r in range(size)]

    eyes = [scaled_identity(d, c) for d, c in zip(dims, scales)]  # D_i·Id
    means = [[w] * d for w, d in zip(weights, dims)]  # D_i·q_i
    lhs = linalg.mat_sub(
        scaled_identity(total, math.prod(scales)),
        reduce(linalg.kron, [linalg.mat_sub(e, m) for e, m in zip(eyes, means)]),
    )
    rhs = scaled_identity(total, 0)
    for k in range(n):
        accumulate = linalg.mat_add if (n - k) % 2 else linalg.mat_sub  # sign (-1)^(n-k-1)
        for T in itertools.combinations(range(n), k):
            term = reduce(linalg.kron, [eyes[i] if i in T else means[i] for i in range(n)])
            rhs = accumulate(rhs, term)
    matrix_identity = lhs == rhs

    dim_report = dimension_identity(dims)
    return {
        "dims": dims,
        "matrix_identity": matrix_identity,
        **dim_report,
        "passed": matrix_identity and dim_report["dimension_identity"],
    }

