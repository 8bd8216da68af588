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
coupling; `inclusion_exclusion_identity` compares a Kronecker chain with
sub-product projections read off `FactorStructure.columns`.
The empty selection takes no case of its own: its sub-product is the product
of no spaces, the one-point space.

A `FiniteSpace` also holds its probabilities as integer numerators over
their least common denominator (`_integer_row`, the module's one lcm); a
`Coupling` or `MarkovOp` holds only integer numerator rows over one
denominator in lowest terms, so `==` compares integers, and `.joint` and
`.matrix` are Fraction views built when first read.  The public constructors
validate every entry and both marginals on those integers: signs, then each
line's sum cross-multiplied with its target.  The six derivations (both
conversions, restriction, extension, the direct side and `project_markov`'s
cross-multiplied comparison) build no Fraction.  Couplings derived from valid
objects skip validation through the trusted `_canonical`; the operator that
`markov_from_coupling` derives is validated, so each identity checks one
output of its own.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from fractions import Fraction

from circlespec import linalg
from circlespec.errors import Caps, Record, admit


def _fractions(values: Iterable) -> tuple[Fraction, ...]:
    """`values` as Fractions; anything not already one goes through `Fraction()`."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def _integer_row(nums: Sequence[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """Integer numerators w over the least common denominator D of `dens`,
    with w[i] / D == nums[i] / dens[i]."""
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    return _integer_row([x.numerator for x in values], [x.denominator for x in values])


def _check_sums(lines, weights, den: int, targets: FiniteSpace | None, error: str) -> None:
    """Raise ValueError(error.format(i, exact total, target)) at the first line
    i of integer numerators whose sum over `den`, weighted by `weights` (None:
    all ones), is not the probability of point i of `targets` (None: 1)."""
    for i, line in enumerate(lines):
        total = sum(map(operator.mul, weights, line)) if weights else sum(line)
        num, target_den = (targets.nums[i], targets.den) if targets else (1, 1)
        if total * target_den != num * den:
            raise ValueError(error.format(i, Fraction(total, den), Fraction(num, target_den)))


class FiniteSpace(Record):
    """A finite probability space: point labels plus strictly positive rational
    probabilities `probs` summing to one, also held as integer numerators `nums`
    over their least common denominator `den`: `==` and `hash` read labels and those."""

    __slots__ = ("labels", "probs", "nums", "den")
    _fields = ("labels", "den", "nums")

    def __init__(self, labels: Iterable[str], probs: Iterable[Fraction]):
        labels = tuple(labels)
        probs = _fractions(probs)
        if len(labels) != len(probs):
            raise ValueError(f"{len(labels)} labels vs {len(probs)} probabilities")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if any(p.numerator <= 0 for p in probs):
            raise ValueError("probabilities must be strictly positive")
        nums, den = _scaled(probs)
        _check_sums([nums], None, den, None, "probabilities sum to {1}, not 1")
        super().__init__(labels, den, tuple(nums))
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return len(self.labels)

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


class _IntegerRows(Record):
    """Entries between two spaces as integer numerator rows `nums` over one
    denominator `den` > 0, in lowest terms: a unique form, equal exactly when
    the Fraction entries are, and never a dict key, so unhashable.  A subclass's
    `_fields` are its two spaces, `den` and `nums` (`_rows` caches the Fraction
    view); its `_validated` runs its constructor's checks and returns the object."""

    __slots__ = ("nums", "den", "_rows")
    __hash__ = None

    @classmethod
    def _canonical(cls, first, second, nums, den: int):
        """Trusted constructor: numerator rows `nums` over `den` > 0 that meet
        the class's constraints, stored in lowest terms."""
        g = math.gcd(den, *itertools.chain.from_iterable(nums))
        nums = tuple(tuple([n // g for n in row]) for row in nums)  # tuple(generator) reallocs and fragments
        made = object.__new__(cls)
        Record.__init__(made, first, second, den // g, nums)
        return made

    def _from_fractions(self, first, second, rows, height: int, width: int, name: str) -> None:
        """Validate and store `rows` of entries, which stay as the Fraction view."""
        rows = tuple(map(_fractions, rows))
        if len(rows) != height or any(len(row) != width for row in rows):
            raise ValueError(f"{name} must be {height}x{width}")
        flat, den = _scaled([x for row in rows for x in row])
        super().__init__(first, second, den, tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width)))
        object.__setattr__(self, "_rows", rows)
        self._validated()

    def _fraction_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if getattr(self, "_rows", None) is None:  # unset until read when built by `_canonical`
            rows = tuple(tuple(Fraction(n, self.den) for n in row) for row in self.nums)
            object.__setattr__(self, "_rows", rows)
        return self._rows


class Coupling(_IntegerRows):
    """A joint distribution on left x right with the two spaces as exact
    marginals.  joint[i][j] is the mass on (left point i, right point j).

    The constructor validates; `_canonical` trusts, and serves only the
    couplings this module derives from valid ones (see the module notes)."""

    __slots__ = ("left", "right")
    _fields = (*__slots__, "den", "nums")

    def __init__(self, left: FiniteSpace, right: FiniteSpace, joint: Sequence[Sequence[Fraction]]):
        self._from_fractions(left, right, joint, left.size, right.size, "joint")

    def _validated(self) -> "Coupling":
        if any(n < 0 for row in self.nums for n in row):
            raise ValueError("joint entries must be non-negative")
        _check_sums(self.nums, None, self.den, self.left, "row {} sums to {}, expected left marginal {}")
        _check_sums(zip(*self.nums), None, self.den, self.right,
                    "column {} sums to {}, expected right marginal {}")
        return self

    joint = property(_IntegerRows._fraction_rows)

    def __repr__(self) -> str:
        return f"Coupling({self.left.size}x{self.right.size})"


class MarkovOp(_IntegerRows):
    """A measure-preserving Markov operator from functions on `source` to
    functions on `target`; matrix[t][s] is indexed target x source.

    Two stochastic constraints, both induced by the coupling correspondence:
    rows sum to one (constants are preserved) and target-weighted columns
    reproduce the source probabilities (the measure is preserved): column s
    pushes Σ_t w_t·m_ts, on the numerators of w and of the matrix."""

    __slots__ = ("source", "target")
    _fields = (*__slots__, "den", "nums")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, matrix: Sequence[Sequence[Fraction]]):
        self._from_fractions(source, target, matrix, target.size, source.size, "matrix")

    def _validated(self) -> "MarkovOp":
        if any(n < 0 for row in self.nums for n in row):
            raise ValueError("matrix entries must be non-negative")
        _check_sums(self.nums, None, self.den, None, "row {} sums to {}, not 1")
        _check_sums(zip(*self.nums), self.target.nums, self.den * self.target.den, self.source,
                    "column {} pushes mass {}, expected {}")
        return self

    matrix = property(_IntegerRows._fraction_rows)

    @classmethod
    def mean(cls, source: FiniteSpace, target: FiniteSpace) -> "MarkovOp":
        """The rank-one operator sending every function to its mean."""
        return cls._canonical(source, target, [source.nums] * target.size, source.den)._validated()

    def __repr__(self) -> str:
        return f"MarkovOp({self.target.size}x{self.source.size})"


def markov_from_coupling(c: Coupling) -> MarkovOp:
    """Divide the joint column of each target point by its probability q_t:
    with 1/q_t = r_t / L, entry (t, s) is J[s][t]·r_t over den·L.  The
    result is validated (see the module notes)."""
    r, lcm = _integer_row([c.right.den] * c.right.size, c.right.nums)
    nums = [[x * w for x in col] for w, col in zip(r, zip(*c.nums))]
    return MarkovOp._canonical(c.left, c.right, nums, c.den * lcm)._validated()


def coupling_from_markov(phi: MarkovOp) -> Coupling:
    """Exact inverse of markov_from_coupling: entry (s, t) is m_ts·q_t."""
    nums = [[m * w for w, m in zip(phi.target.nums, col)] for col in zip(*phi.nums)]
    return Coupling._canonical(phi.source, phi.target, nums, phi.den * phi.target.den)


class FactorStructure(Record):
    """A product of component spaces with a chosen sub-product: the selected
    component indices, strictly increasing.  The empty selection is the
    trivial factor: its sub-product is the product of no spaces, one point.
    `columns` holds (indices, numerators, denominator): per full point, in
    product order, its sub-product index and its unselected probabilities' product."""

    _fields = ("components", "selected")

    def __init__(self, components: tuple[FiniteSpace, ...], selected: tuple[int, ...]):
        if not components:
            raise ValueError("factor structure needs at least one component")
        if list(selected) != sorted(set(selected)):
            raise ValueError("selected indices must be strictly increasing")
        if any(not 0 <= i < len(components) for i in selected):
            raise ValueError("selected index out of range")
        super().__init__(components, selected)

    @cached_property
    def full_space(self) -> FiniteSpace:
        return product_space(self.components)

    @cached_property
    def sub_space(self) -> FiniteSpace:
        return product_space([self.components[i] for i in self.selected])

    @cached_property
    def columns(self) -> tuple[list[int], list[int], int]:
        """Built per component, the last varying fastest: a selected one adds
        a mixed-radix digit to the index, an unselected one a weight factor."""
        sub, weight, den = [0], [1], 1
        for i, c in enumerate(self.components):
            if c.size == 1:  # one point of probability 1 changes neither column
                continue
            if i in self.selected:
                sub = [s * c.size + k for s in sub for k in range(c.size)]
                weight = [w for w in weight for _ in range(c.size)]
            else:
                sub = [s for s in sub for _ in range(c.size)]
                weight = [w * p for w in weight for p in c.nums]
                den *= c.den
        return sub, weight, den


def marginal_coupling(lam: Coupling, factor: FactorStructure) -> Coupling:
    """Restrict a coupling of X with the full product to the sub-product of
    the selected components, summing out each row's integer numerators."""
    if lam.right != factor.full_space:
        raise ValueError("coupling right space is not the factor's full product")
    sub, size = factor.columns[0], factor.sub_space.size
    nums = []
    for row in lam.nums:
        sums = [0] * size
        for n, s in zip(row, sub):
            sums[s] += n
        nums.append(sums)
    return Coupling._canonical(lam.left, factor.sub_space, nums, lam.den)


def rel_indep_extension(lam: Coupling, factor: FactorStructure) -> Coupling:
    """Extend a coupling of X with the selected sub-product to the full
    product, making the unselected components independent given the rest:
    the extension's mass at (x, y) is the restricted mass at (x, y_selected)
    times the product of the unselected coordinate probabilities."""
    if lam.right != factor.sub_space:
        raise ValueError("coupling right space is not the selected sub-product")
    sub, weight, den = factor.columns
    nums = [[row[s] * w for s, w in zip(sub, weight)] for row in lam.nums]
    return Coupling._canonical(lam.left, factor.full_space, nums, lam.den * den)


def _expectation_nums(factor: FactorStructure, den: int) -> list[list[int]]:
    """The conditional expectation as dense integer rows over `den`, a signed multiple of the
    `columns` denominator; full points with one sub-product point share its row, never changed."""
    sub, weight, columns_den = factor.columns
    rows = {r: [w * (den // columns_den) if s == r else 0 for s, w in zip(sub, weight)] for r in set(sub)}
    return [rows[r] for r in sub]


def conditional_expectation_matrix(factor: FactorStructure) -> list[list[Fraction]]:
    """Matrix on functions over the full product averaging out the unselected
    coordinates: (Ef)(y) depends only on the selected part of y.  The dense
    definition, as Fractions; `project_markov` applies E factored instead."""
    den = factor.columns[2]
    return [[Fraction(n, den) for n in row] for row in _expectation_nums(factor, den)]


def _factored_expectation(phi: MarkovOp, factor: FactorStructure) -> tuple[list[tuple[int, ...]], int]:
    """E·phi for E = ⊗_i F_i (F_i = I if i is selected, else 1·p_iᵀ) without
    forming E, as integer rows over one denominator D: on phi's numerator
    columns, each line along an unselected axis i (stride prod_{j>i} d_j)
    becomes its sum weighted by p_i's numerators, and D gains p_i's denominator."""
    stride, den = len(phi.nums), phi.den
    cols = [list(col) for col in zip(*phi.nums)]
    for i, space in enumerate(factor.components):
        block, stride = stride, stride // space.size
        if i in factor.selected:
            continue
        den *= space.den
        for v in cols:
            for start in range(0, len(v), block):
                for first in range(start, start + stride):
                    line = range(first, first + block, stride)
                    total = sum(w * v[j] for w, j in zip(space.nums, line))
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

    restricted = marginal_coupling(coupling_from_markov(phi), factor)
    via_extension = markov_from_coupling(rel_indep_extension(restricted, factor))
    scale = via_extension.den
    if [[n * scale for n in row] for row in direct] != [[n * den for n in row] for row in via_extension.nums]:
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
    all coordinates is the signed sum of all the sub-product projections, and
    check the dimension count it forces.

    With q_i the mean projection on component i and p_T the projection onto
    functions of the coordinates in T (p_empty = projection onto constants,
    p_T = Id when T holds every component):

        tensor_i (Id - q_i) = sum_{k=0}^{n} (-1)^(n-k) sum_{|T|=k} p_T

    and on dimensions:  prod d_i - 1 = sum over non-empty S of prod_{i in S} (d_i - 1).

    Each probability row is validated as a `FiniteSpace`.  Both sides are
    integer matrices over the product D of the components' denominators D_i:
    a Kronecker chain of the factors D_i·Id - D_i·q_i on the left; on the
    right, all 2^n terms, each p_T read off `FactorStructure(spaces, T).columns`
    over the signed (-1)^(n-|T|)·D and added by `linalg.mat_add`.  The cap
    bounds their work by (2^n - 1)·n·total² entries against 256·matrix_cap.
    """
    dims = _checked_dims(dims)
    n = len(dims)
    total = math.prod(dims)
    entries = (2**n - 1) * n * total**2
    admit(entries, 256 * matrix_cap, "{} dense entries")
    probs = [[Fraction(1, d)] * d for d in dims] if probs is None else probs
    if len(probs) != n:
        raise ValueError("probs shape does not match dims")
    spaces = tuple(FiniteSpace(map(str, range(d)), row) for d, row in zip(dims, probs))
    den = math.prod(c.den for c in spaces)
    factors = [[[(c.den if r == s else 0) - w for s, w in enumerate(c.nums)] for r in range(c.size)] for c in spaces]
    chain = reduce(linalg.kron, factors)  # tensor_i (D_i·Id - D_i·q_i)
    rhs = [[0] * total for _ in range(total)]
    for k in range(n + 1):
        for T in itertools.combinations(range(n), k):
            rhs = linalg.mat_add(rhs, _expectation_nums(FactorStructure(spaces, T), (-1) ** (n - k) * den))
    matrix_identity = chain == rhs

    dim_report = dimension_identity(dims)
    return {
        "dims": dims,
        "matrix_identity": matrix_identity,
        **dim_report,
        "passed": matrix_identity and dim_report["dimension_identity"],
    }
