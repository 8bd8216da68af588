import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlespec import (
    Coupling,
    EnumerationCapError,
    FactorStructure,
    FiniteSpace,
    MarkovOp,
    conditional_expectation_matrix,
    coupling_from_markov,
    dimension_identity,
    inclusion_exclusion_identity,
    markov_from_coupling,
    marginal_coupling,
    product_space,
    project_markov,
    rel_indep_extension,
)
from circlespec import linalg, markov

F = Fraction


def two_point(p, prefix="x"):
    return FiniteSpace((f"{prefix}0", f"{prefix}1"), (F(p), 1 - F(p)))


def test_finite_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), (F(1), F(0)))


def test_product_space_order_and_probs():
    a = FiniteSpace(("a", "b"), (F(1, 4), F(3, 4)))
    c = FiniteSpace(("c", "d"), (F(1, 2), F(1, 2)))
    prod = product_space([a, c])
    assert prod.labels == ("a,c", "a,d", "b,c", "b,d")
    assert prod.probs == (F(1, 8), F(1, 8), F(3, 8), F(3, 8))


def test_coupling_validation_and_classmethods():
    left = two_point(F(1, 2))
    right = two_point(F(1, 2), "y")
    with pytest.raises(ValueError):
        Coupling(left, right, [[F(1, 2), F(0)], [F(0), F(1, 4)]])


def test_markov_from_coupling_reference_example():
    left = two_point(F(1, 2))
    right = two_point(F(1, 2), "y")
    joint = [[F(1, 3), F(1, 6)], [F(1, 6), F(1, 3)]]
    phi = markov_from_coupling(Coupling(left, right, joint))
    assert phi.matrix == (
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
    )
    assert phi.source == left and phi.target == right


def test_coupling_round_trips():
    rng = random.Random(11)
    for _ in range(25):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[rng.randint(1, 9) for _ in range(q)] for _ in range(p)]
        total = sum(map(sum, entries))
        joint = [[F(e, total) for e in row] for row in entries]
        left = FiniteSpace((f"x{i}" for i in range(p)), (sum(r) for r in joint))
        right = FiniteSpace(
            (f"y{j}" for j in range(q)),
            (sum(r[j] for r in joint) for j in range(q)),
        )
        c = Coupling(left, right, joint)
        phi = markov_from_coupling(c)
        assert coupling_from_markov(phi) == c
        assert markov_from_coupling(coupling_from_markov(phi)) == phi


def test_markov_op_validation():
    left = two_point(F(1, 2))
    right = two_point(F(1, 2), "y")
    with pytest.raises(ValueError):
        MarkovOp(left, right, [[F(1, 2), F(1, 2)], [F(3, 4), F(1, 2)]])
    with pytest.raises(ValueError):
        MarkovOp(left, right, [[F(-1, 2), F(3, 2)], [F(1, 2), F(1, 2)]])
    # rows stochastic but measure intertwining broken
    skew = two_point(F(1, 4))
    with pytest.raises(ValueError):
        MarkovOp(skew, right, [[F(1), F(0)], [F(0), F(1)]])


def test_identity_mean_and_expectation_preservation():
    space = FiniteSpace(("a", "b", "c"), (F(1, 2), F(1, 3), F(1, 6)))
    mean = MarkovOp.mean(space, space)
    assert all(row == space.probs for row in mean.matrix)


def test_marginal_coupling_sums_out_unselected():
    x = two_point(F(1, 2))
    a = two_point(F(1, 2), "a")
    b = FiniteSpace(("b0", "b1"), (F(1, 4), F(3, 4)))
    factor = FactorStructure((a, b), (0,))
    full = product_space([a, b])
    joint = [
        [F(1, 16), F(1, 4), F(1, 16), F(1, 8)],
        [F(1, 16), F(1, 8), F(1, 16), F(1, 4)],
    ]
    c = Coupling(x, full, joint)
    marg = marginal_coupling(c, factor)
    assert marg.right == a
    assert marg.joint == ((F(5, 16), F(3, 16)), (F(3, 16), F(5, 16)))


def test_rel_indep_extension_formula():
    x = two_point(F(1, 2))
    a = two_point(F(1, 2), "a")
    b = FiniteSpace(("b0", "b1"), (F(1, 4), F(3, 4)))
    factor = FactorStructure((a, b), (0,))
    base = Coupling(x, a, [[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]])
    ext = rel_indep_extension(base, factor)
    assert ext.right == product_space([a, b])
    for i in range(2):
        for ja, a_w in enumerate(base.joint[i]):
            for jb, b_p in enumerate(b.probs):
                assert ext.joint[i][2 * ja + jb] == a_w * b_p


def test_conditional_expectation_matrix_edges():
    a = two_point(F(1, 2), "a")
    b = FiniteSpace(("b0", "b1"), (F(1, 4), F(3, 4)))
    full = product_space([a, b])
    all_sel = conditional_expectation_matrix(FactorStructure((a, b), (0, 1)))
    assert [list(row) for row in all_sel] == [
        [F(1) if i == j else F(0) for j in range(4)] for i in range(4)
    ]
    none_sel = conditional_expectation_matrix(FactorStructure((a, b), ()))
    assert all(tuple(row) == full.probs for row in none_sel)


def test_project_markov_edge_selectors():
    rng = random.Random(5)
    a = two_point(F(1, 2), "a")
    b = FiniteSpace(("b0", "b1"), (F(1, 4), F(3, 4)))
    full = product_space([a, b])
    entries = [[rng.randint(1, 9) for _ in range(4)] for _ in range(3)]
    joint = [[F(0)] * 4 for _ in range(3)]
    for j in range(4):
        col = sum(entries[i][j] for i in range(3))
        for i in range(3):
            joint[i][j] = F(entries[i][j], col) * full.probs[j]
    x_marg = [sum(row) for row in joint]
    x = FiniteSpace(("x0", "x1", "x2"), x_marg)
    phi = markov_from_coupling(Coupling(x, full, joint))

    assert project_markov(phi, FactorStructure((a, b), (0, 1))) == phi
    assert project_markov(phi, FactorStructure((a, b), ())) == MarkovOp.mean(x, full)
    # middle selector: both internal routes agree (checked inside) and land in full
    mid = project_markov(phi, FactorStructure((a, b), (1,)))
    assert mid.target == full and mid.source == x


def test_factor_structure_validation():
    a = two_point(F(1, 2), "a")
    b = two_point(F(1, 2), "b")
    with pytest.raises(ValueError):
        FactorStructure((a, b), (1, 0))
    with pytest.raises(ValueError):
        FactorStructure((a, b), (0, 0))
    with pytest.raises(ValueError):
        FactorStructure((a, b), (2,))


def test_inclusion_exclusion_identity_small():
    for dims in ([2], [2, 2], [2, 3], [2, 3, 2]):
        rep = inclusion_exclusion_identity(dims)
        assert rep["passed"], dims
    rep = inclusion_exclusion_identity([2, 3, 2])
    assert rep["dimension_lhs"] == rep["dimension_rhs"] == 11


def test_inclusion_exclusion_with_nonuniform_probs():
    rep = inclusion_exclusion_identity(
        [2, 3],
        [[F(1, 4), F(3, 4)], [F(1, 2), F(1, 3), F(1, 6)]],
    )
    assert rep["passed"]


def test_inclusion_exclusion_validation_and_cap():
    with pytest.raises(ValueError):
        inclusion_exclusion_identity([])
    with pytest.raises(ValueError):
        inclusion_exclusion_identity([2, 0])
    with pytest.raises(ValueError):
        inclusion_exclusion_identity([2, 2], [[F(1, 2), F(1, 2)]])
    with pytest.raises(ValueError, match="strictly positive"):
        inclusion_exclusion_identity([2, 2], [[F(0), F(1)], [F(1, 2), F(1, 2)]])
    with pytest.raises(ValueError, match="sum to 2/3"):
        inclusion_exclusion_identity([2, 2], [[F(1, 2), F(1, 2)], [F(1, 3), F(1, 3)]])
    with pytest.raises(EnumerationCapError):
        inclusion_exclusion_identity([10, 10, 10], matrix_cap=100)


def test_dimension_identity_values():
    assert dimension_identity([2, 3, 2])["dimension_lhs"] == 11
    assert dimension_identity([2, 3, 2])["dimension_identity"]
    rng = random.Random(3)
    for _ in range(20):
        dims = [rng.randint(1, 7) for _ in range(rng.randint(1, 7))]
        assert dimension_identity(dims)["dimension_identity"]


def operator_onto(components, entries):
    """Markov operator into the product of `components` from the coupling
    whose column j splits the product mass p_j in proportion to entries[x][j]."""
    full = product_space(components)
    joint = [[F(0)] * full.size for _ in entries]
    for j, p in enumerate(full.probs):
        col = sum(row[j] for row in entries)
        for x, row in enumerate(entries):
            joint[x][j] = F(row[j], col) * p
    left = FiniteSpace((f"x{i}" for i in range(len(entries))), (sum(row) for row in joint))
    return markov_from_coupling(Coupling(left, full, joint))


def all_selectors(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]


def dense_projection(phi, factor):
    return linalg.mat_mul(conditional_expectation_matrix(factor), list(map(list, phi.matrix)))


@st.composite
def projection_cases(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    weights = [draw(st.lists(st.integers(1, 7), min_size=d, max_size=d)) for d in sizes]
    components = tuple(
        FiniteSpace((f"c{i}_{j}" for j in range(len(ws))), (F(w, sum(ws)) for w in ws))
        for i, ws in enumerate(weights)
    )
    total = math.prod(sizes)
    left = draw(st.integers(1, 3))
    entries = draw(st.lists(st.lists(st.integers(1, 9), min_size=total, max_size=total), min_size=left, max_size=left))
    return components, operator_onto(components, entries)


@settings(max_examples=60, deadline=None)
@given(projection_cases())
def test_factored_projection_equals_dense_definition(case):
    components, phi = case
    for selected in all_selectors(len(components)):
        factor = FactorStructure(components, selected)
        assert [list(row) for row in project_markov(phi, factor).matrix] == dense_projection(phi, factor)


# 1000003 and 999983 are primes: every product denominator is a new coprime combination.
BIG = (
    FiniteSpace(("a0", "a1"), (F(1, 1000003), F(1000002, 1000003))),
    FiniteSpace(("b0", "b1", "b2"), (F(1, 999983), F(2, 999983), F(999980, 999983))),
    FiniteSpace(("c0", "c1"), (F(1, 3), F(2, 3))),
)


def selected_index(point, components, selected):
    """The mixed-radix index of a full point's selected coordinates."""
    index = 0
    for i in selected:
        index = index * components[i].size + point[i]
    return index


def unselected_weight(point, components, selected):
    return math.prod((components[i].probs[k] for i, k in enumerate(point) if i not in selected), start=F(1))


def test_columns_follow_the_coordinate_definition():
    # The dense conditional expectation reads columns, so columns are held to
    # the coordinates: the sub index is the mixed radix of the selected
    # coordinates, the weight the product of the unselected probabilities.
    # One-point components, which `columns` skips, are checked too.
    one = FiniteSpace(("o",), (F(1),))
    for components in (BIG, (BIG[0], one, BIG[1], one)):
        for selected in all_selectors(len(components)):
            points = itertools.product(*(range(c.size) for c in components))
            expected = [(selected_index(y, components, selected), unselected_weight(y, components, selected))
                        for y in points]
            sub, weight, den = FactorStructure(components, selected).columns
            assert [(s, F(w, den)) for s, w in zip(sub, weight)] == expected


def test_projection_with_coprime_large_denominators():
    phi = operator_onto(BIG, [[1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 6, 4], [9] * 12])
    for selected in all_selectors(3):
        factor = FactorStructure(BIG, selected)
        assert [list(row) for row in project_markov(phi, factor).matrix] == dense_projection(phi, factor)


def test_factored_route_uses_no_coupling_function(monkeypatch):
    phi = operator_onto(BIG, [[1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 6, 4]])
    expected = {s: dense_projection(phi, FactorStructure(BIG, s)) for s in all_selectors(3)}

    def forbidden(*args):
        raise AssertionError("the direct route read the extension route")

    for name in ("coupling_from_markov", "marginal_coupling", "rel_indep_extension", "markov_from_coupling"):
        monkeypatch.setattr(markov, name, forbidden)
    monkeypatch.setattr(FactorStructure, "columns", property(forbidden))
    for selected, dense in expected.items():
        rows, den = markov._factored_expectation(phi, FactorStructure(BIG, selected))
        assert [[F(x, den) for x in row] for row in rows] == dense


def test_project_markov_raises_when_the_extension_route_is_perturbed(monkeypatch):
    """Move mass eps around a 2x2 rectangle of the extension's joint: both
    marginals stay exact, so only the identity check can catch it."""
    original = markov.rel_indep_extension

    def shifted(lam, factor):
        c = original(lam, factor)
        joint = [list(row) for row in c.joint]
        eps = min(joint[0][0], joint[1][1]) / 2
        joint[0][0] -= eps
        joint[0][1] += eps
        joint[1][0] += eps
        joint[1][1] -= eps
        return Coupling(c.left, c.right, joint)

    components = BIG[2:] + BIG[:1]
    phi = operator_onto(components, [[1, 2, 3, 4], [4, 3, 2, 1]])
    monkeypatch.setattr(markov, "rel_indep_extension", shifted)
    for selected in all_selectors(2):
        with pytest.raises(RuntimeError, match="projection identity failed"):
            project_markov(phi, FactorStructure(components, selected))


def test_factor_structure_builds_its_spaces_once(monkeypatch):
    calls = []
    monkeypatch.setattr(markov, "product_space", lambda comps: calls.append(1) or product_space(comps))
    components = BIG[2:] + BIG[:1]
    phi = operator_onto(components, [[1, 2, 3, 4]])
    factor = FactorStructure(components, (1,))
    project_markov(phi, factor)
    assert len(calls) == 2  # the full product and the selected sub-product
    project_markov(phi, factor)
    assert len(calls) == 2


def dense_identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_combine(a, b, sign):
    """a + sign·b, entry by entry."""
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_inclusion_exclusion(probs):
    """Both sides of the two-sided form Id - ⊗(Id - q_i) = Σ_{|T|<n} (-1)^(n-|T|-1)·p_T
    as dense Fraction matrices, with Kronecker products, differences and sums
    built here, so that the reference shares no kernel with `linalg`."""
    n = len(probs)
    eyes = [dense_identity(len(p)) for p in probs]
    means = [[list(p)] * len(p) for p in probs]

    def chain(factors):
        out = [[F(1)]]
        for f in factors:
            out = dense_kron(out, f)
        return out

    total = len(chain(eyes))
    lhs = dense_combine(dense_identity(total), chain([dense_combine(e, m, -1) for e, m in zip(eyes, means)]), -1)
    rhs = [[F(0)] * total for _ in range(total)]
    for k in range(n):
        for T in itertools.combinations(range(n), k):
            term = chain([eyes[i] if i in T else means[i] for i in range(n)])
            rhs = dense_combine(rhs, term, (-1) ** (n - k - 1))
    return lhs, rhs


def test_inclusion_exclusion_with_coprime_large_denominators():
    probs = [list(c.probs) for c in BIG]
    lhs, rhs = dense_inclusion_exclusion(probs)
    assert lhs == rhs
    rep = inclusion_exclusion_identity([2, 3, 2], probs)
    assert rep["matrix_identity"] and rep["passed"]


@st.composite
def weighted_components(draw):
    """Dims and probability rows of 1-4 components of 1-3 points, each row
    drawn as positive integer weights over their sum."""
    weights = draw(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=3), min_size=1, max_size=4))
    return [len(w) for w in weights], [[F(x, sum(w)) for x in w] for w in weights]


@settings(max_examples=40, deadline=None)
@given(weighted_components())
def test_inclusion_exclusion_holds_on_drawn_components(case):
    dims, probs = case
    assert inclusion_exclusion_identity(dims, probs)["matrix_identity"]
    lhs, rhs = dense_inclusion_exclusion(probs)
    assert lhs == rhs


def test_inclusion_exclusion_check_is_live(monkeypatch):
    """Corrupting one entry of one accumulated term makes the check fail."""
    original = linalg.mat_add
    corrupted = []

    def add_then_corrupt(a, b):
        out = original(a, b)
        if not corrupted:
            out[0][0] += 1
            corrupted.append(True)
        return out

    monkeypatch.setattr(linalg, "mat_add", add_then_corrupt)
    rep = inclusion_exclusion_identity([2, 3], [[F(1, 1000003), F(1000002, 1000003)], list(BIG[1].probs)])
    assert corrupted and not rep["matrix_identity"] and not rep["passed"]


# -- trusted intermediates -----------------------------------------------------


def assert_canonical(built):
    """`built` holds its numerators in lowest terms, reads as tuples of
    Fractions, and equals its validating rebuild, which raises if it is not
    valid: the stored form is the one the constructor gives."""
    if isinstance(built, Coupling):
        rows, rebuild = built.joint, lambda: Coupling(built.left, built.right, built.joint)
    else:
        rows, rebuild = built.matrix, lambda: MarkovOp(built.source, built.target, built.matrix)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert built.den > 0 and math.gcd(built.den, *itertools.chain.from_iterable(built.nums)) == 1
    assert built == rebuild()


@settings(max_examples=40, deadline=None)
@given(projection_cases())
def test_trusted_results_equal_the_validating_constructors(case):
    components, phi = case
    lam = coupling_from_markov(phi)
    assert_canonical(lam)
    assert_canonical(markov_from_coupling(lam))
    assert product_space([]) == FiniteSpace(("",), (F(1),))
    for selected in all_selectors(len(components)):
        factor = FactorStructure(components, selected)
        restricted = marginal_coupling(lam, factor)
        assert_canonical(restricted)
        assert_canonical(rel_indep_extension(restricted, factor))
        assert_canonical(project_markov(phi, factor))


def test_canonical_coupling_equals_the_validating_one():
    """The trusted constructor takes numerators over any positive denominator
    and stores them in lowest terms, as the validating constructor does."""
    left, right = two_point(F(1, 3)), two_point(F(1, 4), "y")
    joint = ((F(1, 12), F(1, 4)), (F(1, 6), F(1, 2)))
    trusted = Coupling._canonical(left, right, [[2, 6], [4, 12]], 24)
    assert trusted == Coupling(left, right, joint)
    assert (trusted.nums, trusted.den) == (((1, 3), (2, 6)), 12)
    assert trusted.joint == joint


def test_public_constructors_still_validate():
    half, half_y = two_point(F(1, 2)), two_point(F(1, 2), "y")
    with pytest.raises(ValueError, match="non-negative"):
        Coupling(half, half_y, [[F(3, 4), F(-1, 4)], [F(-1, 4), F(3, 4)]])  # both marginals exact
    with pytest.raises(ValueError, match="right marginal"):
        Coupling(half, two_point(F(1, 3), "y"), [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]])
    with pytest.raises(ValueError, match="non-negative"):
        MarkovOp(half, half_y, [[F(3, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]])  # stochastic, measure kept
    with pytest.raises(ValueError, match="pushes mass"):
        MarkovOp(two_point(F(1, 3)), half_y, [[F(1), F(0)], [F(0), F(1)]])


def test_markov_from_coupling_validates_its_output():
    """A coupling that bypassed validation is caught when it becomes an operator."""
    half, half_y = two_point(F(1, 2)), two_point(F(1, 2), "y")
    bad = Coupling._canonical(half, half_y, [[2, 1], [0, 1]], 4)  # rows 3/4 and 1/4
    with pytest.raises(ValueError, match="pushes mass"):
        markov_from_coupling(bad)


# -- integer derivations against the Fraction reference ---------------------------
#
# Each derivation works on integer numerators.  The same maps written from the
# coordinates in plain Fraction arithmetic, reading no `columns` table, are the
# reference.


def reference_markov_from_coupling(c):
    return tuple(tuple(c.joint[s][t] / q for s in range(c.left.size)) for t, q in enumerate(c.right.probs))


def reference_coupling_from_markov(phi):
    return tuple(tuple(phi.matrix[t][s] * q for t, q in enumerate(phi.target.probs)) for s in range(phi.source.size))


def reference_marginal(joint, components, selected):
    points = list(itertools.product(*(range(c.size) for c in components)))
    out = [[F(0)] * math.prod(components[i].size for i in selected) for _ in joint]
    for row, sums in zip(joint, out):
        for x, point in zip(row, points):
            sums[selected_index(point, components, selected)] += x
    return tuple(map(tuple, out))


def reference_extension(joint, components, selected):
    points = list(itertools.product(*(range(c.size) for c in components)))
    return tuple(
        tuple(row[selected_index(y, components, selected)] * unselected_weight(y, components, selected) for y in points)
        for row in joint
    )


def reference_projection(matrix, components, selected):
    """(E·phi)[y][s]: the unselected-weighted sum of phi[z][s] over the points z
    that agree with y on the selected coordinates."""
    points = list(itertools.product(*(range(c.size) for c in components)))
    keys = [selected_index(z, components, selected) for z in points]
    weights = [unselected_weight(z, components, selected) for z in points]
    return tuple(
        tuple(sum((w * row[s] for k, w, row in zip(keys, weights, matrix) if k == key), start=F(0))
              for s in range(len(matrix[0])))
        for key in keys
    )


@settings(max_examples=40, deadline=None)
@given(projection_cases())
def test_integer_derivations_equal_the_fraction_reference(case):
    components, phi = case
    lam = coupling_from_markov(phi)
    assert lam.joint == reference_coupling_from_markov(phi)
    assert markov_from_coupling(lam).matrix == reference_markov_from_coupling(lam) == phi.matrix
    for selected in all_selectors(len(components)):
        factor = FactorStructure(components, selected)
        restricted = marginal_coupling(lam, factor)
        assert restricted.joint == reference_marginal(lam.joint, components, selected)
        extended = rel_indep_extension(restricted, factor)
        assert extended.joint == reference_extension(restricted.joint, components, selected)
        assert project_markov(phi, factor).matrix == reference_projection(phi.matrix, components, selected)


# -- integer validation against the Fraction reference ---------------------------
#
# The constructors validate on integer numerators.  The same checks written in
# plain Fraction arithmetic are the reference: both must accept the same inputs,
# storing the same Fractions, and reject the same inputs with the same exception
# type and message.


def reference_space(labels, probs):
    labels = tuple(labels)
    probs = tuple(Fraction(p) for p in probs)
    if len(labels) != len(probs):
        raise ValueError(f"{len(labels)} labels vs {len(probs)} probabilities")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if any(p <= 0 for p in probs):
        raise ValueError("probabilities must be strictly positive")
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    return labels, probs


def reference_coupling(left, right, joint):
    joint = tuple(tuple(Fraction(x) for x in row) for row in joint)
    if len(joint) != left.size or any(len(row) != right.size for row in joint):
        raise ValueError(f"joint must be {left.size}x{right.size}")
    if any(x < 0 for row in joint for x in row):
        raise ValueError("joint entries must be non-negative")
    for i, row in enumerate(joint):
        if sum(row) != left.probs[i]:
            raise ValueError(f"row {i} sums to {sum(row)}, expected left marginal {left.probs[i]}")
    for j in range(right.size):
        col = sum(row[j] for row in joint)
        if col != right.probs[j]:
            raise ValueError(f"column {j} sums to {col}, expected right marginal {right.probs[j]}")
    return joint


def reference_markov(source, target, matrix):
    matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
    if len(matrix) != target.size or any(len(row) != source.size for row in matrix):
        raise ValueError(f"matrix must be {target.size}x{source.size}")
    if any(x < 0 for row in matrix for x in row):
        raise ValueError("matrix entries must be non-negative")
    for t, row in enumerate(matrix):
        if sum(row) != 1:
            raise ValueError(f"row {t} sums to {sum(row)}, not 1")
    for s in range(source.size):
        pushed = sum(target.probs[t] * matrix[t][s] for t in range(target.size))
        if pushed != source.probs[s]:
            raise ValueError(f"column {s} pushes mass {pushed}, expected {source.probs[s]}")
    return matrix


def outcome(build, *args):
    """What `build` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def stored(rows):
    """The stored tuples, after checking that every entry is a Fraction."""
    assert all(type(x) is Fraction for row in rows for x in row)
    return rows


def built_space(labels, probs):
    space = FiniteSpace(labels, probs)
    return space.labels, stored([space.probs])[0]


def built_joint(left, right, joint):
    return stored(Coupling(left, right, joint).joint)


def built_matrix(source, target, matrix):
    return stored(MarkovOp(source, target, matrix).matrix)


# 1000003 and 2**61 - 1 are primes: denominators built from them stay coprime.
DENOMINATORS = (1, 2, 7, 1000003, 2**61 - 1)
deltas = st.builds(Fraction, st.integers(1, 5), st.sampled_from(DENOMINATORS))


@st.composite
def distributions(draw, size):
    """`size` positive probabilities summing to 1, over mixed coprime denominators."""
    denominators = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=size - 1, max_size=size - 1))
    head = [F(draw(st.integers(1, d)), d * size) for d in denominators]  # each at most 1/size
    return head + [1 - sum(head)]


def spaces(prefix, probs):
    return FiniteSpace((f"{prefix}{i}" for i in range(len(probs))), probs)


def as_given(draw, rows):
    """The entries as Fractions, or each one as an int (denominator 1) or a
    string such as "3/7", both of which Fraction() accepts."""
    if not draw(st.booleans()):
        return rows
    return [[x.numerator if x.denominator == 1 else str(x) for x in row] for row in rows]


def mutated(draw, rows):
    """rows, possibly changed by one drawn edit.  "row" moves mass inside a row
    (every row sum kept, so only column sums, or a Markov operator's pushed mass,
    break), "column" moves it inside a column (rows break), "entry" changes one
    entry, "negative" drives one entry below zero keeping its row sum, "rectangle"
    moves mass around four corners (every line kept), "short" drops an entry."""
    rows = [list(row) for row in rows]
    n, m = len(rows), len(rows[0])
    edit = draw(st.sampled_from(("none", "row", "column", "entry", "negative", "rectangle", "short")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    i2, j2 = (i + 1) % n, (j + 1) % m
    delta = draw(deltas)
    if edit == "row" and m > 1:
        rows[i][j] += delta
        rows[i][j2] -= delta
    elif edit == "column" and n > 1:
        rows[i][j] += delta
        rows[i2][j] -= delta
    elif edit == "entry":
        rows[i][j] += delta
    elif edit == "negative" and m > 1:
        shift = rows[i][j] + delta
        rows[i][j] -= shift
        rows[i][j2] += shift
    elif edit == "rectangle" and n > 1 and m > 1:
        delta = min(rows[i][j], rows[i2][j2], delta)
        rows[i][j] -= delta
        rows[i][j2] += delta
        rows[i2][j] += delta
        rows[i2][j2] -= delta
    elif edit == "short":
        rows[i].pop()
    return rows


@st.composite
def coupling_cases(draw):
    """A left and right space and a joint: the right probabilities split down
    each column in drawn proportions, the left ones their row sums."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    right = draw(distributions(m))
    shares = draw(st.lists(st.lists(st.integers(1, 9), min_size=n, max_size=n), min_size=m, max_size=m))
    joint = [[right[j] * F(shares[j][i], sum(shares[j])) for j in range(m)] for i in range(n)]
    return spaces("x", [sum(row) for row in joint]), spaces("y", right), joint


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(distributions), st.data())
def test_finite_space_accepts_and_rejects_as_the_fraction_reference(probs, data):
    draw = data.draw
    labels = [f"p{i}" for i in range(len(probs))]
    edit = draw(st.sampled_from(("none", "zero", "negative", "bump", "duplicate", "short")))
    i = draw(st.integers(0, len(probs) - 1))
    if edit == "zero" and len(probs) > 1:
        probs[(i + 1) % len(probs)] += probs[i]  # the sum stays 1
        probs[i] = F(0)
    elif edit == "negative":
        probs[i] = -probs[i]
    elif edit == "bump":
        probs[i] += draw(deltas)
    elif edit == "duplicate" and len(probs) > 1:
        labels[i] = labels[(i + 1) % len(probs)]
    elif edit == "short":
        labels.pop()
    probs = as_given(draw, [probs])[0]
    assert outcome(built_space, labels, probs) == outcome(reference_space, labels, probs)


@settings(max_examples=300, deadline=None)
@given(coupling_cases(), st.data())
def test_coupling_accepts_and_rejects_as_the_fraction_reference(case, data):
    left, right, joint = case
    joint = as_given(data.draw, mutated(data.draw, joint))
    assert outcome(built_joint, left, right, joint) == outcome(reference_coupling, left, right, joint)


@settings(max_examples=300, deadline=None)
@given(coupling_cases(), st.data())
def test_markov_op_accepts_and_rejects_as_the_fraction_reference(case, data):
    source, target, joint = case
    matrix = [[joint[s][t] / target.probs[t] for s in range(source.size)] for t in range(target.size)]
    matrix = as_given(data.draw, mutated(data.draw, matrix))
    assert outcome(built_matrix, source, target, matrix) == outcome(reference_markov, source, target, matrix)


def test_reference_cases_reach_every_branch():
    """Hand-picked inputs for each check, so that no branch rests on the draw alone."""
    half, half_y = two_point(F(1, 2)), two_point(F(1, 2), "y")
    big = FiniteSpace(("b0", "b1"), (F(1, 2**61 - 1), F(2**61 - 2, 2**61 - 1)))
    spaces_in = [
        (["a", "b"], ["1/2", 0.5]),
        (["a"], [1]),
        (["a", "b"], [F(1, 1000003), F(1000001, 1000003)]),
        (["a", "b"], [F(0), F(1)]),
        (["a", "b"], [F(-1, 2), F(3, 2)]),
        ([], []),
    ]
    for labels, probs in spaces_in:
        assert outcome(built_space, labels, probs) == outcome(reference_space, labels, probs)
    couplings_in = [
        (half, half_y, [["1/4", "1/4"], [F(1, 4), F(1, 4)]]),
        (half, half_y, [[F(1, 2), F(0)], [F(0), F(1, 2)]]),
        (half, half_y, [[F(1, 2), F(0)], [F(1, 4), F(1, 4)]]),  # rows kept, both columns broken
        (half, big, [[F(1, 2), F(0)], [F(0), F(1, 2)]]),
        (half, half_y, [[F(3, 4), F(-1, 4)], [F(-1, 4), F(3, 4)]]),
        (half, half_y, [["x", 0], [0, 1]]),
    ]
    for left, right, joint in couplings_in:
        assert outcome(built_joint, left, right, joint) == outcome(reference_coupling, left, right, joint)
    operators_in = [
        (half, half_y, [[1, 0], [0, 1]]),
        (two_point(F(1, 3)), half_y, [[F(1), F(0)], [F(0), F(1)]]),  # rows stochastic, pushed mass broken
        (half, big, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]),
        (half, half_y, [[F(3, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]]),
        (half, half_y, [[F(1, 2), F(1, 2)], [F(1, 2)]]),
    ]
    for source, target, matrix in operators_in:
        assert outcome(built_matrix, source, target, matrix) == outcome(reference_markov, source, target, matrix)
