"""Shared builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from circlespec import AtomicMeasure, CirclePoint


def mass(mu: AtomicMeasure) -> Fraction:
    """Total weight of a measure."""
    return sum((w for _, w in mu.items()), Fraction(0))


def designed_relation_measure() -> AtomicMeasure:
    """Four atoms x, y, z, x*y*z^-1 carrying exactly one product relation."""
    x, y, z = (CirclePoint.generator(i) for i in range(3))
    w = x * y * z.inverse()
    return AtomicMeasure({p: Fraction(1, 4) for p in (x, y, z, w)})


def point_strategy(max_index=4, max_exp=2):
    rationals = st.sampled_from(
        [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    )
    generics = st.dictionaries(
        st.integers(min_value=0, max_value=max_index),
        st.integers(min_value=-max_exp, max_value=max_exp).filter(lambda e: e != 0),
        max_size=2,
    )
    return st.builds(CirclePoint, rationals, generics)


def small_measures(max_atoms=4):
    weights = st.integers(min_value=1, max_value=5).map(lambda n: Fraction(n, 5))
    return st.dictionaries(
        point_strategy(), weights, min_size=1, max_size=max_atoms
    ).map(AtomicMeasure)
