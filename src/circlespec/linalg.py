"""Exact matrices over the rationals; nothing here touches floating point.

`rank`, an independent verification route, eliminates sparse integer rows
{column: nonzero int}: the rank route builds only such rows, each one ±1
difference row.  The dense helpers take lists of rows: inclusion-exclusion
calls `kron`, `mat_add` and `mat_sub` at run time, the tests compare against
all of them, and `bench/spans.py` wraps `kron`, `mat_add` and `mat_mul` by
name, so deleting one breaks its traced run.
"""

import math
from fractions import Fraction


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def kron(a, b):
    """Kronecker product; block (i, j) is a[i][j] * b."""
    if not a or not b:
        return []
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def rank(a):
    """Rank over Q of sparse integer rows {column: nonzero int}, by
    fraction-free elimination.  The caller's rows are never changed.

    A row's leading column is its least key; the keys need not be sorted.
    If the leading column c of row v has an echelon row p, v becomes
    (p[c]/g)*v - (v[c]/g)*p with g = gcd(p[c], v[c]): a copy of v, scaled
    when p[c]/g != 1, with p folded in, which clears c and drops the entries
    it zeroes; otherwise v is the echelon row for c.  The rank is the number
    of echelon rows.  The step is exact on any integer rows.  No content is
    divided out: that would only keep entries small, and the rank route's
    rows e_i - e_j never need it, since they are totally unimodular and keep
    at most two entries, both ±1, under this step.  No residue arithmetic: a
    rank taken mod a prime can undercount.
    """
    pivots: dict[int, dict[int, int]] = {}
    for v in a:
        while v:
            lead = min(v)
            p = pivots.setdefault(lead, v)
            if p is v:
                break
            g = math.gcd(p[lead], v[lead])
            s, t = p[lead] // g, v[lead] // g
            v = dict(v) if s == 1 else {c: s * x for c, x in v.items()}
            for c, x in p.items():
                if y := v.get(c, 0) - t * x:
                    v[c] = y
                else:
                    del v[c]
    return len(pivots)
