"""Exact matrices over the rationals; nothing here touches floating point.

`rank`, an independent verification route, ranks difference rows e_i - e_j
given as column pairs (i, j): the rank route builds only such rows.
Inclusion-exclusion calls the dense `kron` and `mat_add` on lists of rows;
`bench/spans.py` wraps `kron`, `mat_add` and `mat_mul` by name, so deleting
one breaks its traced run.
"""


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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
    """Rank over any field of the rows e_i - e_j, one per column pair (i, j)
    in `a`; a pair (i, i) is the zero row.  The edge rows of a graph have
    rank its vertices less its components (the incidence-matrix rank; Biggs,
    Algebraic Graph Theory, ch. 4), so the rank counts the pairs that join
    two components of the graph of the pairs before them.  `root` maps a
    column to its parent, a column not in it being its own root, and each
    find points the columns on its path at their grandparents (path
    halving).  The caller's pairs are only read.
    """
    root: dict[int, int] = {}

    def find(c):
        while (p := root.get(c, c)) != c:
            root[c] = c = root.get(p, p)  # root[c] is set before c moves on
        return c

    joins = 0
    for i, j in a:
        if (i := find(i)) != (j := find(j)):
            root[i] = j
            joins += 1
    return joins
