"""Shared oracles for the test suite.

These helpers deliberately avoid the code paths they are used to check:
evaluation by repeated multiplication instead of power tables, determinants
by Laplace expansion instead of elimination, Philox as a plain ten-round
loop instead of the unrolled block.
"""

import itertools


def naive_eval(poly, point):
    """Term-by-term evaluation with repeated multiplication only."""
    field = poly.field
    total = field.zero
    for exps, c in poly.terms.items():
        v = c
        for x, e in zip(point, exps):
            for _ in range(e):
                v = field.mul(v, x)
        total = field.add(total, v)
    return total


def naive_det(field, m):
    """Determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = field.zero
    for j, c in enumerate(m[0]):
        if c == field.zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = field.mul(c, naive_det(field, minor))
        total = field.sub(total, term) if j % 2 else field.add(total, term)
    return total


def naive_rank(field, m):
    """Rank as the largest size of a nonzero minor (exponential, tiny inputs)."""
    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(ncols), size):
                sub = [[m[r][c] for c in csel] for r in rsel]
                if naive_det(field, sub) != field.zero:
                    return size
    return 0


def all_points(field, n):
    return itertools.product(field.elements(), repeat=n)


def naive_philox(key0, key1, c0, c1, c2, c3):
    """Philox 4x32-10 as a loop over the rounds, with divmod for hi/lo."""
    for _ in range(10):
        hi0, lo0 = divmod(0xD2511F53 * c0, 0x100000000)
        hi1, lo1 = divmod(0xCD9E8D57 * c2, 0x100000000)
        c0 = hi1 ^ c1 ^ key0
        c1 = lo1
        c2 = hi0 ^ c3 ^ key1
        c3 = lo0
        key0 = (key0 + 0x9E3779B9) & 0xFFFFFFFF
        key1 = (key1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3
