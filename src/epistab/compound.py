"""Multiplicative and additive compound matrices.

Rows and columns of a k-th compound are indexed by the strictly increasing
k-tuples of {1..n} in lexicographic order.  Tuples keep 1-based values (the
convention used throughout reports); ranks are 0-based.

The additive compound A^[k] has diagonal entries a_{i1,i1} + ... + a_{ik,ik},
and, where the row tuple ((i)) and column tuple ((j)) share all but one
index, the entry (-1)^(r+s) * a_{i_s, j_r} with s the 1-based position of the
leftover index of ((i)) and r that of ((j)).  This orientation reproduces the
standard closed-form templates for n = 3, 4, 5 and satisfies
A^[k] = d/dh C_k(I + hA) at h = 0.

Each public builder validates A once and calls an unchecked kernel
(``_mult``, ``_add``), which callers holding a validated matrix call
directly.  Both kernels read index arrays cached per (n, k) and built once
from :func:`lex_tuples` alone: a tuple's rank is its position in that list.
For k <= 3, C_k(A) has one rule: each minor is expanded along its first row
over C_{k-1}(A), starting from C_1(A) = A,

    det A(alpha|beta) = sum_s (-1)^s a[alpha_1, beta_s] det A(alpha - alpha_1 | beta - beta_s),

with the terms summed left to right, a few plan columns at a time.  For
k >= 4 it gathers the k x k blocks a few plan rows at a time and takes
batched LAPACK determinants, whose pivoting keeps the stability that a
Laplace expansion loses as k grows.  A^[k] is planned by flat index: one
1-D assignment puts each signed a_ij at its flat position in a zero buffer,
and the diagonal sums, gathered from A in tuple order from 0.0, are added
through the buffer's strided diagonal.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .linalg import as_square

# bytes of one chunk's working arrays in mult_compound: the gathered stack of
# k x k blocks for k >= 4, or the two factors of an expansion term for k <= 3
# (a single chunk up to n = 12 at k = 3)
_STACK_BYTES = 2**20


def lex_tuples(n, k):
    """All C(n,k) strictly increasing k-tuples of 1..n, lexicographically sorted."""
    if not 1 <= k <= n:
        raise ValueError(f"order k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return list(itertools.combinations(range(1, n + 1), k))


def _frozen(rows, width):
    a = np.array(rows, dtype=np.intp).reshape(-1, width)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _index(n, k):
    """(C(n,k), k): the k-tuples, 0-based, in rank order."""
    return _frozen([[i - 1 for i in t] for t in lex_tuples(n, k)], k)


@lru_cache(maxsize=64)
def _scatter(n, k):
    """A^[k] by flat positions: (pos, src, sign, diag).  For each off-diagonal
    entry, whose row and column tuples share all but one index, its position
    in A^[k], the position in A of a_ij with i and j the leftover indices,
    and the sign as a float; diag[c] holds, for each k-tuple in rank order,
    the position in A of the a_ii of its c-th index."""
    tups = lex_tuples(n, k)
    rank = {t: r for r, t in enumerate(tups)}
    pos, src, sign = [], [], []
    for row, t in enumerate(tups):
        for s, i in enumerate(t):
            for j in range(1, n + 1):
                if j not in t:
                    col = tuple(sorted(t[:s] + t[s + 1:] + (j,)))
                    pos.append(row * len(tups) + rank[col])
                    src.append((i - 1) * n + j - 1)
                    sign.append((-1.0) ** (s + col.index(j)))
    plan = (np.array(pos, dtype=np.intp), np.array(src, dtype=np.intp), np.array(sign),
            np.ascontiguousarray(_index(n, k).T * (n + 1)))
    for a in plan:
        a.flags.writeable = False
    return plan


@lru_cache(maxsize=64)
def _drops(n, k):
    """(k, C(n,k)) ranks among the (k-1)-tuples: row s holds, for each k-tuple
    in rank order, the rank of the tuple with its position s removed."""
    rank = {t: r for r, t in enumerate(lex_tuples(n, k - 1))}
    return _frozen([[rank[t[:s] + t[s + 1:]] for s in range(k)] for t in lex_tuples(n, k)], k).T


def mult_compound(a, k):
    """C_k(A): the C(n,k) x C(n,k) matrix of all k x k minors det A(alpha|beta)."""
    return _mult(as_square(a), k)


def _mult(m, k):
    """C_k(M) of an already validated square M, C-contiguous."""
    idx = _index(m.shape[0], k)
    if k == 1:
        return np.ascontiguousarray(m)
    size = len(idx)
    out = np.empty((size, size))
    if k > 3:
        rows = max(1, _STACK_BYTES // (size * k * k * m.itemsize))  # plan rows per chunk
        for r in range(0, size, rows):
            out[r:r + rows] = np.linalg.det(m[idx[r:r + rows, None, :, None], idx[None, :, None, :]])
        return out
    # the first-row expansion over C_{k-1}(A), a few plan columns at a time; term s
    # multiplies a[alpha_1, beta_s] by C_{k-1}(A) at (alpha's tail, beta without beta_s)
    prev, drop = _mult(m, k - 1), _drops(m.shape[0], k)
    cols = max(1, _STACK_BYTES // (2 * size * m.itemsize))  # plan columns per chunk
    for c in range(0, size, cols):
        acc = out[:, c:c + cols]
        for s in range(k):
            term = m.take(idx[c:c + cols, s], axis=1).take(idx[:, 0], axis=0)
            term *= prev.take(drop[s, c:c + cols], axis=1).take(drop[0], axis=0)
            if s == 0:
                acc[...] = term
            elif s % 2:
                acc -= term
            else:
                acc += term
    return out


def add_compound(a, k):
    """A^[k]: the k-th additive compound."""
    return _add(as_square(a), k)


def _add(m, k):
    """A^[k] of an already validated square M."""
    pos, src, sign, diag = _scatter(m.shape[0], k)
    size = diag.shape[1]
    out = np.zeros(size * size)
    off = m.take(src)
    off *= sign
    out[pos] = off  # assignment: a negated 0.0 stays -0.0
    # diagonal sums in tuple order from 0.0, so a lone -0.0 term gives 0.0
    sums = out[::size + 1]
    for c in range(k):
        sums += m.take(diag[c])
    return out.reshape(size, size)


def add_compound2_closed(a):
    """Second additive compound from the hard-coded closed-form template.

    Supported for n in {3, 4, 5}; equal to ``add_compound(a, 2)`` bit for bit.
    """
    m = as_square(a)
    n = m.shape[0]
    if n == 3:
        return _closed3(m)
    if n == 4:
        return _closed4(m)
    if n == 5:
        return _closed5(m)
    raise ValueError(f"closed-form template only for n in {{3, 4, 5}}, got n={n}")


def _closed3(a):
    return np.array([
        [a[0, 0] + a[1, 1], a[1, 2], -a[0, 2]],
        [a[2, 1], a[0, 0] + a[2, 2], a[0, 1]],
        [-a[2, 0], a[1, 0], a[1, 1] + a[2, 2]],
    ])


def _closed4(a):
    z = 0.0
    return np.array([
        [a[0, 0] + a[1, 1], a[1, 2], a[1, 3], -a[0, 2], -a[0, 3], z],
        [a[2, 1], a[0, 0] + a[2, 2], a[2, 3], a[0, 1], z, -a[0, 3]],
        [a[3, 1], a[3, 2], a[0, 0] + a[3, 3], z, a[0, 1], a[0, 2]],
        [-a[2, 0], a[1, 0], z, a[1, 1] + a[2, 2], a[2, 3], -a[1, 3]],
        [-a[3, 0], z, a[1, 0], a[3, 2], a[1, 1] + a[3, 3], a[1, 2]],
        [z, -a[3, 0], a[2, 0], -a[3, 1], a[2, 1], a[2, 2] + a[3, 3]],
    ])


def _closed5(a):
    z = 0.0
    return np.array([
        [a[0, 0] + a[1, 1], a[1, 2], a[1, 3], a[1, 4], -a[0, 2], -a[0, 3], -a[0, 4], z, z, z],
        [a[2, 1], a[0, 0] + a[2, 2], a[2, 3], a[2, 4], a[0, 1], z, z, -a[0, 3], -a[0, 4], z],
        [a[3, 1], a[3, 2], a[0, 0] + a[3, 3], a[3, 4], z, a[0, 1], z, a[0, 2], z, -a[0, 4]],
        [a[4, 1], a[4, 2], a[4, 3], a[0, 0] + a[4, 4], z, z, a[0, 1], z, a[0, 2], a[0, 3]],
        [-a[2, 0], a[1, 0], z, z, a[1, 1] + a[2, 2], a[2, 3], a[2, 4], -a[1, 3], -a[1, 4], z],
        [-a[3, 0], z, a[1, 0], z, a[3, 2], a[1, 1] + a[3, 3], a[3, 4], a[1, 2], z, -a[1, 4]],
        [-a[4, 0], z, z, a[1, 0], a[4, 2], a[4, 3], a[1, 1] + a[4, 4], z, a[1, 2], a[1, 3]],
        [z, -a[3, 0], a[2, 0], z, -a[3, 1], a[2, 1], z, a[2, 2] + a[3, 3], a[3, 4], -a[2, 4]],
        [z, -a[4, 0], z, a[2, 0], -a[4, 1], z, a[2, 1], a[4, 3], a[2, 2] + a[4, 4], a[2, 3]],
        [z, z, -a[4, 0], a[3, 0], z, -a[4, 1], a[3, 1], -a[4, 2], a[3, 2], a[3, 3] + a[4, 4]],
    ])
