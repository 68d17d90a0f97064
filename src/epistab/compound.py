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

Both builders read an index plan cached per (n, k) and built once from
:func:`lex_tuples` alone: a tuple's rank is its position in that list.
C_k(A) gathers the k x k blocks a few plan rows at a time, each chunk's
stack within ``_STACK_BYTES``, and takes their minors over the stack (closed
forms for k <= 3, batched LAPACK determinants for k >= 4); A^[k] is one
scatter assignment plus the diagonal sums.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .linalg import as_square

# bytes of one gathered stack of k x k blocks in mult_compound; a 10x10
# matrix at k = 3 (1,036,800 bytes) still takes a single chunk
_STACK_BYTES = 2**20


def lex_tuples(n, k):
    """All C(n,k) strictly increasing k-tuples of 1..n, lexicographically sorted."""
    if not 1 <= k <= n:
        raise ValueError(f"order k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return list(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=64)
def _plan(n, k):
    """The (n, k) plan: ``idx``, the tuples 0-based in rank order, and ``scatter``,
    (row, col, i, j, sign) for each off-diagonal entry of A^[k], whose row and
    column tuples share all but one index; i and j are the leftover indices."""
    tups = lex_tuples(n, k)
    rank = {t: r for r, t in enumerate(tups)}
    scatter = []
    for row, t in enumerate(tups):
        for s, i in enumerate(t):
            for j in range(1, n + 1):
                if j not in t:
                    col = tuple(sorted(t[:s] + t[s + 1:] + (j,)))
                    sign = (-1) ** (s + col.index(j))
                    scatter.append((row, rank[col], i - 1, j - 1, sign))
    idx = np.array(tups, dtype=np.intp) - 1
    scatter = np.array(scatter, dtype=np.intp).reshape(-1, 5).T
    idx.flags.writeable = scatter.flags.writeable = False
    return idx, scatter


def _minors(b):
    """Determinants of the k x k blocks on the last two axes of ``b``."""
    k = b.shape[-1]
    if k == 1:
        return b[..., 0, 0]
    if k == 2:
        return b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
    if k == 3:
        return (
            b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
            - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
            + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0])
        )
    return np.linalg.det(b)


def mult_compound(a, k):
    """C_k(A): the C(n,k) x C(n,k) matrix of all k x k minors det A(alpha|beta)."""
    m = as_square(a)
    idx, _ = _plan(m.shape[0], k)
    size = len(idx)
    out = np.empty((size, size))
    rows = max(1, _STACK_BYTES // (size * k * k * m.itemsize))  # plan rows per chunk
    for r in range(0, size, rows):
        out[r:r + rows] = _minors(m[idx[r:r + rows, None, :, None], idx[None, :, None, :]])
    return out


def add_compound(a, k):
    """A^[k]: the k-th additive compound."""
    m = as_square(a)
    idx, (row, col, i, j, sign) = _plan(m.shape[0], k)
    out = np.zeros((len(idx), len(idx)))
    out[row, col] = sign * m[i, j]  # assignment: a negated 0.0 stays -0.0
    # diagonal sums in tuple order from 0.0, so a lone -0.0 term gives 0.0
    diag = np.zeros(len(idx))
    for c in range(k):
        diag += m[idx[:, c], idx[:, c]]
    np.fill_diagonal(out, diag)
    return out


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
