import itertools
import tracemalloc

import numpy as np
import pytest

from epistab.compound import (
    _STACK_BYTES,
    add_compound,
    add_compound2_closed,
    lex_tuples,
    mult_compound,
    tuple_rank,
    tuple_unrank,
)
from epistab.linalg import determinant, eigenvalues

from conftest import match_multisets


def test_lex_tuples_examples():
    assert lex_tuples(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert lex_tuples(4, 4) == [(1, 2, 3, 4)]
    pairs = lex_tuples(5, 2)
    assert len(pairs) == 10
    assert pairs[-1] == (4, 5)
    assert pairs == sorted(pairs)
    with pytest.raises(ValueError):
        lex_tuples(3, 4)
    with pytest.raises(ValueError):
        lex_tuples(3, 0)


def test_tuple_rank_round_trip():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for rank, t in enumerate(lex_tuples(n, k)):
                assert tuple_rank(n, t) == rank
                assert tuple_unrank(n, k, rank) == t
    with pytest.raises(ValueError):
        tuple_rank(5, (2, 2))
    with pytest.raises(ValueError):
        tuple_unrank(5, 2, 10)


def test_mult_compound_examples():
    np.testing.assert_allclose(mult_compound(np.diag([1.0, 2.0, 3.0]), 2),
                               np.diag([2.0, 3.0, 6.0]))
    np.testing.assert_allclose(mult_compound(np.eye(5), 2), np.eye(10))


def test_mult_compound_matches_direct_minors():
    rng = np.random.default_rng(201)
    a = rng.normal(size=(4, 4))
    c3 = mult_compound(a, 3)
    tups = lex_tuples(4, 3)
    for ri, rows in enumerate(tups):
        for ci, cols in enumerate(tups):
            sub = a[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]
            assert c3[ri, ci] == pytest.approx(determinant(sub), abs=1e-12)
    # k >= 4 minors are one batched LAPACK determinant over the stack of blocks;
    # it agrees bit for bit with determinant on each block
    for n in (6, 8):
        b = rng.normal(size=(n, n))
        c4 = mult_compound(b, 4)
        tups = lex_tuples(n, 4)
        for ri, rows in enumerate(tups):
            for ci, cols in enumerate(tups):
                sub = b[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]
                assert c4[ri, ci] == determinant(sub)


def test_mult_compound_memory_is_bounded():
    rng = np.random.default_rng(207)
    for n, k in ((8, 4), (10, 4), (10, 5)):
        a = rng.normal(size=(n, n))
        idx = np.array(lex_tuples(n, k)) - 1
        whole = np.linalg.det(a[idx[:, None, :, None], idx[None, :, None, :]])
        tracemalloc.start()
        out = mult_compound(a, k)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.tobytes() == whole.tobytes()
        # the whole gathered stack would take len(idx)**2 * k*k * 8 bytes
        assert peak < out.nbytes + 3 * _STACK_BYTES, (n, k, peak)


def test_add_compound_examples():
    a = np.array([[1.5, 2.0], [3.0, -0.5]])
    np.testing.assert_allclose(add_compound(a, 2), [[1.0]])  # trace
    np.testing.assert_allclose(add_compound(np.diag([1.0, 2.0, 3.0]), 2),
                               np.diag([3.0, 4.0, 5.0]))
    # signed zeros: for n = 3, A^[2] holds -a13 at (1,3) and -a31 at (3,1)
    np.testing.assert_array_equal(np.signbit(add_compound(np.zeros((3, 3)), 2)),
                                  [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    # negating -0.0 gives +0.0, and each diagonal sum starts from +0.0
    np.testing.assert_array_equal(np.signbit(add_compound(np.full((3, 3), -0.0), 2)),
                                  [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_add_compound_matches_printed_3x3_template():
    rng = np.random.default_rng(202)
    a = rng.normal(size=(3, 3))
    expected = np.array([
        [a[0, 0] + a[1, 1], a[1, 2], -a[0, 2]],
        [a[2, 1], a[0, 0] + a[2, 2], a[0, 1]],
        [-a[2, 0], a[1, 0], a[1, 1] + a[2, 2]],
    ])
    np.testing.assert_array_equal(add_compound(a, 2), expected)


def test_first_compounds_are_identity_maps():
    rng = np.random.default_rng(203)
    a = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(add_compound(a, 1), a)
    np.testing.assert_array_equal(mult_compound(a, 1), a)


def test_additive_compound_is_derivative_of_multiplicative():
    # A^[k] = d/dh C_k(I + hA) at h = 0, probed by central differences
    rng = np.random.default_rng(204)
    h = 1e-6
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        a = rng.normal(size=(n, n))
        eye = np.eye(n)
        fd = (mult_compound(eye + h * a, k) - mult_compound(eye - h * a, k)) / (2.0 * h)
        assert abs(fd - add_compound(a, k)).max() < 1e-8


def test_eigenvalue_sum_law():
    rng = np.random.default_rng(205)
    for n, k in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        for _ in range(10):
            a = rng.normal(size=(n, n))
            ev = eigenvalues(a)
            sums = [sum(c) for c in itertools.combinations(ev, k)]
            assert match_multisets(eigenvalues(add_compound(a, k)), sums) < 1e-7


def test_eigenvalue_product_law():
    rng = np.random.default_rng(206)
    for n, k in [(3, 2), (4, 2), (5, 2), (5, 3)]:
        for _ in range(10):
            a = rng.normal(size=(n, n))
            ev = eigenvalues(a)
            prods = [np.prod(c) for c in itertools.combinations(ev, k)]
            assert match_multisets(eigenvalues(mult_compound(a, k)), prods) < 1e-7


def test_binet_cauchy():
    rng = np.random.default_rng(207)
    for k in (2, 3):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5))
            lhs = mult_compound(a @ b, k)
            rhs = mult_compound(a, k) @ mult_compound(b, k)
            assert abs(lhs - rhs).max() < 1e-9


def test_structural_properties():
    rng = np.random.default_rng(208)
    d = np.diag(rng.normal(size=5))
    c2 = mult_compound(d, 2)
    assert np.array_equal(c2, np.diag(np.diag(c2)))
    u = np.triu(rng.normal(size=(5, 5)))
    assert np.array_equal(np.tril(mult_compound(u, 2), -1), np.zeros((10, 10)))
    a = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(mult_compound(a.T, 2), mult_compound(a, 2).T)


def test_trace_identity():
    rng = np.random.default_rng(209)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        total = 1.0 + determinant(a)
        for k in range(1, 4):
            total += np.trace(mult_compound(a, k))
        assert determinant(a + np.eye(4)) == pytest.approx(total, abs=1e-8)


def test_closed_template_equals_general_rule():
    rng = np.random.default_rng(210)
    for n in (3, 4, 5):
        for _ in range(200):
            a = rng.normal(size=(n, n))
            assert np.array_equal(add_compound2_closed(a), add_compound(a, 2))
    with pytest.raises(ValueError):
        add_compound2_closed(np.eye(6))


def test_closed_template_4x4_signature_entries():
    # spot entries of the printed n=4 template: (1,2) = a23, (1,4) = -a13
    rng = np.random.default_rng(211)
    a = rng.normal(size=(4, 4))
    t = add_compound2_closed(a)
    assert t[0, 1] == a[1, 2]
    assert t[0, 3] == -a[0, 2]


def test_closed_template_diagonal_sums():
    a = np.diag([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(add_compound2_closed(a), np.diag([3.0, 4.0, 5.0]))


def test_closed_template_n5_on_sparse_pattern():
    # with a13=a23=a24=a25=a31=a35=a41=a45=a54=0, row 1 of the compound keeps
    # only the diagonal and the -a14, -a15 entries
    rng = np.random.default_rng(212)
    a = rng.normal(size=(5, 5))
    for i, j in ((1, 3), (2, 3), (2, 4), (2, 5), (3, 1), (3, 5), (4, 1), (4, 5), (5, 4)):
        a[i - 1, j - 1] = 0.0
    t = add_compound2_closed(a)
    np.testing.assert_array_equal(
        t[0], [a[0, 0] + a[1, 1], 0.0, 0.0, 0.0, 0.0, -a[0, 3], -a[0, 4], 0.0, 0.0, 0.0])
    assert t[3, 9] == a[0, 3]   # row (1,5), col (4,5) keeps +a14
    assert t[9, 8] == a[3, 2]   # row (4,5), col (3,5) is +a43
