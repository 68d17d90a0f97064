import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from reference import add_compound_2d, mult_compound_closed

from epistab.compound import (
    _STACK_BYTES,
    add_compound,
    add_compound2_closed,
    lex_tuples,
    mult_compound,
)
from epistab.linalg import determinant, eigenvalues

from conftest import byte_cases, match_multisets


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
    # C(19,3)**2 = 938,961 entries, under the CLI's size cap
    for n, k in ((8, 4), (10, 4), (10, 5), (16, 2), (16, 3), (19, 2), (19, 3)):
        a = rng.normal(size=(n, n))
        if k > 3:
            idx = np.array(lex_tuples(n, k)) - 1
            want = np.linalg.det(a[idx[:, None, :, None], idx[None, :, None, :]])
        else:
            want = mult_compound_closed(a, k)
        tracemalloc.start()
        out = mult_compound(a, k)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.tobytes() == want.tobytes()
        # the whole gathered stack would take len(idx)**2 * k*k * 8 bytes
        assert peak < out.nbytes + 3 * _STACK_BYTES, (n, k, peak)


def _edge_matrix(rng, n, case):
    """Seeded n x n matrices whose compounds hold signed zeros, subnormals,
    or products that overflow to inf and then meet as inf - inf = NaN."""
    a = rng.normal(size=(n, n))
    if case == "zeros":
        a.flat[rng.integers(0, n * n, size=n)] = -0.0
        a.flat[rng.integers(0, n * n, size=n)] = 0.0
    elif case == "subnormal":
        a *= 10.0 ** rng.uniform(-310, -300, size=(n, n))
    elif case == "overflow":
        a = rng.choice([-1.0, 1.0], size=(n, n)) * rng.uniform(0.5, 2.0, size=(n, n)) * 1e155
    return a


def test_mult_compound_bytes_match_the_closed_forms():
    # the first-row expansion over C_{k-1} evaluates each closed-form term in
    # the same order, so every bit agrees: -0.0, subnormals, inf and NaN included
    rng = np.random.default_rng(213)
    seen = {"nonfinite": 0, "negzero": 0, "subnormal": 0}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for n in range(1, 13):
            for case in ("plain", "zeros", "subnormal", "overflow"):
                a = _edge_matrix(rng, n, case)
                for k in range(1, min(3, n) + 1):
                    want = mult_compound_closed(a, k)
                    for out in (mult_compound(a, k), mult_compound(np.asfortranarray(a), k)):
                        assert out.flags.c_contiguous
                        assert out.tobytes() == want.tobytes(), (n, case, k)
                    seen["nonfinite"] += int((~np.isfinite(want)).sum())
                    seen["negzero"] += int(((want == 0) & np.signbit(want)).sum())
                    seen["subnormal"] += int(((want != 0) & (abs(want) < np.finfo(float).tiny)).sum())
    assert all(seen.values()), seen


def test_add_compound_bytes_match_the_2d_scatter():
    # the flat scatter writes the same products and sums the diagonal in the
    # same order as the 2-D (row, col) scatter, so every bit agrees
    rng = np.random.default_rng(229)
    seen = {"negzero": 0, "subnormal": 0}
    for n in [*range(1, 13), 16]:
        orders = range(1, n + 1) if n <= 8 else range(1, 4) if n <= 12 else (2,)
        for name, a in byte_cases(rng, n):
            for k in orders:
                want = add_compound_2d(a, k)
                out = add_compound(a, k)
                assert out.flags.c_contiguous and out.shape == want.shape
                assert out.tobytes() == want.tobytes(), (n, name, k)
                seen["negzero"] += int(((want == 0) & np.signbit(want)).sum())
                seen["subnormal"] += int(((want != 0) & (abs(want) < np.finfo(float).tiny)).sum())
    assert all(seen.values()), seen


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


def _golden_matrix(n):
    # seeded, with 0.0 and -0.0 entries (n = 1 holds only -0.0)
    a = np.random.default_rng(300 + n).normal(size=(n, n))
    a.flat[::4] = -0.0
    a.flat[1::7] = 0.0
    return a


def _digest(build, n, ks):
    h = hashlib.sha256()
    for k in ks:
        h.update(build(_golden_matrix(n), k).tobytes())
    return h.hexdigest()


# SHA-256 of the output bytes for k = 1..n (additive) and k = 1..min(3, n)
# (multiplicative, whose k >= 4 minors are LAPACK bits that vary by platform)
ADD_COMPOUND_SHA256 = {
    1: "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    2: "a8e38e42dfa5f315f9f19b664ee71a85ac0a4ff4d9621e8b8aac2d3615901c65",
    3: "75208a1ffadd943a6daffaad0b2f24fa239780c512dd1d5cf74f88ac3cf96828",
    4: "0e135ac1a6f02ee0d71e368f4736c7c893030696a073c3b6e31dc2a2096965e3",
    5: "49abd380b77c9502e3cd66a57985613747855af5bc771cfaf82f58ec77b2a1eb",
    6: "1f8cabfd02b8c8f6a20b601b26fd17fd1e0bb5bdb45e5b6a1fff0c5d02682020",
    7: "0502fb20ab97d19b9f46ffd9165cb64b1b0bfbce6fdd54470ee8005dcf13374d",
    8: "34e2ed8b5547c0ff390b61f581cf27a295da58995684ccd07f7bf6abfbb93554",
    9: "261842067714390570a05711788deb6da06795595c501cd11543adf7b4821827",
    10: "280842b8ee5d2ffbb6c7bbe4e1fbbb4fb8fb0b748d66774978f9b15fd08cd1ea",
    11: "6402a12919961f17abe0a1d3bed2a87f14ac71f3a5315314be84737cce5ca137",
    12: "1b3efb86449f5729e5903c53019ed7cfe0f77318e7568ea722c8b1646e259580",
}
MULT_COMPOUND_SHA256 = {
    1: "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb",
    2: "517409367a15c8737ab4347c338e41f2f9372ee2c686c44a6e67a193b972d4e0",
    3: "51b2636dd7c6f7877413448ec26f8f3d6e7471e2e6c6dc2892ac7f2edb25fe63",
    4: "9a89d82b4205037526ae074ada4cc342b221fea5b459da57bf69c7f0281d5c16",
    5: "41c53f6ccd82d96cdc510eafd9e4c5037c6b06086a5d5d0f5bce14be08aa2a23",
    6: "3382dd47aa7d7a9e6c4c647fae27e991b3efef9dd3a972a252f6ad884d244802",
    7: "ad226294369187c97f6e93dc983bc3f3e64b203f3af6f94513052c420529120f",
    8: "2ccc5ca5d5b8a9b272c2e7ab85f2c8c077402853df94883f6464d233ea4e6a63",
    9: "ff1b2f0422e33b3528ba3dbc1369b3b9b125d3d06a7e60b7d7bc2a71ef0b8e4e",
    10: "f2d894314248dbfc1df523d98a7d3ea18a0fe618638e9e4f93a334e3109c5bfe",
}


def test_compound_golden_digests():
    assert {n: _digest(add_compound, n, range(1, n + 1))
            for n in ADD_COMPOUND_SHA256} == ADD_COMPOUND_SHA256
    assert {n: _digest(mult_compound, n, range(1, min(3, n) + 1))
            for n in MULT_COMPOUND_SHA256} == MULT_COMPOUND_SHA256
