import numpy as np
import pytest
from reference import det4_block, lu_solve

from epistab.linalg import (
    DimensionError,
    SingularMatrixError,
    _lu_solve,
    as_matrix,
    determinant,
    eigenvalues,
    inverse,
    solve,
    spectral_abscissa,
    spectral_radius,
)

from conftest import match_multisets


def test_as_matrix_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        determinant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_determinant_examples():
    assert determinant(np.eye(3)) == 1.0
    assert determinant(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0])) == pytest.approx(-120.0, rel=1e-12)
    # 2x2 cofactor by hand: 2*2 - 1*1
    assert determinant([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, rel=1e-12)
    assert determinant(np.zeros((0, 0))) == 1.0  # the empty product
    # exactly singular: +0.0, also when the LU diagonal holds a negative entry
    for a in ([[0.0, 1.0], [0.0, -1.0]], np.zeros((3, 3)), [[1.0, 2.0], [2.0, 4.0]], [[-0.0]]):
        d = determinant(a)
        assert d == 0.0 and not np.signbit(d)


def test_determinant_multiplicative_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_inverse_examples():
    np.testing.assert_allclose(inverse(np.eye(4)), np.eye(4))
    np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    # adjugate by hand: inv = (1/3)[[2,1],[1,2]]
    np.testing.assert_allclose(inverse([[2.0, -1.0], [-1.0, 2.0]]),
                               np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12)
    assert inverse(np.zeros((0, 0))).shape == (0, 0)  # the empty matrix is invertible


def test_inverse_reconstruction_inf_norm():
    rng = np.random.default_rng(102)
    for _ in range(30):
        a = rng.normal(size=(6, 6))
        err = abs(a @ inverse(a) - np.eye(6)).max()
        assert err < 1e-9


def test_singular_matrix_error_carries_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as exc:
        inverse(a)
    assert exc.value.pivot < 1e-12
    assert determinant(a) == pytest.approx(0.0, abs=1e-14)


def test_solve_matches_inverse():
    rng = np.random.default_rng(103)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    np.testing.assert_allclose(solve(a, b), inverse(a) @ b, atol=1e-9)


def _lu_outcome(f, *args):
    """The bytes of ``f(*args)``, or the pivot and message of its SingularMatrixError."""
    try:
        return f(*args).tobytes()
    except SingularMatrixError as exc:
        return exc.pivot, str(exc)


def _lu_cases():
    rng = np.random.default_rng(20260812)
    for n in range(1, 17):
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            yield rng.normal(size=(n, n)) * scale
        yield rng.integers(-4, 5, size=(n, n)).astype(float)   # integer entries
        yield np.arange(n * n, dtype=float).reshape(n, n)      # singular for n >= 3
        if n == 1:
            continue
        zero_col, dup_row, dep_col = (rng.normal(size=(n, n)) for _ in range(3))
        zero_col[:, rng.integers(n)] = 0.0
        dup_row[rng.integers(1, n)] = dup_row[0]
        dep_col[:, 1] = dep_col[:, 0] / 3.0    # a tiny nonzero pivot at the second step
        yield from (zero_col, dup_row, dep_col)
        yield rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))  # rank n - 1


def test_inverse_and_solve_bytes_match_the_reference_lu():
    rng = np.random.default_rng(7)
    singular = 0
    for a in _lu_cases():
        n = a.shape[0]
        b = rng.normal(size=n)
        want = _lu_outcome(lu_solve, a, np.eye(n))
        assert _lu_outcome(inverse, a) == want
        assert _lu_outcome(solve, a, b) == _lu_outcome(lu_solve, a, b)
        singular += type(want) is tuple
    assert singular >= 30  # the pivot of the singular error is compared too


def test_stacked_inverse_matches_the_reference_lu_member_by_member():
    by_order = {}
    for a in _lu_cases():
        by_order.setdefault(a.shape[0], []).append(a)
    rng = np.random.default_rng(8)
    mixed = 0
    for n, cases in by_order.items():
        for _ in range(6):  # stacks of 2 or more cases of one order, in a seeded order
            stack = np.array([cases[i] for i in rng.permutation(len(cases))[:rng.integers(2, 9)]])
            want = [_lu_outcome(lu_solve, a, np.eye(n)) for a in stack]
            regular = [w for w in want if type(w) is bytes]
            failing = [k for k, w in enumerate(want) if type(w) is tuple]
            if failing:  # the first failing member's pivot and message
                assert _lu_outcome(inverse, stack) == want[failing[0]]
                if failing[0]:  # the members before it, as a stack of their own
                    assert [x.tobytes() for x in inverse(stack[:failing[0]])] == want[:failing[0]]
            if regular:
                ok = stack[[type(w) is bytes for w in want]]
                assert [x.tobytes() for x in inverse(ok)] == regular
                assert [x.tobytes() for x in inverse(ok[None])[0]] == regular
            mixed += bool(regular) and bool(failing)
    assert mixed >= 30


def test_lu_blocks_keep_the_bits_they_get_alone():
    # several right-hand-side blocks share one elimination; each block's
    # solution has the bytes of a solve with that block alone
    rng = np.random.default_rng(9)
    for n in range(1, 11):
        for lead in ((), (3,)):
            a = rng.normal(size=lead + (n, n)) * 10.0 ** rng.uniform(-3, 3)
            blocks = (np.eye(n), np.ones((n, 1)), rng.normal(size=lead + (n, 2)))
            together = _lu_solve(a, *blocks)
            assert len(together) == len(blocks)
            for x, b in zip(together, blocks):
                alone, = _lu_solve(a, b)
                assert x.shape == alone.shape and x.tobytes() == alone.tobytes()
    with pytest.raises(SingularMatrixError):
        _lu_solve(np.ones((3, 3)), np.eye(3), np.ones((3, 1)))


def test_stacked_spectra_match_one_matrix_at_a_time():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 10):
        stack = rng.normal(size=(7, n, n))
        stack[0] = np.diag(rng.normal(size=n))  # a real spectrum among complex ones
        assert spectral_radius(stack) == [spectral_radius(a) for a in stack]
        assert spectral_abscissa(stack) == [spectral_abscissa(a) for a in stack]
        assert eigenvalues(stack).shape == (7, n)
    with pytest.raises(DimensionError):
        inverse(np.zeros((2, 3, 4)))


def test_eigenvalue_examples():
    assert match_multisets(eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3]) < 1e-9
    assert match_multisets(eigenvalues([[0.0, -1.0], [1.0, 0.0]]), [1j, -1j]) < 1e-9
    # companion matrix of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    comp = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert match_multisets(eigenvalues(comp), [1, 2, 3]) < 1e-9


def test_eigenvalues_conjugate_closure_and_transpose():
    rng = np.random.default_rng(104)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        ev = eigenvalues(a)
        assert match_multisets(ev, np.conj(ev)) < 1e-9
        assert match_multisets(ev, eigenvalues(a.T)) < 1e-8


def test_eigenvalues_dimension_cap():
    with pytest.raises(DimensionError):
        eigenvalues(np.eye(17))


def test_spectral_abscissa_examples():
    assert spectral_abscissa(np.diag([-1.0, -2.0, -3.0])) == pytest.approx(-1.0, abs=1e-12)
    assert spectral_abscissa([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert spectral_abscissa([[1.0, 2.0], [0.0, -5.0]]) == pytest.approx(1.0, abs=1e-12)


def test_spectral_abscissa_shift_law():
    rng = np.random.default_rng(105)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        c = rng.normal()
        assert spectral_abscissa(a + c * np.eye(5)) == pytest.approx(
            spectral_abscissa(a) + c, abs=1e-9)


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5, abs=1e-12)
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    # lambda^2 = 1
    assert spectral_radius([[0.0, 2.0], [0.5, 0.0]]) == pytest.approx(1.0, abs=1e-12)


def test_det4_block_examples():
    assert det4_block(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert det4_block(np.diag([1.0, 2.0, 3.0, 4.0])) == pytest.approx(24.0, abs=1e-12)
    a = np.zeros((4, 4))
    a[0, 0], a[0, 1], a[0, 3] = 1.0, 2.0, 3.0
    a[1, 0], a[1, 1] = 4.0, 5.0
    a[2, 1], a[2, 2] = 6.0, 7.0
    a[3, 1], a[3, 2], a[3, 3] = 8.0, 9.0, 10.0
    assert det4_block(a) == pytest.approx(determinant(a), rel=1e-10, abs=1e-10)
    with pytest.raises(DimensionError):
        det4_block(np.eye(3))


def test_det4_block_matches_elimination_on_randoms():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        d1, d2 = det4_block(a), determinant(a)
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)
