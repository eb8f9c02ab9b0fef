from functools import reduce

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    TOLERANCES,
    NotHermitianError,
    all_subsets,
    eighth_root,
    is_ppt,
    partial_transpose,
    rho_lambda,
    state_from,
    x_state,
)
from spanwitness.family import CANONICAL_TEN_ROWS, FamilyParams, ZeroFamily, default_zero_sample
from spanwitness.tensor import conjugation_stack, kron_rows

SUBSETS3 = all_subsets(3)


def test_all_subsets_order():
    assert SUBSETS3 == [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]


def kron_flat(factors, subset=()):
    """Oracle: one product vector's factors, those of `subset` conjugated, multiplied out by np.kron."""
    return reduce(np.kron, [f.conj() if j + 1 in subset else f for j, f in enumerate(factors)])


def random_factors(rng, dims, count):
    """Each party's factors of `count` random product vectors, as one (count, d_j) array."""
    return [rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)) for d in dims]


def test_flatten_basis():
    v = kron_rows([np.array([1, 0], dtype=complex)] * 3)
    assert np.array_equal(v, np.eye(8)[0])


def test_flatten_two_party_grouping():
    # (1, conj(a)) (x) (0, 1, a, 0) lands on coordinates
    # (0, 1, a, 0, 0, conj(a), |a|^2, 0)
    a = 0.3 + 0.8j
    factors = [np.array([1, np.conj(a)]), np.array([0, 1, a, 0])]
    expected = np.array([0, 1, a, 0, 0, np.conj(a), abs(a) ** 2, 0], dtype=complex)
    assert np.allclose(kron_rows(factors), expected, atol=1e-14)


def z1_at_one_one():
    """Z1 at (a, b) = (1, 1), at the canonical parameters, a row of the default
    sample: its three factors as a (3, 2) array."""
    labels, factors = default_zero_sample(CANONICAL)
    row = CANONICAL_TEN_ROWS[6]
    assert labels[row] == ZeroFamily.Z1
    return factors[:, row]


def test_flatten_phase_locked_vector():
    z1 = z1_at_one_one()
    w = eighth_root
    expected = np.array([1, w(3), w(1), -1, w(7), w(2), 1, w(3)])
    assert np.allclose(kron_rows(z1), expected, atol=1e-14)


def test_flatten_equals_kron_reduction():
    rng = np.random.default_rng(41)
    for dims in ((2, 2, 2), (2, 4), (4, 2), (2, 3, 4)):
        factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        assert np.array_equal(kron_rows(factors), reduce(np.kron, factors))


def test_stacked_flatten_matches_flatten_row_by_row():
    # one stacked Kronecker path: every row of the family's stack, and of
    # each conjugated copy, is the single vector's factors, conjugated one
    # by one and multiplied out with np.kron, bit for bit
    rng = np.random.default_rng(43)
    for dims in ((2, 3, 2), (2, 4), (2, 3, 4)):
        factors = random_factors(rng, dims, 5)
        flats = kron_rows(factors)
        dim = int(np.prod(dims))
        assert flats.shape == (5, dim)
        stack = conjugation_stack(factors)
        assert stack.shape == (2 ** len(dims), 5, dim)
        for i in range(5):
            row = [f[i] for f in factors]
            assert np.array_equal(flats[i], reduce(np.kron, row))
            for k, sub in enumerate(all_subsets(len(dims))):
                assert np.array_equal(stack[k, i], kron_flat(row, sub))


def test_partial_transpose_empty_and_full():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    state = state_from(g, (2, 2, 2))
    assert np.array_equal(partial_transpose(state, ()), g)
    assert np.array_equal(partial_transpose(state, (1, 2, 3)), g.T)


def test_partial_transpose_single_swap():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 7] = 1.0  # |000><111|
    state = state_from(m, (2, 2, 2))
    got = partial_transpose(state, (3,))
    expected = np.zeros((8, 8), dtype=complex)
    expected[1, 6] = 1.0  # |001><110|
    assert np.array_equal(got, expected)


def test_partial_transpose_involution_and_composition():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    state = state_from(g, (2, 2, 2))
    for sub in SUBSETS3:
        once = partial_transpose(state, sub)
        twice = partial_transpose(state_from(once, (2, 2, 2)), sub)
        assert np.array_equal(twice, g)
    step = partial_transpose(state, (1,))
    composed = partial_transpose(state_from(step, (2, 2, 2)), (3,))
    assert np.array_equal(composed, partial_transpose(state, (1, 3)))


def test_partial_transpose_preserves_trace_and_spectrum_pairing():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2
    state = state_from(h, (2, 2, 2))
    for sub in SUBSETS3:
        pt = partial_transpose(state, sub)
        assert abs(np.trace(pt) - np.trace(h)) < 1e-10
        # S and its complement carry transpose-related, equal spectra
        ptc = partial_transpose(state, tuple(j for j in (1, 2, 3) if j not in sub))
        assert np.allclose(
            np.linalg.eigvalsh(pt), np.linalg.eigvalsh(ptc), atol=1e-10
        )


def test_partial_conjugate_real_and_full():
    real = np.array([[1, 2], [3, 4], [5, 6]], dtype=complex)[:, None]
    stack = conjugation_stack(real)
    for k in range(8):
        assert np.array_equal(stack[k, 0], reduce(np.kron, real[:, 0]))
    pvc = np.array([[1, 1j], [1, -1j], [1j, 0]])
    stack = conjugation_stack(pvc[:, None])
    assert np.array_equal(stack[SUBSETS3.index((1, 2, 3)), 0], reduce(np.kron, pvc).conj())


def test_partial_conjugate_first_factor_of_z1():
    z1 = z1_at_one_one()
    assert np.allclose(z1[0].conj(), [1, eighth_root(1)], atol=1e-15)
    got = conjugation_stack(z1[:, None])[SUBSETS3.index((1,)), 0]
    assert np.array_equal(got, reduce(np.kron, [z1[0].conj(), z1[1], z1[2]]))


def test_partial_conjugate_complement_conjugation_identity():
    # conjugation_ranks ranks half the stack and copies each rank to the
    # complementary subset: its rows are the entrywise conjugates
    rng = np.random.default_rng(12)
    stack = conjugation_stack(random_factors(rng, (2, 2, 2), 20))
    for k, sub in enumerate(SUBSETS3):
        assert SUBSETS3[7 - k] == tuple(j for j in (1, 2, 3) if j not in sub)
        assert np.max(np.abs(stack[k] - stack[7 - k].conj())) < 1e-12


def test_pure_product_partial_transpose_matches_partial_conjugate():
    rng = np.random.default_rng(21)
    factors = random_factors(rng, (2, 2, 2), 10)
    stack = conjugation_stack(factors)
    for i in range(10):
        v = reduce(np.kron, [f[i] for f in factors])
        rho = state_from(np.outer(v, v.conj()), (2, 2, 2))
        for k, sub in enumerate(SUBSETS3):
            gamma = stack[k, i]
            expected = np.outer(gamma, gamma.conj())
            assert np.max(np.abs(partial_transpose(rho, sub) - expected)) < 1e-12


def test_is_ppt_product_projector():
    v = reduce(np.kron, np.array([[1, 1j], [2, 1], [0, 1]]))
    rep = is_ppt(state_from(np.outer(v, v.conj()), (2, 2, 2)), tol=1e-12)
    assert rep.is_ppt
    assert all(v >= -1e-12 for v in rep.min_eigenvalues.values())
    assert len(rep.min_eigenvalues) == 8


def test_is_ppt_x_state_on_curve():
    assert is_ppt(x_state(CANONICAL), 1e-10).is_ppt


def test_is_ppt_x_state_off_curve_fails_at_identity_subset():
    rep = is_ppt(x_state(FamilyParams(2.0, 2.0)), 1e-10)
    assert not rep.is_ppt
    # the central block [[1/sqrt2, -1], [-1, 1/sqrt2]] has eigenvalue
    # 1/sqrt2 - 1 already before any transposition
    assert abs(rep.min_eigenvalues[()] - (1 / np.sqrt(2) - 1)) < 1e-12


def test_is_ppt_rejects_non_hermitian():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        is_ppt(state_from(m, (2, 2, 2)))


def test_interior_check_maximally_mixed():
    # a PPT state is interior to the PPT cone iff every partial transpose is
    # positive definite: its least eigenvalue ratio exceeds the strict floor
    assert is_ppt(state_from(np.eye(8) / 8, (2, 2, 2))).min_ratio == 1.0


def test_interior_check_pure_product():
    v = reduce(np.kron, np.array([[1, 0], [1, 0], [1, 0]], dtype=complex))
    rep = is_ppt(state_from(np.outer(v, v.conj()), (2, 2, 2)))
    assert rep.is_ppt
    assert rep.min_ratio == 0.0 <= TOLERANCES["strict"]


def test_interior_check_boundary_family_midpoint():
    state, _ = rho_lambda(0.5)
    rep = is_ppt(state)
    assert rep.is_ppt
    assert rep.min_ratio > TOLERANCES["strict"]
    assert abs(rep.min_ratio - 0.026) < 1e-3
