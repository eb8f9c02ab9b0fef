import random
from functools import reduce

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    DimensionMismatchError,
    FamilyParams,
    OutOfRangeError,
    SeparableDecomposition,
    ST8_GRID,
    TOLERANCES,
    Verdict,
    assemble,
    biseparable_vector,
    detect,
    is_ppt,
    pairing,
    perturbed_detected_state,
    rho0,
    rho1,
    rho_lambda,
    state_from,
    value_on_product,
    verify_decomposition,
    witness_matrix,
    x_state,
)
from spanwitness.family import CANONICAL_TEN_ROWS, SQRT2, default_zero_sample

OMEGA = complex(SQRT2 / 2, SQRT2 / 2)


def test_x_state_layout():
    state = x_state(CANONICAL)
    m = state.matrix
    assert abs(np.trace(m) - 8.0) < 1e-12
    assert np.array_equal(np.diag(m).real, [1, 1, 1, 1, 1, 1, 1, 1])
    assert m[0, 7] == -1 and m[1, 6] == -1 and m[2, 5] == 1 and m[3, 4] == -1
    assert np.count_nonzero(m) == 16
    uneven = x_state(FamilyParams(2.0, 4.0)).matrix
    assert abs(uneven[3, 3] - 2.0 / (2 * SQRT2)) < 1e-15
    assert abs(uneven[4, 4] - 4.0 / (2 * SQRT2)) < 1e-15


def test_x_state_ppt_on_curve_detected_by_pairing():
    for params in ST8_GRID:
        state = x_state(params)
        w = witness_matrix(params)
        assert is_ppt(state, 1e-10).is_ppt
        expected = params.s * params.t / SQRT2 - 8.0
        assert abs(pairing(state, w) - expected) < 1e-10
        assert abs(expected - (8.0 / SQRT2 - 8.0)) < 1e-12


def test_x_state_off_curve_not_psd():
    rep = is_ppt(x_state(FamilyParams(2.0, 2.0)), 1e-10)
    assert not rep.is_ppt
    assert rep.min_eigenvalues[()] < -0.29


def test_biseparable_alpha_zero_is_basis_vector():
    v3 = biseparable_vector(3, 0.0)
    assert np.array_equal(v3, np.eye(8)[0])


def test_biseparable_flat_embeddings():
    a = 0.6 - 0.3j
    v1 = biseparable_vector(1, a)
    assert np.allclose(
        v1, [0, 1, a, 0, 0, -np.conj(a), -abs(a) ** 2, 0], atol=1e-15
    )
    v2 = biseparable_vector(2, a)
    assert np.allclose(
        v2, [1, 0, -np.conj(a), 0, 0, a, 0, -abs(a) ** 2], atol=1e-15
    )
    v3 = biseparable_vector(3, a)
    assert np.allclose(
        v3, [1, -np.conj(a), 0, 0, 0, 0, a, -abs(a) ** 2], atol=1e-15
    )


def test_biseparable_detection_values(canonical_witness):
    for i in (1, 2, 3):
        val = value_on_product(canonical_witness, biseparable_vector(i, OMEGA))
        assert abs(val + 2.0) < 1e-10


def test_biseparable_closed_forms(canonical_witness):
    # cuts 1 and 2 carry the + sign on the cross term, cut 3 the - sign
    rng = np.random.default_rng(27)
    for _ in range(10):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        cross = (a**2 + np.conj(a) ** 2).real
        for i in (1, 2):
            got = value_on_product(canonical_witness, biseparable_vector(i, a))
            assert abs(got - (-2 * abs(a) ** 2 + cross)) < 1e-10
        got3 = value_on_product(canonical_witness, biseparable_vector(3, a))
        assert abs(got3 - (-2 * abs(a) ** 2 - cross)) < 1e-10


def test_biseparable_bad_cut_index():
    with pytest.raises(OutOfRangeError):
        biseparable_vector(4, 1.0)


def test_rho0():
    state, dec = rho0()
    expected = np.diag(np.array([1, 1, 1, 0, 0, 1, 1, 1]) / 6.0)
    assert np.max(np.abs(state.matrix - expected)) < 1e-15
    assert abs(np.trace(state.matrix) - 1) < 1e-12
    assert verify_decomposition(state, dec)
    assert pairing(state, witness_matrix(CANONICAL)) == 0.0
    assert np.linalg.matrix_rank(state.matrix) == 6


def test_rho0_is_built_once_and_read_only():
    (state, dec), again = rho0(), rho0()
    assert again[0] is state and again[1] is dec
    for table in (state.matrix, dec.weights, dec.factors):
        with pytest.raises(ValueError):
            table[0] = 0


def test_rho1_factors_are_the_default_samples_rows():
    rng = random.Random(20)
    curve = [FamilyParams(s, 8 / s) for s in (10 ** rng.uniform(-1.5, 1.5) for _ in range(20))]
    for params in ST8_GRID + tuple(curve):
        want = default_zero_sample(params)[1][:, CANONICAL_TEN_ROWS[6:]]
        got = rho1(params)[1].factors
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rho1_matches_reference(data_dir):
    import json

    state, dec = rho1()
    doc = json.loads((data_dir / "rho1_reference.json").read_text())
    ref = np.array([[complex(c[0], c[1]) for c in row] for row in doc["matrix"]])
    assert np.max(np.abs(state.matrix - ref)) < 1e-12
    assert abs(state.matrix[0, 1] - (-1.0 / (8.0 * SQRT2))) < 1e-15
    assert abs(state.matrix[0, 0] - 0.125) < 1e-15
    assert verify_decomposition(state, dec)
    assert dec.weights.tolist() == [1.0 / 32.0] * 4
    assert abs(pairing(state, witness_matrix(CANONICAL))) < 1e-12


def test_rho1_zero_pairing_across_curve():
    for params in ST8_GRID:
        state, _ = rho1(params)
        assert abs(pairing(state, witness_matrix(params))) < 1e-10
        assert abs(np.trace(state.matrix) - 1.0) < 1e-12


def test_rho_lambda_endpoints_and_range():
    state01, _ = rho_lambda(1e-9)
    s0, _ = rho0()
    assert np.max(np.abs(state01.matrix - s0.matrix)) < 1e-8
    with pytest.raises(OutOfRangeError):
        rho_lambda(0.0)
    with pytest.raises(OutOfRangeError):
        rho_lambda(1.0)


def test_rho_lambda_boundary_family():
    w = witness_matrix(CANONICAL)
    for lam in (0.1, 0.5, 0.9):
        state, dec = rho_lambda(lam)
        assert verify_decomposition(state, dec)
        assert abs(pairing(state, w)) < 1e-10
        rep = is_ppt(state, 1e-12)
        assert rep.is_ppt
        assert min(rep.min_eigenvalues.values()) > 1e-6
        assert rep.min_ratio > TOLERANCES["strict"]
        assert dec.weights.shape == (10,) and dec.factors.shape == (3, 10, 2)


def test_strict_floor_rejects_a_rank_deficient_state():
    # rho_0 is zero on |011> and |100>, so every partial transpose is singular:
    # PPT, but not strictly, at the floor boundary_family applies to rho_lambda
    rep = is_ppt(rho0()[0])
    assert rep.is_ppt
    assert rep.min_ratio <= TOLERANCES["strict"]
    rho = rho_lambda(0.5)[0].matrix
    assert is_ppt(state_from(rho, (2, 2, 2))).min_ratio > TOLERANCES["strict"]
    # scaled by the spectral norm, a negative definite matrix stays below it
    assert is_ppt(state_from(-rho, (2, 2, 2))).min_ratio == -1.0
    assert is_ppt(state_from(np.zeros((8, 8)), (2, 2, 2))).min_ratio == 0.0


@pytest.mark.parametrize("lam", [1e-5, 1 - 1e-5])
def test_rho_lambda_full_rank_near_endpoints(lam):
    # smallest partial-transpose eigenvalues are 2.2e-6 and 5.7e-7 of the
    # largest: small, yet far above the strict floor
    w = witness_matrix(CANONICAL)
    state, dec = rho_lambda(lam)
    assert verify_decomposition(state, dec)
    assert abs(pairing(state, w)) < 1e-10
    rep = is_ppt(state, 1e-12)
    assert rep.is_ppt and min(rep.min_eigenvalues.values()) > 0
    assert rep.min_ratio > TOLERANCES["strict"]
    assert abs(rep.min_ratio - {1e-5: 2.2e-6, 1 - 1e-5: 5.7e-7}[lam]) < 1e-7


def test_rho_lambda_zero_pairing_on_st8_grid():
    for params in ST8_GRID:
        w = witness_matrix(params)
        for lam in (0.25, 0.75):
            state, _ = rho_lambda(lam, params)
            assert abs(pairing(state, w)) < 1e-10


def test_perturbed_state_range():
    with pytest.raises(OutOfRangeError):
        perturbed_detected_state(0.0)
    with pytest.raises(OutOfRangeError):
        perturbed_detected_state(0.3)


def test_perturbed_state_detection_and_strict_ppt():
    eps = 0.1
    w = witness_matrix(CANONICAL)
    state = perturbed_detected_state(eps)
    val = pairing(state, w)
    expected = 0.9 * (8 / SQRT2 - 8) / 8 + 0.1 * (4 * SQRT2) / 8
    assert abs(val - expected) < 1e-12
    assert val < -0.15
    rep = is_ppt(state, 0.0)
    assert rep.is_ppt
    for lo in rep.min_eigenvalues.values():
        assert lo >= eps / 8 - 1e-12


def test_perturbed_state_small_eps_recovers_x_state():
    state = perturbed_detected_state(1e-9)
    target = x_state(CANONICAL).matrix / 8.0
    assert np.max(np.abs(state.matrix - target)) < 1e-8


def test_verify_decomposition_round_trip_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        vectors = [
            [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
            for _ in range(4)
        ]
        weights = rng.random(4) + 0.1
        dec = SeparableDecomposition(weights=weights, factors=np.array(vectors).transpose(1, 0, 2))
        state = state_from(assemble(dec), (2, 2, 2))
        assert verify_decomposition(state, dec)


def _assemble_reference(dec):
    """The weighted projectors summed one vector at a time, each multiplied out by np.kron."""
    flats = [reduce(np.kron, pv) for pv in dec.factors.transpose(1, 0, 2)]
    out = np.zeros((flats[0].shape[0],) * 2, dtype=complex)
    for w, v in zip(dec.weights, flats):
        out += w * np.outer(v, v.conj())
    return out


@pytest.mark.parametrize("s", [*(2 ** np.linspace(-0.5, 2.5, 8))], ids=lambda s: f"{s:.4g}")
def test_assemble_matches_per_vector_loop_bit_for_bit(s):
    params = FamilyParams(s, 8.0 / s)
    for lam in (1e-5, 0.1, 0.5, 0.9, 1 - 1e-5):
        _, dec = rho_lambda(lam, params)
        got, want = assemble(dec), _assemble_reference(dec)
        assert np.array_equal(got, want)
        # the sign of each zero too
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    # rho_0 and rho_1 sum their projectors from the factor arrays: assemble's bits
    for state, dec in (rho0(), rho1(params)):
        bits = [np.ascontiguousarray(m).view(np.uint64) for m in (state.matrix, assemble(dec))]
        assert np.array_equal(*bits)


def test_verify_decomposition_rejects_wrong_target():
    s0, _ = rho0()
    _, dec1 = rho1()
    assert not verify_decomposition(s0, dec1)


E000 = np.array([[[1, 0]], [[1, 0]], [[1, 0]]])  # |000> as (3, 1, 2) factors


def test_decomposition_weight_validation():
    with pytest.raises(OutOfRangeError):
        SeparableDecomposition(weights=[0.0], factors=E000)


def test_decomposition_rejects_non_finite_weights_and_malformed_factors():
    # a NaN or infinite weight would assemble to a NaN or infinite state
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfRangeError):
            SeparableDecomposition(weights=[bad], factors=E000)
    with pytest.raises(OutOfRangeError):
        SeparableDecomposition(weights=[1.0, np.nan], factors=np.concatenate([E000, E000], axis=1))
    # not one (parties, k, d) array, parties >= 2, with a row per weight
    for factors in (E000[:, 0], E000[None], np.concatenate([E000, E000], axis=1), np.eye(8)[None, :1]):
        with pytest.raises(DimensionMismatchError):
            SeparableDecomposition(weights=[1.0], factors=factors)
    with pytest.raises(DimensionMismatchError):
        SeparableDecomposition(weights=[[1.0]], factors=E000)
    dec = SeparableDecomposition(weights=[0.5], factors=E000)
    assert np.array_equal(assemble(dec), 0.5 * np.outer(np.eye(8)[0], np.eye(8)[0]))


def test_empty_decomposition_is_rejected():
    # nothing to assemble: a package error, not an IndexError downstream
    with pytest.raises(DimensionMismatchError):
        SeparableDecomposition(weights=[], factors=np.zeros((3, 0, 2)))


def test_detect_x_state():
    report = detect(x_state(CANONICAL), witness_matrix(CANONICAL))
    assert report.verdict is Verdict.PPT_ENTANGLED_DETECTED
    assert report.pairing_value < -2.0
    assert report.ppt.is_ppt


def test_detect_certified_boundary_state():
    state, dec = rho_lambda(0.5)
    report = detect(state, witness_matrix(CANONICAL), decomposition=dec)
    assert report.verdict is Verdict.SEPARABLE_CERTIFIED
    assert abs(report.pairing_value) < 1e-10
    assert report.certified


def test_detect_npt_pure_biseparable():
    # projector onto conj(xi_1(omega)): pairing equals the quadratic form -2,
    # but the state is entangled inside the 2|3 pair, so some transpose fails
    flat = biseparable_vector(1, OMEGA).conj()
    state = state_from(np.outer(flat, flat.conj()), (2, 2, 2))
    report = detect(state, witness_matrix(CANONICAL))
    assert report.verdict is Verdict.ENTANGLED_NPT
    assert abs(report.pairing_value + 2.0) < 1e-10
    assert not report.ppt.is_ppt


def test_detect_inconclusive_on_maximally_mixed():
    state = state_from(np.eye(8) / 8.0, (2, 2, 2))
    report = detect(state, witness_matrix(CANONICAL))
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.pairing_value > 0
