import math

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    FamilyParams,
    InvalidParamsError,
    OffVarietyError,
    ProductVector,
    ST8_GRID,
    ZeroFamily,
    ZeroSample,
    bilinear_map,
    canonical_ten,
    choi_matrix,
    default_zero_sample,
    determinant_d,
    eighth_root,
    evaluate,
    flatten,
    numerical_rank,
    partial_conjugate,
    rank_one_projector,
    realize_zero_vector,
    spanning_report,
    value_on_product,
    witness_matrix,
    zero_pair_and_kernel,
    zeta_vector,
)
from spanwitness.family import PV1_FAMILIES, SQRT2, Z_FAMILIES, phase_modulus_grid
from spanwitness.tensor import THREE_QUBITS, all_subsets, conjugation_ranks


def phi_on_projectors_oracle(s, t, alpha, beta):
    """Closed form of the rank-one image, worked out by hand from the
    defining table: diagonal (s|a|^2, t|b|^2), top-right
    2 Re(ab) + 2i Im(a conj(b))."""
    a, b = complex(alpha), complex(beta)
    tr = 2 * (a * b).real + 2j * (a * b.conjugate()).imag
    return np.array([[s * abs(a) ** 2, tr], [tr.conjugate(), t * abs(b) ** 2]])


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        FamilyParams(0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        FamilyParams(1.0, -2.0)
    assert CANONICAL.on_variety
    assert FamilyParams(2.0, 4.0).on_variety
    assert not FamilyParams(1.0, 1.0).on_variety
    assert abs(CANONICAL.u - 1.0) < 1e-15


def test_eighth_root_exactness():
    h = SQRT2 / 2
    assert eighth_root(1) == complex(h, h)
    assert eighth_root(9) == eighth_root(1)
    assert eighth_root(4) == -1
    # index arithmetic, not repeated multiplication: no drift at high powers
    assert eighth_root(8 * 10**6 + 3) == eighth_root(3)


def test_map_unit_images():
    table = bilinear_map(FamilyParams(3.0, 8.0 / 3.0))
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    assert np.array_equal(evaluate(table, p1, p0), np.diag([3.0, 0.0]))
    assert np.array_equal(evaluate(table, p0, p1), np.diag([0.0, 8.0 / 3.0]))
    assert np.array_equal(evaluate(table, np.eye(2), np.eye(2)), np.diag([3.0, 8.0 / 3.0]))


def test_map_rank_one_pair_matches_oracle():
    rng = np.random.default_rng(17)
    for params in ST8_GRID:
        table = bilinear_map(params)
        for _ in range(20):
            alpha = rng.standard_normal() + 1j * rng.standard_normal()
            beta = rng.standard_normal() + 1j * rng.standard_normal()
            got = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
            want = phi_on_projectors_oracle(params.s, params.t, alpha, beta)
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("params", [CANONICAL, FamilyParams(2.0, 4.0), FamilyParams(1.0, 1.0)])
def test_stacked_evaluate_matches_one_call_per_pair(params):
    # every image of the report's grid from one stacked call, against one call per pair
    points = phase_modulus_grid()
    table = bilinear_map(params)
    want = np.array(
        [
            [evaluate(table, rank_one_projector(a), rank_one_projector(b)) for b in points]
            for a in points
        ]
    )
    p = rank_one_projector(points)
    got = evaluate(table, p[:, None], p[None, :])
    assert got.shape == (72, 72, 2, 2)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_rank_one_helpers_broadcast_as_scalar_calls():
    # stacked calls equal the scalar calls, which keep the plain-Python formulas
    rng = np.random.default_rng(29)
    alphas = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    betas = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    stacked = rank_one_projector(alphas)
    table = determinant_d(alphas[:, None], betas[None, :])
    assert stacked.shape == (40, 2, 2) and table.shape == (40, 40)
    for i, a in enumerate(map(complex, alphas)):
        p = rank_one_projector(a)
        assert np.array_equal(p, stacked[i])
        assert np.array_equal(p, np.array([[1.0, a.conjugate()], [a, abs(a) ** 2]]))
        for j, b in enumerate(map(complex, betas)):
            ab, cross = a * b, a * b.conjugate()
            d = abs(ab - ab.conjugate()) ** 2 + abs(cross + cross.conjugate()) ** 2
            assert determinant_d(a, b) == d == table[i, j]


def test_witness_entries(canonical_witness):
    m = canonical_witness.matrix
    t = 2 * SQRT2
    assert m[3, 3] == t and m[4, 4] == t
    assert m[2, 5] == -1 and m[5, 2] == -1
    assert m[0, 7] == 1 and m[1, 6] == 1 and m[3, 4] == 1
    assert np.count_nonzero(m) == 10


def test_witness_equals_choi_exactly():
    for params in ST8_GRID + (FamilyParams(1.0, 1.0), FamilyParams(5.0, 3.0)):
        lhs = witness_matrix(params).matrix
        rhs = choi_matrix(bilinear_map(params)).matrix
        assert np.array_equal(lhs, rhs)


def test_witness_golden_fixture(canonical_witness, data_dir):
    import json

    doc = json.loads((data_dir / "witness_s2r2_t2r2.json").read_text())
    fixture = np.array([[complex(c[0], c[1]) for c in row] for row in doc["matrix"]])
    assert np.array_equal(canonical_witness.matrix, fixture)
    assert doc["dims"] == [2, 2, 2]


def test_determinant_d_values():
    omega = eighth_root(1)
    assert determinant_d(omega, eighth_root(7)) < 1e-14
    assert abs(determinant_d(1.0, 1.0) - 4.0) < 1e-14


def test_determinant_identity_random():
    rng = np.random.default_rng(23)
    for params in ST8_GRID:
        table = bilinear_map(params)
        for _ in range(50):
            alpha = rng.standard_normal() + 1j * rng.standard_normal()
            beta = rng.standard_normal() + 1j * rng.standard_normal()
            image = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
            det = (image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]).real
            assert abs(det - determinant_d(alpha, beta)) < 1e-10


def test_determinant_zero_lines_on_grid():
    # zeros exactly where arg(alpha) is an odd multiple of pi/4 and
    # arg(alpha) + arg(beta) is a multiple of pi
    for ka in range(24):
        for kb in range(24):
            alpha = np.exp(2j * np.pi * ka / 24)
            beta = np.exp(2j * np.pi * kb / 24)
            d = determinant_d(alpha, beta)
            odd_alpha = ka % 6 == 3  # 45, 135, 225, 315 degrees
            locked = (ka + kb) % 12 == 0
            if odd_alpha and locked:
                assert d < 1e-12
            else:
                assert d > 1e-3


def test_positivity_grid_large():
    # >= 10^4 deterministic rank-one pairs per parameter point
    moduli = (0.5, 1.0, 2.0)
    phases = 48
    points = [m * np.exp(2j * np.pi * k / phases) for m in moduli for k in range(phases)]
    assert len(points) ** 2 >= 10**4
    for params in (CANONICAL, FamilyParams(2.0, 4.0)):
        worst = math.inf
        for alpha in points:
            for beta in points:
                img = phi_on_projectors_oracle(params.s, params.t, alpha, beta)
                lo = np.linalg.eigvalsh(img)[0]
                worst = min(worst, lo)
        assert worst >= -1e-12


def test_kernel_identity():
    for params in ST8_GRID:
        table = bilinear_map(params)
        for fam in Z_FAMILIES:
            for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
                alpha, beta, kernel = zero_pair_and_kernel(fam, a, b, params)
                assert determinant_d(alpha, beta) < 1e-12
                image = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
                assert np.max(np.abs(image @ kernel)) < 1e-10
                # the kernel is the (unnormalized) third factor
                pv = zeta_vector(fam, a, b, params)
                cross = abs(np.vdot(kernel, pv.factors[2])) ** 2
                norms = np.vdot(kernel, kernel).real * np.vdot(pv.factors[2], pv.factors[2]).real
                assert abs(cross - norms) < 1e-10 * max(1.0, norms)


def test_family_membership_is_the_exponent_table():
    assert Z_FAMILIES == (ZeroFamily.Z1, ZeroFamily.Z2, ZeroFamily.Z3, ZeroFamily.Z4)
    assert PV1_FAMILIES == tuple(ZeroFamily)[:6]


@pytest.mark.parametrize(
    "params", [CANONICAL, FamilyParams(1.0, 1.0), FamilyParams(1.0, 4.0), FamilyParams(0.1, 0.2)]
)
def test_zero_pair_off_the_curve(params):
    # the pair is the conjugate phases of a Z vector's first two factors; at
    # it D = 0, so the image's determinant is (s t - 8) |ab|^2 for any s, t
    table = bilinear_map(params)
    for fam in Z_FAMILIES:
        alpha, beta, _ = zero_pair_and_kernel(fam, 1.0, 1.0, params)
        pv = zeta_vector(fam, 1.0, 1.0, CANONICAL)
        assert (alpha, beta) == (pv.factors[0][1].conjugate(), pv.factors[1][1].conjugate())
        assert determinant_d(alpha, beta) < 1e-12
        image = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
        det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
        assert abs(det - (params.s * params.t - 8.0)) < 1e-12


def test_realize_zero_vector_families(canonical_witness):
    sample = ZeroSample(family=ZeroFamily.XI_10, params=(0, 1))
    assert np.array_equal(flatten(realize_zero_vector(sample, CANONICAL)), np.eye(8)[6])
    z1 = realize_zero_vector(ZeroSample(family=ZeroFamily.Z1, params=(1.0, 1.0)), CANONICAL)
    assert np.allclose(z1.factors[0], [1, eighth_root(7)], atol=1e-15)
    assert np.allclose(z1.factors[1], [1, eighth_root(1)], atol=1e-15)
    assert np.allclose(z1.factors[2], [1, eighth_root(3)], atol=1e-15)


def test_all_sampled_zero_vectors_annihilate_witness():
    for params in ST8_GRID:
        w = witness_matrix(params)
        for sample in default_zero_sample(params):
            pv = realize_zero_vector(sample, params)
            assert abs(value_on_product(w, pv)) <= 1e-10


def test_z_families_gated_off_variety():
    off = FamilyParams(1.0, 1.0)
    with pytest.raises(OffVarietyError):
        zeta_vector(ZeroFamily.Z1, 1.0, 1.0, off)
    with pytest.raises(OffVarietyError):
        canonical_ten(off)
    with pytest.raises(OffVarietyError):
        spanning_report(off)
    # free-factor families stay available off the curve
    sample = ZeroSample(family=ZeroFamily.ETA_0, params=(1, 1j))
    assert abs(value_on_product(witness_matrix(off), realize_zero_vector(sample, off))) < 1e-12


def test_zero_sample_validation():
    with pytest.raises(InvalidParamsError):
        ZeroSample(family=ZeroFamily.Z1, params=(-1.0, 1.0))
    with pytest.raises(InvalidParamsError):
        ZeroSample(family=ZeroFamily.XI_01, params=(1, 2, 3))


def test_canonical_ten_layout():
    ten = canonical_ten(CANONICAL)
    assert len(ten) == 10
    flats = [flatten(pv) for pv in ten]
    for vec, idx in zip(flats[:6], (0, 1, 2, 5, 6, 7)):
        assert np.array_equal(vec, np.eye(8)[idx])
    assert numerical_rank(flats) == 8


def test_canonical_ten_spans_under_every_conjugation():
    ten = canonical_ten(CANONICAL)
    for subset in all_subsets(3):
        images = [flatten(partial_conjugate(pv, subset)) for pv in ten]
        assert numerical_rank(images) == 8


def test_spanning_report_default():
    rep = spanning_report(CANONICAL)
    assert rep.full_spanning
    assert set(rep.subset_ranks.values()) == {8}
    assert rep.pv1_rank == 6
    assert rep.sample_size == 36
    # |011> and |100>, read off the support: bit for bit, no rounding
    assert np.array_equal(np.array(rep.pv1_complement), np.eye(8)[[3, 4]])
    assert rep.pv1_rank + len(rep.pv1_complement) == rep.dimension


@pytest.mark.parametrize(
    "params", [*ST8_GRID, FamilyParams(1.0, 1.0)], ids=lambda p: f"{p.s:.4g}_{p.t:.4g}"
)
def test_pv1_subset_ranks_match_conjugation_ranks(params):
    # the pv1 rows of the one stacked report, against the pv1 samples alone
    samples = default_zero_sample(params)
    rep = spanning_report(params, samples=samples)
    pv1 = [realize_zero_vector(x, params) for x in samples if x.family in PV1_FAMILIES]
    assert rep.pv1_subset_ranks == conjugation_ranks(pv1, THREE_QUBITS)
    assert rep.pv1_rank == rep.pv1_subset_ranks[()] == 6


def test_pv1_complement_outside_a_coordinate_span_falls_short():
    # XI_01 at (1, 1) alone is |001> + |101>: support {1, 5}, rank 1, so the
    # six zero coordinates are orthogonal to it but not all of its complement
    rep = spanning_report(CANONICAL, samples=[ZeroSample(family=ZeroFamily.XI_01, params=(1, 1))])
    assert rep.pv1_rank == 1
    assert len(rep.pv1_complement) == 6
    assert rep.pv1_rank + len(rep.pv1_complement) < rep.dimension


def test_spanning_report_empty_sample():
    rep = spanning_report(CANONICAL, samples=[])
    assert not rep.full_spanning
    assert set(rep.subset_ranks.values()) == {0}
    assert rep.pv1_rank == 0


def test_adjacent_pv1_families_share_one_vertex():
    # cyclic order of the six free-factor families; consecutive families
    # intersect in exactly one product vector (the labeled basis state)
    cycle = [
        (ZeroFamily.XI_10, ZeroFamily.ZETA_PARAM_1, "110"),
        (ZeroFamily.ZETA_PARAM_1, ZeroFamily.ETA_1, "111"),
        (ZeroFamily.ETA_1, ZeroFamily.XI_01, "101"),
        (ZeroFamily.XI_01, ZeroFamily.ZETA_PARAM_0, "001"),
        (ZeroFamily.ZETA_PARAM_0, ZeroFamily.ETA_0, "000"),
        (ZeroFamily.ETA_0, ZeroFamily.XI_10, "010"),
    ]
    shape = CANONICAL
    free = ((1, 0), (0, 1), (1, 1), (1, 1j))
    for fam_a, fam_b, label in cycle:
        span_a = [
            flatten(realize_zero_vector(ZeroSample(family=fam_a, params=p), shape)) for p in free
        ]
        span_b = [
            flatten(realize_zero_vector(ZeroSample(family=fam_b, params=p), shape)) for p in free
        ]
        ra = numerical_rank(span_a)
        rb = numerical_rank(span_b)
        runion = numerical_rank(span_a + span_b)
        assert (ra, rb) == (2, 2)
        assert ra + rb - runion == 1  # one-dimensional intersection
        vertex = np.eye(8)[int(label, 2)]
        assert numerical_rank(span_a + [vertex]) == 2
        assert numerical_rank(span_b + [vertex]) == 2


def test_scale_covariance(canonical_witness):
    rng = np.random.default_rng(19)
    # use a generic (not zero-set) product vector so base != 0
    pv = ProductVector(
        [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    )
    base = value_on_product(canonical_witness, pv)
    for _ in range(5):
        phase = np.exp(2j * np.pi * rng.random())
        scaled = [f.copy() for f in pv.factors]
        scaled[1] = scaled[1] * phase
        assert abs(value_on_product(canonical_witness, ProductVector(scaled)) - base) < 1e-10
        c = 0.3 + 1.1j
        scaled2 = [f.copy() for f in pv.factors]
        scaled2[0] = scaled2[0] * c
        got = value_on_product(canonical_witness, ProductVector(scaled2))
        assert abs(got - abs(c) ** 2 * base) < 1e-10


def _rank_cases():
    """The zero sample at the four ST8_GRID points and at one random point of
    the curve, the rank-6 pv1 sample, and the canonical ten."""
    s = float(2 ** np.random.default_rng(5).uniform(-0.5, 2.5))
    cases = [
        (f"sample_{p.s:.4g}_{p.t:.4g}", [realize_zero_vector(x, p) for x in default_zero_sample(p)])
        for p in (*ST8_GRID, FamilyParams(s, 8.0 / s))
    ]
    pv1 = [x for x in default_zero_sample(CANONICAL) if x.family in PV1_FAMILIES]
    cases.append(("pv1", [realize_zero_vector(x, CANONICAL) for x in pv1]))
    cases.append(("canonical_ten", canonical_ten(CANONICAL)))
    return cases


RANK_CASES = _rank_cases()


@pytest.mark.parametrize("label, pvs", RANK_CASES, ids=[label for label, _ in RANK_CASES])
def test_conjugation_ranks_match_reference_loop(label, pvs):
    # one stacked SVD against numerical_rank of each conjugated family
    want = {
        sub: numerical_rank([flatten(partial_conjugate(pv, sub)) for pv in pvs])
        for sub in all_subsets(3)
    }
    got = conjugation_ranks(pvs, THREE_QUBITS)
    assert list(got) == all_subsets(3)
    assert got == want
    assert set(got.values()) == ({6} if label == "pv1" else {8})

