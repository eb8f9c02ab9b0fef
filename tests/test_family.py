import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanwitness import (
    CANONICAL,
    FamilyParams,
    InvalidParamsError,
    OffVarietyError,
    ST8_GRID,
    TOLERANCES,
    ZeroFamily,
    bilinear_map,
    choi_matrix,
    default_zero_sample,
    determinant_d,
    eighth_root,
    evaluate,
    rank_one_projector,
    rho1,
    value_on_product,
    witness_matrix,
    zero_pair_and_kernel,
)
from spanwitness.family import (
    CANONICAL_TEN_ROWS,
    PV1_FAMILIES,
    SQRT2,
    Z_FAMILIES,
    family_maxima,
    grid_table,
    sample_rows,
    sample_table,
    z_factors,
)
from spanwitness.linalg import numerical_ranks
from spanwitness.report import Context, by_subset, check_determinant_identity, run_spanning
from spanwitness.tensor import all_subsets, conjugation_ranks, conjugation_stack, subset_ranks
from test_tensor import kron_flat


def sample_vectors(params):
    """The default sample's family labels, and its rows as product vectors,
    each its three factors as one (3, 2) array."""
    labels, factors = default_zero_sample(params)
    return labels, list(factors.transpose(1, 0, 2))


def party_factors(pvs):
    """Each party's factors of `pvs` as one (len(pvs), 2) array, row i from pvs[i]."""
    return list(np.array(pvs).transpose(1, 0, 2))


def rank(vectors):
    """The numerical rank of a family of flat vectors."""
    return int(numerical_ranks(np.array(vectors)))


def stacked_ranks(pvs):
    """Each subset's rank of the conjugated `pvs`, from one stacked SVD of
    their conjugation stack, as the spanning checks rank them."""
    ranks = numerical_ranks(conjugation_stack(party_factors(pvs)), TOLERANCES["rank"])
    return dict(zip(all_subsets(3), ranks.tolist()))


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
    with pytest.raises(TypeError):
        FamilyParams("2", 4.0)
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
    points = grid_table().points
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


def assert_grid_rows_match_evaluate(params):
    # a document's grid minima and determinant deviation, from the
    # parameter-free parts, against one evaluate of the map at (s, t) and the
    # formulas written out on its images, bit for bit down to the sign of zero
    p = rank_one_projector(grid_table().points)
    with np.errstate(over="ignore", invalid="ignore"):
        images = evaluate(bilinear_map(params), p[:, None], p[None, :])
        a, d = images[..., 0, 0].real, images[..., 1, 1].real
        mag = np.abs((images[..., 0, 1] + images[..., 1, 0].conj()) / 2)
        minima = (a + d) / 2 - np.hypot((a - d) / 2, mag)
        det = images[..., 0, 0] * images[..., 1, 1] - images[..., 0, 1] * images[..., 1, 0]
        deviation = np.max(np.abs(det - grid_table().det))
        ctx = Context(params)
        got = ctx.image_minima
        values = check_determinant_identity(ctx, TOLERANCES["determinant"])[1]
    assert got.shape == minima.shape == (72, 72)
    assert np.array_equal(got.view(np.uint64), minima.view(np.uint64))
    assert np.float64(values["max_abs_difference"]).view(np.uint64) == deviation.view(np.uint64)
    assert values["pairs"] == 72 * 72


@pytest.mark.parametrize("product", [0.5, 8.0, 100.0])
def test_grid_rows_reproduce_evaluate_bit_for_bit(product):
    for k in range(-150, 151, 50):
        assert_grid_rows_match_evaluate(FamilyParams(10.0**k, product / 10.0**k))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.floats(-300, 300), st.floats(-300, 300))
def test_grid_rows_reproduce_evaluate_log_uniform(log_s, log_t):
    assert_grid_rows_match_evaluate(FamilyParams(10.0**log_s, 10.0**log_t))


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
        # the Z rows of the default sample: each family at each (a, b) in turn
        thirds = iter(default_zero_sample(params)[1][2, 24:])
        for fam in Z_FAMILIES:
            for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
                alpha, beta, kernel = zero_pair_and_kernel(fam, a, b, params)
                assert determinant_d(alpha, beta) < 1e-12
                image = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
                assert np.max(np.abs(image @ kernel)) < 1e-10
                # the kernel is the (unnormalized) third factor
                third = next(thirds)
                cross = abs(np.vdot(kernel, third)) ** 2
                norms = np.vdot(kernel, kernel).real * np.vdot(third, third).real
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
    factors = default_zero_sample(CANONICAL)[1]
    for fam, row in zip(Z_FAMILIES, CANONICAL_TEN_ROWS[6:]):
        alpha, beta, _ = zero_pair_and_kernel(fam, 1.0, 1.0, params)
        assert (alpha, beta) == (factors[0, row, 1].conjugate(), factors[1, row, 1].conjugate())
        assert determinant_d(alpha, beta) < 1e-12
        image = evaluate(table, rank_one_projector(alpha), rank_one_projector(beta))
        det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
        assert abs(det - (params.s * params.t - 8.0)) < 1e-12


def test_realize_zero_vector_families(canonical_witness):
    # row 7 is XI_10 at free parameter (0, 1); row 24 is Z1 at (a, b) = (1, 1)
    labels, pvs = sample_vectors(CANONICAL)
    assert labels[7] == ZeroFamily.XI_10 and labels[24] == ZeroFamily.Z1
    assert np.array_equal(kron_flat(pvs[7]), np.eye(8)[6])
    z1 = pvs[24]
    assert np.allclose(z1[0], [1, eighth_root(7)], atol=1e-15)
    assert np.allclose(z1[1], [1, eighth_root(1)], atol=1e-15)
    assert np.allclose(z1[2], [1, eighth_root(3)], atol=1e-15)


def test_all_sampled_zero_vectors_annihilate_witness():
    for params in ST8_GRID:
        w = witness_matrix(params)
        for pv in sample_vectors(params)[1]:
            assert abs(value_on_product(w, kron_flat(pv))) <= 1e-10


def test_z_formulas_vanish_at_mixed_sign_parameters():
    # the sampled families are not the whole zero set: the Z formulas vanish
    # at (a, b) of mixed sign too, where the first two phases are a pair
    # k1 + k2 = 4 (mod 8) that no sampled family has (ROADMAP item 2); at
    # (s, t) the factors are D = I (x) I (x) diag(1, u) of z_factors' at u = 1
    for params in ST8_GRID:
        w = witness_matrix(params)
        for fam in Z_FAMILIES:
            for a, b in ((-1.3, 0.7), (1.3, -0.7), (-1.0, 2.0), (2.0, -1.0)):
                factors = [np.array(f, dtype=complex) for f in z_factors(fam, a, b)]
                factors[2][1] *= params.u
                k1, k2 = (round(np.angle(f[1]) / (np.pi / 4)) for f in factors[:2])
                assert (k1 + k2) % 8 == 4
                assert abs(value_on_product(w, kron_flat(factors))) < 1e-13


def test_z_families_gated_off_variety():
    # off the curve the sample is its free-factor rows alone, the table's own,
    # which stay zeros of the witness and rank 6; rho_1, made of Z rows, is
    # not defined there
    off = FamilyParams(1.0, 1.0)
    labels, pvs = sample_vectors(off)
    assert len(labels) == 24 and set(labels) == set(PV1_FAMILIES)
    factors = default_zero_sample(off)[1]
    assert np.shares_memory(factors, sample_rows()) and factors.shape == (3, 24, 2)
    assert set(conjugation_ranks(conjugation_stack(factors)).values()) == {6}
    assert max(abs(value_on_product(witness_matrix(off), kron_flat(pv))) for pv in pvs) < 1e-12
    with pytest.raises(OffVarietyError):
        rho1(off)


def test_canonical_ten_layout():
    labels, pvs = sample_vectors(CANONICAL)
    ten = [pvs[i] for i in CANONICAL_TEN_ROWS]
    assert [labels[i] for i in CANONICAL_TEN_ROWS[6:]] == list(Z_FAMILIES)
    flats = [kron_flat(pv) for pv in ten]
    for vec, idx in zip(flats[:6], (0, 1, 2, 5, 6, 7)):
        assert np.array_equal(vec, np.eye(8)[idx])
    assert rank(flats) == 8


def test_canonical_ten_spans_under_every_conjugation():
    pvs = sample_vectors(CANONICAL)[1]
    ten = [pvs[i] for i in CANONICAL_TEN_ROWS]
    for subset in all_subsets(3):
        images = [kron_flat(pv, subset) for pv in ten]
        assert rank(images) == 8


def test_spanning_report_default():
    # the `spanning` document of the default families
    checks = {c.name: c for c in run_spanning(CANONICAL).checks}
    assert [c.status for c in checks.values()] == ["PASS", "PASS"]
    full, pv1 = checks["full_spanning"].values, checks["pv1_span_rank6"].values
    assert set(full["ranks"].values()) == {8} and full["sample_size"] == 36
    assert pv1["rank"] == 6 and pv1["complement_labels"] == ["011", "100"]
    # |011> and |100>, read off the support: bit for bit, no rounding
    assert np.array_equal(sample_table().complement, np.eye(8)[[3, 4]])
    assert pv1["rank"] + len(sample_table().complement) == full["dimension"]


@pytest.mark.parametrize(
    "params", [*ST8_GRID, FamilyParams(1.0, 1.0)], ids=lambda p: f"{p.s:.4g}_{p.t:.4g}"
)
def test_pv1_subset_ranks_match_conjugation_ranks(params):
    # the pv1 rows' document, ranked from the per-process table, against the
    # sample's pv1 rows alone
    checks = {c.name: c.values for c in run_spanning(params, "pv1").checks}
    labels, pvs = sample_vectors(params)
    pv1 = [pv for fam, pv in zip(labels, pvs) if fam in PV1_FAMILIES]
    assert checks["pv1_subset_ranks"]["ranks"] == by_subset(stacked_ranks(pv1))
    assert checks["pv1_span_rank6"]["rank"] == 6


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
    labels, pvs = sample_vectors(CANONICAL)
    for fam_a, fam_b, label in cycle:
        span_a = [kron_flat(pv) for fam, pv in zip(labels, pvs) if fam == fam_a]
        span_b = [kron_flat(pv) for fam, pv in zip(labels, pvs) if fam == fam_b]
        ra = rank(span_a)
        rb = rank(span_b)
        runion = rank(span_a + span_b)
        assert (ra, rb) == (2, 2)
        assert ra + rb - runion == 1  # one-dimensional intersection
        vertex = np.eye(8)[int(label, 2)]
        assert rank(span_a + [vertex]) == 2
        assert rank(span_b + [vertex]) == 2


def test_scale_covariance(canonical_witness):
    rng = np.random.default_rng(19)
    # use a generic (not zero-set) product vector so base != 0
    pv = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    base = value_on_product(canonical_witness, kron_flat(pv))
    for _ in range(5):
        phase = np.exp(2j * np.pi * rng.random())
        scaled = [f.copy() for f in pv]
        scaled[1] = scaled[1] * phase
        assert abs(value_on_product(canonical_witness, kron_flat(scaled)) - base) < 1e-10
        c = 0.3 + 1.1j
        scaled2 = [f.copy() for f in pv]
        scaled2[0] = scaled2[0] * c
        got = value_on_product(canonical_witness, kron_flat(scaled2))
        assert abs(got - abs(c) ** 2 * base) < 1e-10


def _rank_cases():
    """The zero sample at the four ST8_GRID points and at one random point of
    the curve, the rank-6 pv1 sample, and the canonical ten."""
    s = float(2 ** np.random.default_rng(5).uniform(-0.5, 2.5))
    cases = [
        (f"sample_{p.s:.4g}_{p.t:.4g}", sample_vectors(p)[1])
        for p in (*ST8_GRID, FamilyParams(s, 8.0 / s))
    ]
    labels, pvs = sample_vectors(CANONICAL)
    cases.append(("pv1", [pv for fam, pv in zip(labels, pvs) if fam in PV1_FAMILIES]))
    cases.append(("canonical_ten", [pvs[i] for i in CANONICAL_TEN_ROWS]))
    return cases


RANK_CASES = _rank_cases()


@pytest.mark.parametrize("label, pvs", RANK_CASES, ids=[label for label, _ in RANK_CASES])
def test_conjugation_ranks_match_reference_loop(label, pvs):
    # one stacked SVD against the rank of each conjugated family multiplied out alone
    want = {sub: rank([kron_flat(pv, sub) for pv in pvs]) for sub in all_subsets(3)}
    got = stacked_ranks(pvs)
    assert list(got) == all_subsets(3)
    assert got == want
    assert set(got.values()) == ({6} if label == "pv1" else {8})


CURVE_S = 2 ** np.random.default_rng(3).uniform(-0.5, 2.5, 20)
# far along the curve, u = s / (2 sqrt 2) from 3.5e-8 to 3.5e5: the written-out
# Z rows at u are the oracle for D = I (x) I (x) diag(1, u) of the u = 1 table
FAR_CURVE_S = (1e6, 1e-6, 10**4.25, 1e-7)

_H = math.sqrt(2.0) / 2
# omega^k = exp(i pi k / 4), k = 0..7, written out
_OMEGA = (1, (1 + 1j) * _H, 1j, (-1 + 1j) * _H, -1, (-1 - 1j) * _H, -1j, (1 - 1j) * _H)


def written_out_sample(params):
    """The default sample from the families' formulas, row by row: its label
    and its three factors. Each free-factor family at (1, 0), (0, 1), (1, 1)
    and (1, i) in turn, then, on s t = 8, Z1..Z4 each at (a, b) = (1, 1),
    (1, 2), (2, 1), Z = (1, a w^k1) (x) (1, b w^k2) (x) (b, u a w^k3),
    u = s / (2 sqrt 2)."""
    e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    rows = []
    for free in ((1, 0), (0, 1), (1, 1), (1, 1j)):
        f = np.array(free, dtype=complex)
        rows += [
            ("xi_01", f, e0, e1), ("xi_10", f, e1, e0), ("eta_0", e0, f, e0),
            ("eta_1", e1, f, e1), ("zeta_0", e0, e0, f), ("zeta_1", e1, e1, f),
        ]
    if params.on_variety:
        u = params.s / (2 * math.sqrt(2.0))
        for name, (k1, k2, k3) in (("z1", (7, 1, 3)), ("z2", (5, 3, 5)), ("z3", (3, 5, 3)), ("z4", (1, 7, 5))):
            for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
                rows.append((
                    name,
                    np.array([1, a * _OMEGA[k1]], dtype=complex),
                    np.array([1, b * _OMEGA[k2]], dtype=complex),
                    np.array([b, u * a * _OMEGA[k3]], dtype=complex),
                ))
    return rows


@pytest.mark.parametrize(
    "params",
    [*ST8_GRID, *(FamilyParams(s, 8.0 / s) for s in (*CURVE_S, *FAR_CURVE_S)), FamilyParams(1.0, 1.0)],
    ids=lambda p: f"{p.s:.6g}_{p.t:.6g}",
)
def test_default_sample_rows_match_per_vector_path(params):
    # default_zero_sample's labels and factors, and conjugation_stack's rows
    # of them under every conjugation, bit for bit against each row written
    # out from the families' formulas, its factors conjugated one by one and
    # multiplied out with np.kron; off the curve the sample is its
    # free-factor rows
    rows = written_out_sample(params)
    labels, factors = default_zero_sample(params)
    stack = conjugation_stack(factors)
    assert [fam.value for fam in labels] == [name for name, *_ in rows]
    assert len(rows) == (36 if params.on_variety else 24)
    assert np.array_equal(factors, np.array([fs for _, *fs in rows]).transpose(1, 0, 2))
    assert stack.shape == (8, len(rows), 8)
    for k, sub in enumerate(all_subsets(3)):
        for i, (_, *fs) in enumerate(rows):
            conjugated = [f.conj() if j + 1 in sub else f for j, f in enumerate(fs)]
            assert np.array_equal(stack[k, i], np.kron(np.kron(*conjugated[:2]), conjugated[2]))
    if not params.on_variety:
        return
    # the canonical ten: the basis vectors, then each Z family at (1, 1)
    basis = [kron_flat(fs) for _, *fs in rows[:12]]
    assert [int(np.argmax(basis[i])) for i in CANONICAL_TEN_ROWS[:6]] == [0, 1, 2, 5, 6, 7]
    assert [rows[i][0] for i in CANONICAL_TEN_ROWS[6:]] == ["z1", "z2", "z3", "z4"]
    phases = [(rows[i][1][1], rows[i][2][1]) for i in CANONICAL_TEN_ROWS[6:]]
    assert phases == [(_OMEGA[7], _OMEGA[1]), (_OMEGA[5], _OMEGA[3]), (_OMEGA[3], _OMEGA[5]), (_OMEGA[1], _OMEGA[7])]
    # per family maxima, against selecting each family by its written-out name
    values = np.abs(value_on_product(witness_matrix(params), stack[0]))
    names = np.array([name for name, *_ in rows])
    want = {f: float(values[names == f].max()) for f in dict.fromkeys(names.tolist())}
    assert list(family_maxima(values).items()) == list(want.items())


@pytest.mark.parametrize("params", [CANONICAL, FamilyParams(1.0, 1.0)], ids=["on_curve", "off_curve"])
def test_family_maxima_keeps_a_nan_to_its_own_family(params):
    # a NaN in any one row makes its family's maximum NaN, and every other
    # family keeps its maximum, on the curve and off it
    names = [fam.value for fam in default_zero_sample(params)[0]]
    base = np.arange(len(names), dtype=float)
    want = {f: max(v for n, v in zip(names, base) if n == f) for f in dict.fromkeys(names)}
    assert family_maxima(base) == want
    for row, fam in enumerate(names):
        values = base.copy()
        values[row] = np.nan
        got = family_maxima(values)
        assert list(got) == list(want) and math.isnan(got[fam])
        assert {f: v for f, v in got.items() if f != fam} == {f: v for f, v in want.items() if f != fam}


def test_halved_conjugation_ranks_match_the_full_stack_along_the_curve():
    # s = 10^k, k in [-12, 12] in steps of 1/4, t = 8 / s: the sample's ranks
    # at (s, t), the pv1 table's and the canonical ten's, each from one SVD of
    # half the conjugations, against one SVD of all eight, short ranks
    # included: in floats the sample at (s, t) loses rank at both ends of the
    # scan and its canonical ten from k = 4.25 on, which is why the spanning
    # rows rank the u = 1 table instead
    tol = TOLERANCES["rank"]
    short = set()
    for k in np.arange(-48, 49) / 4:
        params = FamilyParams(10.0**k, 8.0 / 10.0**k)
        stack = conjugation_stack(default_zero_sample(params)[1])
        ranks = conjugation_ranks(stack, tol)
        pv1 = stack[:, [fam in PV1_FAMILIES for fam in default_zero_sample(params)[0]]]
        ten = stack[:, CANONICAL_TEN_ROWS]
        assert list(ranks.values()) == numerical_ranks(stack, tol).tolist()
        pv1_ranks = subset_ranks(sample_table().free, tol)
        assert list(pv1_ranks.values()) == numerical_ranks(pv1, tol).tolist()
        assert conjugation_ranks(ten, tol) == dict(zip(all_subsets(3), numerical_ranks(ten, tol).tolist()))
        if min(ranks.values()) < 8:
            short.add(("full", k))
        if min(numerical_ranks(ten, tol)) < 8:
            short.add(("ten", k))
    assert {("full", -12.0), ("full", 12.0), ("ten", 4.25), ("ten", 12.0)} <= short
    assert ("full", 0.0) not in short and ("ten", 4.0) not in short


@pytest.mark.parametrize("s", [10**4.25, 1e-7], ids=["1e4.25", "1e-7"])
def test_spanning_rows_pass_at_the_far_ends_of_the_curve(s):
    # the curve scan's worst points, where the sample at (s, t) ranks 7 in
    # floats: the rows rank the u = 1 table, whose ranks are every curve point's
    params = FamilyParams(s, 8.0 / s)
    for families, row in (("default", "full_spanning"), ("canonical-ten", "canonical_ten_spanning")):
        check = {c.name: c for c in run_spanning(params, families).checks}[row]
        assert check.status == "PASS" and list(check.values["ranks"].values()) == [8] * 8


@pytest.mark.parametrize("j", range(-6, 7))
def test_curve_sample_is_the_table_under_a_real_diagonal_map(j):
    # s = 2^j keeps s t = 8 exact. sample_rows is the sample at u = 1 and
    # the table holds its stack; the sample at (s, t) is those rows with the
    # Z rows' third factor scaled by diag(1, u), and it has the table's ranks
    # under every conjugation, all 36 rows and the canonical ten alike
    table = sample_table()
    assert CANONICAL.u == 1.0 and np.array_equal(default_zero_sample(CANONICAL)[1], sample_rows())
    assert np.array_equal(conjugation_stack(sample_rows()), table.stack)
    params = FamilyParams(2.0**j, 8.0 / 2.0**j)
    rows = default_zero_sample(params)[1]
    scaled = sample_rows().copy()
    scaled[2, 24:, 1] *= params.u
    assert np.array_equal(rows, scaled)
    assert conjugation_ranks(conjugation_stack(rows)) == subset_ranks(table.full)
    assert conjugation_ranks(conjugation_stack(rows[:, CANONICAL_TEN_ROWS])) == subset_ranks(table.ten)
