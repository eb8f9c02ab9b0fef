from functools import reduce
from string import ascii_lowercase

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    ST8_GRID,
    DimensionMismatchError,
    FamilyParams,
    InvalidCutError,
    THREE_QUBITS,
    TensorShape,
    Witness,
    cut_block_positivity,
    flatten,
    regroup_for_cut,
    seesaw_block_positivity,
    value_on_product,
    witness_matrix,
)
from spanwitness import family, report, seesaw
from spanwitness.seesaw import _canonical_phase
from test_properties import grid_candidates, grid_oracle

SEED = 7


def minus_e00():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = -1.0
    return Witness(matrix=m, shape=THREE_QUBITS)


def test_isotropic_minimum_is_one():
    res = seesaw_block_positivity(
        Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS), restarts=4, seed=SEED
    )
    assert abs(res.min_value - 1.0) < 1e-9


def test_diagonal_minimum():
    res = seesaw_block_positivity(minus_e00(), restarts=8, seed=SEED)
    assert abs(res.min_value + 1.0) < 1e-9
    v = flatten(res.argmin)
    assert abs(abs(v[0]) - 1.0) < 1e-9  # argmin is |000> up to phase


def test_family_witness_minimum_is_zero(canonical_witness):
    res = seesaw_block_positivity(canonical_witness, restarts=64, seed=SEED)
    assert -1e-7 <= res.min_value <= 1e-7
    # the argmin sits on the zero set up to tolerance
    assert abs(value_on_product(canonical_witness, res.argmin)) <= 1e-7


def test_min_value_matches_argmin_form(canonical_witness):
    res = seesaw_block_positivity(canonical_witness, restarts=16, seed=SEED)
    assert abs(res.min_value - value_on_product(canonical_witness, res.argmin)) < 1e-10
    for f in res.argmin.factors:
        assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_history_monotone_nonincreasing(canonical_witness):
    res = seesaw_block_positivity(canonical_witness, restarts=8, seed=SEED)
    hist = np.array(res.history)
    assert np.all(hist[1:] <= hist[:-1] + 1e-12)


def test_deterministic_for_fixed_seed(canonical_witness):
    a = seesaw_block_positivity(canonical_witness, restarts=12, seed=SEED)
    b = seesaw_block_positivity(canonical_witness, restarts=12, seed=SEED)
    assert a.min_value == b.min_value
    for fa, fb in zip(a.argmin.factors, b.argmin.factors):
        assert np.array_equal(fa, fb)


def test_seed_changes_start_points(canonical_witness):
    a = seesaw_block_positivity(canonical_witness, restarts=4, seed=1)
    b = seesaw_block_positivity(canonical_witness, restarts=4, seed=2)
    # both converge to zero, but from different starts
    assert abs(a.min_value) < 1e-7 and abs(b.min_value) < 1e-7


@pytest.mark.parametrize(
    "make",
    [
        lambda: Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS),
        minus_e00,
        lambda: witness_matrix(CANONICAL),
        lambda: witness_matrix(FamilyParams(2.0, 4.0)),
    ],
)
def test_seesaw_not_above_grid_minimum(make):
    # a finite grid's minimum bounds the true minimum from above
    w = make()
    res = seesaw_block_positivity(w, restarts=16, seed=SEED)
    assert res.min_value <= grid_oracle(w.matrix, 3) + 1e-6


def test_seesaw_certificate_passes_below_grid_minimum(monkeypatch):
    # a see-saw minimum under the grid's is the see-saw doing its job; the
    # poles alone hold the grid minimum at 0 when every image is positive
    n = len(family.phase_modulus_grid())
    monkeypatch.setattr(report.Context, "image_minima", np.full((n, n), 0.5))
    ok, values = report.check_seesaw(report.Context(CANONICAL, seed=SEED, restarts=16), 1e-7)
    assert values["grid_minimum"] == 0.0
    assert ok


@pytest.mark.parametrize(
    "params",
    [*ST8_GRID, FamilyParams(1.0, 1.0), FamilyParams(1.0, 4.0), FamilyParams(4.0, 4.0)],
)
def test_seesaw_grid_minimum_is_the_least_value_over_grid_pairs(params):
    # from W alone: for x, y in the grid and both poles, the smallest
    # eigenvalue of W contracted against x (x) y, party 3 left free
    cand = grid_candidates()
    w = witness_matrix(params).matrix.reshape((2,) * 6)
    h = np.einsum("xi,yj,ijaklb,xk,yl->xyab", cand.conj(), cand.conj(), w, cand, cand, optimize=True)
    want = float(np.linalg.eigvalsh(h)[..., 0].min())
    _, values = report.check_seesaw(report.Context(params, seed=SEED, restarts=1), 1e-7)
    assert abs(values["grid_minimum"] - want) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_seesaw_grid_minimum_keeps_nan():
    # s t overflows: the images are NaN, and the poles' 0 must not hide it
    ctx = report.Context(FamilyParams(1e308, 1e308), seed=SEED, restarts=1)
    assert np.isnan(report.check_seesaw(ctx, 1e-7)[1]["grid_minimum"])


@pytest.mark.parametrize("restarts", [10**17, 10**20])
def test_seesaw_refuses_restarts_it_cannot_hold(restarts):
    with pytest.raises(DimensionMismatchError):
        seesaw_block_positivity(witness_matrix(CANONICAL), restarts=restarts, seed=SEED)


def test_seesaw_allocates_its_table_before_it_draws(monkeypatch):
    # 10**13 restarts fit in an intp but not in memory: fail before any draw
    draws = spy(monkeypatch, seesaw, "_random_unit_factors")
    with pytest.raises(MemoryError):
        seesaw_block_positivity(witness_matrix(CANONICAL), restarts=10**13, seed=SEED)
    assert draws == []


def test_cut_isotropic():
    w = Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS)
    for cut in ((1,), (2,), (3,)):
        res = cut_block_positivity(w, cut, restarts=4, seed=SEED)
        assert abs(res.min_value - 1.0) < 1e-9


def test_cuts_reach_spectral_floor(canonical_witness):
    # across every bipartite cut the minimum over unit product vectors
    # attains the least eigenvalue -1
    for cut in ((1,), (2,), (3,)):
        res = cut_block_positivity(canonical_witness, cut, restarts=24, seed=SEED)
        assert res.min_value <= -1.0 + 1e-7
        assert res.min_value >= -1.0 - 1e-9


def test_regroup_preserves_quadratic_form(canonical_witness):
    # embed a (2) x (13) product vector back into party order and compare
    rng = np.random.default_rng(33)
    regrouped = regroup_for_cut(canonical_witness, (2,))
    assert regrouped.meta["cut"] == ((2,), (1, 3))
    for _ in range(10):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w13 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        merged = np.kron(u, w13)
        val_regrouped = float(
            np.vdot(merged, regrouped.matrix @ merged).real
        )
        flat = np.zeros(8, dtype=complex)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    flat[4 * b1 + 2 * b2 + b3] = u[b2] * w13[2 * b1 + b3]
        val_original = value_on_product(canonical_witness, flat)
        assert abs(val_regrouped - val_original) < 1e-10


def test_invalid_cuts(canonical_witness):
    with pytest.raises(InvalidCutError):
        cut_block_positivity(canonical_witness, (), restarts=1, seed=SEED)
    with pytest.raises(InvalidCutError):
        cut_block_positivity(canonical_witness, (1, 2, 3), restarts=1, seed=SEED)
    with pytest.raises(InvalidCutError):
        cut_block_positivity(canonical_witness, (0,), restarts=1, seed=SEED)


def test_phase_modulus_grid_is_built_once_and_read_only():
    grid = family.phase_modulus_grid()
    assert grid is family.phase_modulus_grid()
    with pytest.raises(ValueError):
        grid[0] = 0.0


def reference_seesaw(witness, restarts, seed, max_iters=500, improvement_tol=1e-12):
    """The see-saw one restart at a time, as a plain loop: the reference the
    stacked implementation must reproduce. Returns the result fields and the
    index of the winning restart."""
    dims = witness.shape.dims
    n = len(dims)
    size = len(witness.matrix)
    tensor = witness.matrix.reshape(dims + dims)
    others = [[j for j in range(n) if j != k] for k in range(n)]
    # party k's row and column first, the other parties' flattened in order
    blocks = [
        tensor.transpose([k, n + k, *o, *(n + j for j in o)]).reshape(d, d, size // d, -1)
        for k, (d, o) in enumerate(zip(dims, others))
    ]
    best_value, best_index, best_factors, best_history = np.inf, -1, None, []
    all_converged = True
    starts = np.random.default_rng(seed).standard_normal((restarts, 2 * sum(dims)))
    for ridx, row in enumerate(starts):
        factors = []
        for d, at in zip(dims, np.cumsum([0, *(2 * d for d in dims)])):
            v = row[at : at + d] + 1j * row[at + d : at + 2 * d]
            factors.append(v / np.linalg.norm(v))
        flat = reduce(np.kron, factors)
        value = float((flat.conj() * (witness.matrix * flat).sum(-1)).sum(-1).real)
        history = [value]
        converged = False
        for _ in range(max_iters):
            for k in range(n):
                v = reduce(np.kron, [factors[j] for j in others[k]])
                h = ((blocks[k] * v).sum(-1) * v.conj()).sum(-1)
                kets, values = seesaw._lowest_eigenpairs(h[None])
                factors[k] = kets[0]
                value = float(values[0])
            history.append(value)
            if history[-2] - value < improvement_tol:
                converged = True
                break
        all_converged = all_converged and converged
        if value < best_value:
            best_value, best_index, best_factors, best_history = value, ridx, factors, history
    argmin = [_canonical_phase(f) for f in best_factors]
    return best_value, argmin, best_history, all_converged, best_index


def assert_matches_reference(res, ref):
    # identical arithmetic per restart, so equality is exact
    value, argmin, history, converged, _ = ref
    assert res.min_value == value
    assert res.history == history
    assert res.converged == converged
    for got, want in zip(res.argmin.factors, argmin):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "make, restarts, seed",
    [
        (lambda: witness_matrix(CANONICAL), 64, SEED),
        (lambda: witness_matrix(FamilyParams(2.0, 4.0)), 16, 11),
        (lambda: witness_matrix(FamilyParams(1.0, 4.0)), 16, SEED),
        (minus_e00, 8, SEED),
        (lambda: witness_matrix(CANONICAL), 1, 3),
    ],
)
def test_stacked_seesaw_matches_reference_loop(make, restarts, seed):
    w = make()
    res = seesaw_block_positivity(w, restarts=restarts, seed=seed)
    assert_matches_reference(res, reference_seesaw(w, restarts, seed))


def test_stacked_seesaw_tie_breaks_to_first_restart():
    w = Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS)
    ref = reference_seesaw(w, 16, SEED)
    assert ref[4] == 0
    assert_matches_reference(seesaw_block_positivity(w, restarts=16, seed=SEED), ref)


def test_stacked_cut_seesaw_matches_reference_loop(canonical_witness):
    for idx, cut in enumerate(((1,), (2,), (3,)), start=1):
        regrouped = regroup_for_cut(canonical_witness, cut)
        res = cut_block_positivity(canonical_witness, cut, restarts=16, seed=SEED + idx)
        assert_matches_reference(res, reference_seesaw(regrouped, 16, SEED + idx))


def test_starts_for_fewer_restarts_are_the_first_rows(monkeypatch):
    # restart r's start depends on (seed, r) alone, drawn without spawned seeds
    spawned = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    dims = (2, 2, 2)
    few, many = seesaw._random_unit_factors(dims, SEED, 8), seesaw._random_unit_factors(dims, SEED, 64)
    assert all(np.array_equal(f, m[:8]) for f, m in zip(few, many))
    seesaw_block_positivity(witness_matrix(CANONICAL), restarts=64, seed=SEED)
    assert spawned == []


def random_hermitian(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize(
    "shape, restarts", [(THREE_QUBITS, 64), (TensorShape((2, 3)), 16)], ids=["2x2x2", "2x3"]
)
def test_compacted_seesaw_matches_reference_on_a_generic_witness(shape, restarts):
    # no X shape: the restarts freeze at many different sweeps
    w = Witness(matrix=random_hermitian(23, shape.total_dim), shape=shape)
    res = seesaw_block_positivity(w, restarts=restarts, seed=SEED)
    assert_matches_reference(res, reference_seesaw(w, restarts, SEED))


def test_seesaw_stopped_at_the_sweep_cap_matches_reference(monkeypatch):
    # restarts still moving at the cap keep their last factors, unconverged
    monkeypatch.setattr(seesaw, "MAX_SWEEPS", 2)
    w = witness_matrix(CANONICAL)
    ref = reference_seesaw(w, 64, SEED, max_iters=2)
    history = ref[2]
    assert ref[3] is False and len(history) == 3 and history[1] - history[2] >= 1e-12
    assert_matches_reference(seesaw_block_positivity(w, restarts=64, seed=SEED), ref)


def spy(monkeypatch, owner, name):
    """Record the positional arguments of every call to owner.name."""
    calls, real = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize(
    "make, max_sweeps, loop_sweeps",
    [
        (lambda: Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS), 500, 1),
        (lambda: witness_matrix(CANONICAL), 2, 2),
        (lambda: witness_matrix(CANONICAL), 500, None),
    ],
)
def test_seesaw_makes_one_stacked_step_per_party_and_sweep(monkeypatch, make, max_sweeps, loop_sweeps):
    monkeypatch.setattr(seesaw, "MAX_SWEEPS", max_sweeps)
    w = make()
    einsums, eighs = spy(monkeypatch, np, "einsum"), spy(monkeypatch, np.linalg, "eigh")
    pairs = spy(monkeypatch, seesaw, "_lowest_eigenpairs")
    reference_seesaw(w, 64, SEED, max_iters=max_sweeps)
    steps = len(pairs)  # the reference's step count: one per restart, party and sweep
    einsums.clear()
    pairs.clear()
    seesaw_block_positivity(w, restarts=64, seed=SEED)
    sweeps = len(pairs) // 3
    # qubit steps are closed form: no eigh anywhere for three qubits
    assert len(pairs) == 3 * sweeps and einsums == [] and eighs == []
    assert loop_sweeps in (None, sweeps)
    # each sweep's three steps stack the restarts still moving, fewer or as many as before
    moving = [len(h) for (h,) in pairs[::3]]
    assert [len(h) for (h,) in pairs] == [m for m in moving for _ in range(3)]
    assert moving[0] == 64 and moving[-1] > 0 and moving == sorted(moving, reverse=True)
    assert sum(moving) * 3 == steps
    # a (2, 3) witness still calls eigh, for its d = 3 party's steps only
    pairs.clear()
    seesaw_block_positivity(Witness(matrix=random_hermitian(23, 6), shape=TensorShape((2, 3))), 16, SEED)
    assert pairs and [h.shape[1:] for (h,) in pairs] == [(2, 2), (3, 3)] * (len(pairs) // 2)
    assert [h.shape for (h,) in eighs] == [h.shape for (h,) in pairs[1::2]]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3), (2, 4)])
def test_party_forms_and_start_value_match_the_einsum_contraction(monkeypatch, dims):
    # the reference loop shares the see-saw's multiply-and-sum; this ties both
    # to the definition: H_k = <other factors| W |other factors>, <xi|W|xi>
    shape = TensorShape(dims)
    w = Witness(matrix=random_hermitian(sum(dims), shape.total_dim), shape=shape)
    tol = 1e-14 * max(1.0, np.linalg.norm(w.matrix, 2))
    n = len(dims)
    rows, cols = ascii_lowercase[:n], ascii_lowercase[n : 2 * n]
    tensor = w.matrix.reshape(dims + dims)
    steps = spy(monkeypatch, seesaw, "_lowest_eigenpairs")
    for seed in range(4):
        steps.clear()
        res = seesaw_block_positivity(w, restarts=1, seed=seed)
        # restart 0's start factors: row 0 of the see-saw's draw from default_rng(seed)
        rng = np.random.default_rng(seed)
        draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        factors = [v / np.linalg.norm(v) for v in draws]
        xi = reduce(np.kron, factors)
        assert abs(res.history[0] - np.vdot(xi, w.matrix @ xi).real) <= tol
        # the first sweep's steps, party by party, each after the previous update
        assert len(steps) >= n
        for k, (h,) in enumerate(steps[:n]):
            subs = [sub for j in range(n) if j != k for sub in (rows[j], cols[j])]
            script = ",".join([rows + cols, *subs]) + "->" + rows[k] + cols[k]
            operands = [x for j in range(n) if j != k for x in (factors[j].conj(), factors[j])]
            want = np.einsum(script, tensor, *operands)
            assert np.abs(h[0] - want).max() <= tol
            factors[k] = np.linalg.eigh(h)[1][0, :, 0]
