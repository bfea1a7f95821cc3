from itertools import combinations_with_replacement

import numpy as np
import pytest
from oracles import apply_operator, class_firsts, coercive_ratio

from psdo import (
    EllipticProblem,
    GridSpec,
    KahaneResult,
    ModeSingular,
    ProblemTemplate,
    ScaleParams,
    SectorSweep,
    SymbolSpec,
    TooManyForEnumeration,
    build_bvp_operator,
    coercive_index_set,
    coercivity_sweep,
    default_sweep,
    estimate_rbound,
    eval_symbol,
    gaussian_field,
    i_xi_power,
    kahane_contraction_check,
    lambda_resolvent_family,
    lp_lq_norm,
    make_model,
    mode_field,
    multiplier_family_check,
    power_symbol,
    probe_norm,
    random_band_limited_field,
    resolvent_sweep,
    rotated_power_symbol,
    sigma_matrix,
    solve_principal,
    tridiagonal_matrix,
    vector_norms,
)
from psdo import spaces, verification
from psdo.elliptic import _mode_shifts
from psdo.operators import channel_matrices, operator_norm_upper
from psdo.verification import (
    _adapted_grid,
    _adapted_xi_samples,
    _kahane_checks,
    _rademacher_terms,
    _ratio_and_grad,
    _saturation_frequency,
    _sign_patterns,
    _summarize,
    _worst_modes,
    fd_sigma,
)


def small_sweep(n_radii=4, n_t=2):
    return default_sweep(phi2=np.pi / 4, n=1, n_radii=n_radii,
                         radius_range=(1.0, 1e4), n_t=n_t, t_range=(1e-2, 1.0))


def scalar_template(M=32):
    return ProblemTemplate(model=make_model(np.array([[1.0]])),
                           symbol=power_symbol(m=2.0),
                           grid=GridSpec(n=1, M=M, L=2 * np.pi))


def rademacher_average(operators, vectors, q: float = 2.0):
    """Reference: the averaged randomized-sign norms over every sign pattern
    (numerator with the operators applied, denominator without) of one
    instance, through the batched kernel."""
    us = np.stack([np.atleast_1d(np.asarray(u, dtype=complex)) for u in vectors])
    Tu = np.stack([np.atleast_2d(np.asarray(T, dtype=complex)) @ u
                   for T, u in zip(operators, us)])
    num, den = _rademacher_terms(Tu[:, None], us[:, None], q)
    return float(num[0]), float(den[0])


def test_rademacher_average_single_operator():
    T = np.array([[2.0, 0.0], [0.0, 1.0]])
    u = np.array([1.0, 1.0])
    num, den = rademacher_average([T], [u])
    assert num == pytest.approx(np.linalg.norm(T @ u))
    assert den == pytest.approx(np.linalg.norm(u))


def test_rademacher_average_orthogonal_cancellation():
    # orthogonal unit vectors: average norm is the same with or without signs
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])
    num, den = rademacher_average([np.eye(2), np.eye(2)], [u1, u2])
    assert num == pytest.approx(den)
    assert den == pytest.approx(np.sqrt(2.0))


def test_rademacher_enumeration_cap():
    ops = [np.eye(1)] * 21
    us = [np.ones(1)] * 21
    with pytest.raises(TooManyForEnumeration):
        rademacher_average(ops, us)


def test_probe_norm_matches_spectral_norm():
    rng = np.random.default_rng(1)
    for N in (2, 4, 8):
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert probe_norm(T) == pytest.approx(np.linalg.norm(T, 2), abs=1e-8)


def test_estimate_rbound_singleton_equals_norm():
    rng = np.random.default_rng(2)
    T = rng.standard_normal((4, 4))
    est = estimate_rbound([T], tuple_size=2)
    assert est.value == pytest.approx(np.linalg.norm(T, 2), abs=1e-8)


def test_estimate_rbound_constant_family():
    fam = [np.eye(2), 2.0 * np.eye(2)]
    est = estimate_rbound(fam, tuple_size=3)
    assert est.value >= 2.0 - 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_estimate_rbound_rejects_non_finite_members(bad, q):
    # without the check a NaN member failed in the SVD and, at q = 2, an inf
    # member returned value 0.0 with upper nan
    member = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite member"):
        estimate_rbound([np.eye(2), member], q=q, tuple_size=2)


@pytest.mark.parametrize("budget", [0, 1, 6, 48, 1000])
def test_mixed_tuples_match_sorted_enumeration(budget):
    for k in range(1, 8):
        for size in range(1, 5):
            ref = sorted(combinations_with_replacement(range(k), size),
                         key=lambda tup: (tup[-1], tup))[:budget]
            assert verification._mixed_tuples(k, size, budget) == ref


def test_estimate_rbound_monotone_under_inclusion():
    mats = [np.array([[1.0, 0.2], [0.0, 0.5]]),
            np.array([[0.3, 0.0], [0.1, 0.9]]),
            np.array([[1.1, 0.0], [0.0, 0.4]])]
    # a rewrite of the objective or the search may raise these values, never lower them
    pinned = [(1.0258955378778036, (0,), 2),
              (1.1165781753569566, (0, 1), 5),
              (1.1165781753569566, (0, 1), 9)]
    prev = 0.0
    for k, (value, tup, tried) in zip((1, 2, 3), pinned):
        est = estimate_rbound(mats[:k], tuple_size=2)
        assert est.value >= prev
        prev = est.value
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.tuple_indices == tup
        assert est.tuples_tried == tried


def _ratio_objective(stack: np.ndarray, q: float, x: np.ndarray):
    """Rademacher ratio of the operator stack (m, N, N) at probe vectors given
    as stacked real coordinates x (..., 2 m N); 0 where every signed sum
    vanishes.  Through the shared kernel, the reference that _ratio_and_grad
    is tested against."""
    vecs = x.reshape((-1, len(stack), 2, stack.shape[-1]))
    us = (vecs[..., 0, :] + 1j * vecs[..., 1, :]).transpose(1, 0, 2)
    num, den = _rademacher_terms((stack[:, None] @ us[..., None])[..., 0], us, q)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0).reshape(x.shape[:-1])


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_ratio_objective_matches_rademacher_average(q, m, N):
    rng = np.random.default_rng(10 * m + N)
    stack = rng.standard_normal((m, N, N)) + 1j * rng.standard_normal((m, N, N))
    cloud = rng.standard_normal((5, 2 * m * N))
    batched = _ratio_objective(stack, q, cloud)
    for x, value in zip(cloud, batched):
        vecs = x.reshape(m, 2, N)
        num, den = rademacher_average(list(stack), list(vecs[:, 0] + 1j * vecs[:, 1]), q=q)
        assert _ratio_objective(stack, q, x) == num / den
        assert value == num / den


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 3])
def test_ratio_and_grad_matches_central_differences(q, m, N):
    rng = np.random.default_rng(7 * m + N)
    stack = rng.standard_normal((m, N, N)) + 1j * rng.standard_normal((m, N, N))
    signs = _sign_patterns(m)
    x = rng.standard_normal(2 * m * N)
    ratio, grad = _ratio_and_grad(stack, signs, q, x)
    assert ratio == pytest.approx(_ratio_objective(stack, q, x), rel=1e-14)
    h = 1e-6
    steps = h * np.eye(len(x))
    central = (_ratio_objective(stack, q, x + steps)
               - _ratio_objective(stack, q, x - steps)) / (2 * h)
    np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-8)
    # batched rows; the ratio is scale invariant, and 0 with gradient 0 at u = 0
    ratios, grads = _ratio_and_grad(stack, signs, q, np.stack([x, 2.0 * x, 0.0 * x]))
    assert ratios[:2] == pytest.approx([ratio, ratio], rel=1e-14)
    np.testing.assert_allclose(grads[:2], [grad, grad / 2.0], rtol=1e-12, atol=1e-15)
    assert ratios[2] == 0.0 and np.all(grads[2] == 0.0)


# Estimates of the previous search (Nelder-Mead from the same seeded starts,
# then an L-BFGS polish) on four random complex two-member 3x3 families with
# tuple_size=2 (all three mixed pairs) and seed 0.  The gradient search may only raise them.
PANEL_FLOORS = {
    1.0: (5.206540415762512, 6.170467229434253, 7.0587213729689, 6.528231375205382),
    2.0: (4.072998523606232, 4.948771843681119, 5.562412266940765, 4.769321597880074),
    3.0: (4.28368523930297, 4.876862176595042, 6.070350733176256, 4.868169903035162),
}


@pytest.mark.parametrize("k", range(4))
def test_estimate_rbound_panel_floors(k):
    rng = np.random.default_rng(100 + k)
    fam = list(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    for q, floors in PANEL_FLOORS.items():
        est = estimate_rbound(fam, q=q, tuple_size=2)
        assert est.value >= floors[k] * (1 - 1e-12)
    # q = inf has kinks everywhere, so only the exact singleton norms are pinned
    est = estimate_rbound(fam, q=np.inf, tuple_size=2)
    assert est.value >= max(np.linalg.norm(T, np.inf) for T in fam) * (1 - 1e-12)


@pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
def test_estimate_rbound_closed_form_singletons(q, monkeypatch):
    rng = np.random.default_rng(5)
    fam = list(rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    monkeypatch.setattr(verification, "_maximize_tuples",
                        lambda *args, **kwargs: pytest.fail("searched a closed-form tuple"))
    monkeypatch.setattr(verification, "RBOUND_BUDGET", 0)
    est = estimate_rbound(fam, q=q, tuple_size=2)
    norms = [np.linalg.norm(T, {1.0: 1, 2.0: 2, np.inf: np.inf}[q]) for T in fam]
    assert est.tuples_tried == 6
    assert est.value == pytest.approx(max(norms), rel=1e-14)
    assert est.tuple_indices == (int(np.argmax(norms)),)
    if q == 2:
        assert est.upper == pytest.approx(np.sqrt(2.0) * max(norms), rel=1e-14)
    else:
        assert est.upper is None


# A regression panel for the R-bound search: each case's estimate and the
# scores of the tuples it searched, in search order, as the scipy L-BFGS-B
# search of commit b0c237e (one call per start and stage) read them.  A
# rewrite of the search may raise them, never lower them by more than 1e-9.
RBOUND_PANEL = {
    "lambda-0": (0.9978627543645022, (0.9960594124300025, 0.9978627543645021, 0.9978627543645022)),
    "lambda-7": (0.9951308033269258, (0.7868834367790802, 0.9951308033269257, 0.9951308033269258)),
    "lambda-43": (0.9979748456678612, (0.9770509518571908, 0.997974845667861,
                                       0.9979748456678612)),
    "singleton-task": (1.999999728551685, ()),
    "singleton-probe": (1.9999997285516853, ()),
    "acceptance-07": (0.999000999000999, (0.6829859869471915, 0.6829859869471914,
                                          0.6829859869471914, 0.6829859869471914,
                                          0.6829859869471915)),
    "pair-0-inf": (5.920300398601094, (5.920300398601094,)),
    "pair-1-inf": (6.160463675074861, (6.160463675074861,)),
    "pair-2-inf": (7.435396846645741, (7.435396846645741,)),
    "pair-3-inf": (6.678419056781213, (6.678419056781213,)),
    "triple-0-1": (8.079417910830935, (8.079417910830935,)),
    "triple-0-2": (5.423607156590158, (5.423607156590158,)),
    "triple-0-3": (5.47747766630471, (5.47747766630471,)),
    "triple-0-inf": (7.018452061433901, (7.018452061433901,)),
    "triple-1-1": (6.938730056049589, (6.938730056049589,)),
    "triple-1-2": (5.364736666588715, (5.364736666588715,)),
    "triple-1-3": (5.5856444124263875, (5.5856444124263875,)),
    "triple-1-inf": (7.039498892750958, (7.039498892750958,)),
    "triple-2-1": (7.017272771242515, (7.017272771242515,)),
    "triple-2-2": (4.811513686332867, (4.811513686332867,)),
    "triple-2-3": (5.095194733839844, (5.095194733839844,)),
    "triple-2-inf": (6.81648378245361, (6.81648378245361,)),
}


def pair_family(k):
    """The k-th random complex two-member 3x3 family of PANEL_FLOORS."""
    rng = np.random.default_rng(100 + k)
    return list(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))


def rbound_panel_case(name):
    """The estimate of one RBOUND_PANEL case: the probe benchmark workload's
    R-bound tasks (lambda-SEED, singleton-task, and singleton-probe, the
    CLI's probe_norm check of it), the acceptance-07 scalar family, the
    PANEL_FLOORS families and seeded random complex 3x3 triples at q."""
    kind, _, arg = name.partition("-")
    scalar = make_model(np.array([[1.0]]))
    if kind == "lambda":
        rng = np.random.default_rng([int(arg), 1])
        lambdas = sorted(float(v) for v in 10.0 ** rng.uniform(0.0, 3.0, size=3))
        family = lambda_resolvent_family(scalar, lambdas)
        return estimate_rbound(family, q=2.0, tuple_size=2, seed=int(arg)).value
    if kind == "singleton":
        rot = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        member = np.round(rot(0.3) @ np.diag([2.0, 0.5]) @ rot(1.1).T, 6)
        if arg == "probe":
            return probe_norm(member, q=2.0, seed=1)
        return estimate_rbound([member], q=2.0, tuple_size=2, seed=0).value
    if kind == "acceptance":
        family = lambda_resolvent_family(scalar, list(np.logspace(0, 3, 10)))
        return estimate_rbound(family, tuple_size=10).value
    k, q = arg.split("-")
    k, q = int(k), float(q)
    if kind == "pair":
        return estimate_rbound(pair_family(k), q=q, tuple_size=2).value
    rng = np.random.default_rng(200 + k)
    return verification._maximize_tuples(
        [rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))], q, 0)[0]


@pytest.mark.parametrize("name", list(RBOUND_PANEL))
def test_rbound_panel_floors(name, monkeypatch):
    scores = []
    search = verification._maximize_tuples

    def recorded(*args):
        found = search(*args)
        scores.extend(found)
        return found

    monkeypatch.setattr(verification, "_maximize_tuples", recorded)
    # the acceptance-07 budget; no other case has more than 6 mixed tuples
    monkeypatch.setattr(verification, "RBOUND_BUDGET", 6)
    value, tuple_floors = RBOUND_PANEL[name]
    assert rbound_panel_case(name) >= value * (1 - 1e-9)
    assert len(scores) == len(tuple_floors)
    assert all(a >= b * (1 - 1e-9) for a, b in zip(scores, tuple_floors))


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf])
def test_batched_tuple_scores_equal_solo_searches(q):
    """Tuples searched in one batch, of two sizes and out of size order,
    score exactly what each reaches when searched alone."""
    rng = np.random.default_rng(300)
    fam = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    stacks = [fam[list(tup)] for tup in [(0, 1, 2), (0, 1), (0, 0, 1), (1, 2), (1, 2, 2)]]
    batched = verification._maximize_tuples(stacks, q, 7)
    assert batched == [verification._maximize_tuples([stack], q, 7)[0] for stack in stacks]


@pytest.mark.parametrize("q", [2.0, 3.0, np.inf])
def test_estimate_rbound_does_not_depend_on_its_blocks(q, monkeypatch):
    """One tuple per block gives the same estimate as the default blocks."""
    fam = pair_family(0) + pair_family(1)[:1]
    monkeypatch.setattr(verification, "RBOUND_BUDGET", 5)
    est = estimate_rbound(fam, q=q, tuple_size=3)
    monkeypatch.setattr(spaces, "BLOCK_ENTRIES", 1)
    alone = estimate_rbound(fam, q=q, tuple_size=3)
    assert (alone.value, alone.tuple_indices, alone.tuples_tried) \
        == (est.value, est.tuple_indices, est.tuples_tried)


@pytest.mark.parametrize("q", [1.0, np.inf])
def test_rbound_search_does_not_depend_on_its_tolerance(q, monkeypatch):
    """At the kinks of q = 1 and q = inf the search ends on the kink, not
    where a line search gave up: a loose and a tight stopping tolerance
    agree on the PANEL_FLOORS families."""
    values = []
    for tol in (1e-6, 1e-13):
        monkeypatch.setattr(verification, "STEP_TOL", tol)
        values.append([estimate_rbound(pair_family(k), q=q, tuple_size=2).value
                       for k in range(4)])
    np.testing.assert_allclose(values[0], values[1], rtol=1e-6)


def test_estimate_rbound_searches_singletons_at_other_q():
    # at q = 3 operator_norm_upper is only the Riesz-Thorin bound, so the
    # singleton is searched, and agrees with the independent probe_norm
    T = np.array([[1.0, 0.4j], [-0.3, 0.8]])
    est = estimate_rbound([T], q=3.0, tuple_size=2)
    assert est.tuples_tried == 2 and est.upper is None
    assert est.value == pytest.approx(probe_norm(T, q=3.0), abs=1e-9)
    assert est.value < operator_norm_upper(T, 3.0) * (1 - 1e-3)


def _kahane_reference(scalars, vectors, q):
    """Constant of one instance through diagonal operators a_j I and the
    per-call sign enumeration and tensordot."""
    N = len(vectors[0])
    Tu = np.stack([(complex(a) * np.eye(N)) @ u for a, u in zip(scalars, vectors)])
    us = np.stack(vectors)
    m = len(scalars)
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    signs = (2 * bits - 1).astype(complex)
    num = float(np.mean(vector_norms(np.tensordot(signs, Tu, axes=(1, 0)), q)))
    den = float(np.mean(vector_norms(np.tensordot(signs, us, axes=(1, 0)), q)))
    return num / den if den > 0 else 0.0


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("N", [1, 3, 4])
def test_batched_kahane_matches_per_instance_reference(q, complex_scalars, N):
    rng = np.random.default_rng(11)
    count, m = 200, 5
    scal = rng.uniform(-1.0, 1.0, size=(count, m))
    if complex_scalars:
        scal = scal + 1j * rng.uniform(-1.0, 1.0, size=(count, m))
    vecs = rng.standard_normal((count, m, N)) + 1j * rng.standard_normal((count, m, N))
    checks = _kahane_checks(scal, vecs, q)
    assert all(len(a) == count for a in checks)
    for a, u, *res in zip(scal, vecs, *checks):
        res = KahaneResult(*(v.item() for v in res))
        # the kernel averages half the patterns, this reference all of them, and
        # BLAS matrix-vector kernels may fuse the multiply-add of a complex
        # product, so a_j I @ u and a_j * u can differ in the last bit
        assert res.constant == pytest.approx(_kahane_reference(a, list(u), q), rel=1e-14)
        assert res.complex_scalars == complex_scalars
        assert res.scale == max(abs(complex(v)) for v in a)
        assert kahane_contraction_check(a, list(u), q=q) == res


def test_enumerated_sign_patterns_are_shared_and_read_only():
    signs = _sign_patterns(3)
    assert signs is _sign_patterns(3)
    assert signs.dtype == complex and signs.shape == (8, 3)
    with pytest.raises(ValueError):
        signs[0, 0] = 1.0


def test_lambda_resolvent_scalar_bracket():
    model = make_model(np.array([[1.0]]))
    lambdas = list(np.logspace(0, 3, 8))
    fam = lambda_resolvent_family(model, lambdas)
    S = max(abs(l / (1.0 + l)) for l in lambdas)
    est = estimate_rbound(fam, tuple_size=3)
    assert S - 1e-9 <= est.value <= 2.0 * S + 1e-9


def test_kahane_all_ones():
    vecs = [np.array([1.0, 0.5]), np.array([0.2, -1.0]), np.array([0.0, 1.0])]
    res = kahane_contraction_check([1.0, 1.0, 1.0], vecs)
    assert res.constant == pytest.approx(1.0)
    assert res.verdict


def test_kahane_real_contraction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scal = rng.uniform(-1, 1, size=5)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        res = kahane_contraction_check(scal, vecs)
        assert res.constant <= 1.0 + 1e-12
        assert not res.complex_scalars


def test_kahane_complex_factor_two():
    rng = np.random.default_rng(4)
    for _ in range(20):
        vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
        res = kahane_contraction_check([1j] * 4, vecs)
        assert res.complex_scalars
        assert res.constant <= 2.0 + 1e-12


def test_kahane_enumeration_cap():
    with pytest.raises(TooManyForEnumeration):
        kahane_contraction_check([1.0] * 13, [np.ones(1)] * 13)


def test_coercive_ratio_spot_value():
    grid = GridSpec(n=1, M=32, L=2 * np.pi)
    model = make_model(np.array([[1.0]]))
    t = ScaleParams.isotropic(1.0, 1)
    from psdo import EllipticProblem
    prob = EllipticProblem(model=model, symbol=power_symbol(m=2.0), t=t,
                           lam=1.0, grid=grid)
    f = mode_field(grid, [1.0], [1.0])
    u = solve_principal(prob, f)
    r = coercive_ratio(u, f, model, t, 1.0, 2.0)
    assert r == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_coercive_ratio_scale_invariant():
    grid = GridSpec(n=1, M=32, L=2 * np.pi)
    model = make_model(np.array([[1.0]]))
    t = ScaleParams.isotropic(1.0, 1)
    from psdo import EllipticProblem, gaussian_field
    prob = EllipticProblem(model=model, symbol=power_symbol(m=2.0), t=t,
                           lam=2.0, grid=grid)
    f = gaussian_field(grid)
    u = solve_principal(prob, f)
    r1 = coercive_ratio(u, f, model, t, 2.0, 2.0)
    r2 = coercive_ratio(3.0 * u, 3.0 * f, model, t, 2.0, 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_saturation_frequency_and_samples():
    t = ScaleParams.isotropic(1e-2, 1)
    assert _saturation_frequency(1e4, t, 2.0) == pytest.approx(1e3)
    xs = _adapted_xi_samples(1e4, t, 2.0, 1)
    assert xs.shape[1] == 1
    assert np.abs(xs).max() >= 1e3


def test_coercivity_sweep_passes_small():
    rep = coercivity_sweep(scalar_template(), small_sweep(), data_count=4, seed=0)
    assert rep.passed
    assert rep.flatness <= 1.5
    assert all(p["error"] is None for p in rep.points)
    assert max(p["residual"] for p in rep.points) < 1e-9


def test_coercivity_sweep_empty_not_applicable():
    sweep = SectorSweep(phi2=0.0, rays=(), radii=())
    rep = coercivity_sweep(scalar_template(), sweep)
    assert rep.status == "not-applicable"
    assert rep.points == []


def test_sweep_without_t_grid_raises():
    sweep = SectorSweep(phi2=0.0, rays=(0.0,), radii=(1.0,))
    with pytest.raises(ValueError, match="no scale parameters"):
        coercivity_sweep(scalar_template(), sweep)


def test_sweep_records_per_point_errors():
    # theta0 just above 3pi/4 plus rays at pi/4 exceeds the problem angle
    # budget at the extreme rays only
    template = ProblemTemplate(model=make_model(np.array([[1.0]])),
                               symbol=rotated_power_symbol(2.0, theta0=3 * np.pi / 4 + 0.05),
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    rep = coercivity_sweep(template, small_sweep(n_radii=2, n_t=1), data_count=2)
    errs = [p for p in rep.points if p["error"] is not None]
    assert errs  # extreme rays violate the angle hypothesis
    assert rep.status == "fail"


def test_resolvent_sweep_passes_small():
    rep = resolvent_sweep(scalar_template(), small_sweep(), per_axis=17)
    assert rep.passed
    assert rep.flatness <= 2.0
    assert max(p["residual"] for p in rep.points) < 1e-10


def test_sweep_deterministic_across_reruns():
    tpl = scalar_template()
    sweep = small_sweep()
    r1 = coercivity_sweep(tpl, sweep, data_count=4, seed=0)
    r2 = coercivity_sweep(tpl, sweep, data_count=4, seed=0)
    assert r1.to_dict() == r2.to_dict()


def test_fd_sigma_matrix_matches_closed_form():
    # sigma = a / (a + lam + t xi^2), so |xi| d sigma / d xi = -|xi| 2 a t xi / (a + lam + t xi^2)^2
    a, lam, t = 1.5, 2.0 + 1.0j, ScaleParams.isotropic(0.3, 1)
    model, symbol = make_model(np.array([[a]])), power_symbol(m=2.0)
    xi = np.array([-5.0, -0.5, 0.3, 2.0, 10.0])
    fd = channel_matrices(model, fd_sigma(model, symbol, t, lam, xi[:, None], (1,)))
    assert fd.shape == (len(xi), 1, 1)
    exact = -np.abs(xi) * 2 * a * 0.3 * xi / (a + lam + 0.3 * xi**2) ** 2
    np.testing.assert_allclose(fd[:, 0, 0], exact, rtol=1e-12)
    single = channel_matrices(model, fd_sigma(model, symbol, t, lam, xi[3:4], (1,)))
    assert single[0, 0] == fd[3, 0, 0]


def test_multiplier_check_scalar_sigma_bound():
    model = make_model(np.array([[1.0]]))
    rep = multiplier_family_check(model, power_symbol(m=2.0), small_sweep(),
                                  dims=1, sigma_sup_threshold=1.0 + 1e-9,
                                  rbound_subsample=4, tuple_size=2, seed=0)
    assert rep.passed
    assert rep.details["sigma_sup"] <= 1.0 + 1e-12
    assert all(np.isfinite(v) for v in rep.details["sigma_alpha_sup"].values())
    assert all(np.isfinite(v) for v in rep.details["fd_sup"].values())
    assert np.isfinite(rep.details["sigma_rbound_lower"])


def test_sigma_matrix_closed_form():
    model = make_model(np.array([[2.0]]))
    t = ScaleParams.isotropic(1.0, 1)
    val = sigma_matrix(model, power_symbol(m=2.0), t, 3.0, np.array([2.0]))
    assert val[0, 0] == pytest.approx(2.0 / (2.0 + 3.0 + 4.0))


def test_sigma_matrix_singular_shift_is_mode_singular():
    # a = -2 makes a + lam + P(xi) = -2 + 1 + 1 = 0 at xi = 1: checked like every mode shift
    with pytest.raises(ModeSingular) as info:
        sigma_matrix(make_model([[-2.0]]), power_symbol(m=2.0), ScaleParams.isotropic(1.0, 1),
                     1.0, np.array([1.0]))
    assert info.value.xi == (1.0,)


def test_hermitian_sweeps_form_no_inverse_and_take_no_svd(monkeypatch):
    """verify-resolvent on the tridiagonal N = 8 at q = 3 and the sweep of
    check-multipliers on the scalar model run on channel values alone: no
    LU, no solve and no SVD (the R-bound search, which takes SVDs, is off)."""
    resolvent_template = ProblemTemplate(
        model=make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0), q=3.0),
        symbol=power_symbol(m=2.0), grid=GridSpec(n=1, M=64, L=2 * np.pi))
    scalar = make_model(np.array([[1.0]]))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense linear algebra on the channel path")

    for name in ("svd", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rep = resolvent_sweep(resolvent_template, small_sweep(n_radii=3), per_axis=9)
    assert all(p["error"] is None and p["residual"] == 0.0 for p in rep.points)
    rep = multiplier_family_check(scalar, power_symbol(m=2.0), small_sweep(n_radii=3),
                                  rbound_subsample=0)
    assert all(p["error"] is None for p in rep.points) and rep.details["fd_sup"]


def test_sweep_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("bug in the batched kernel")

    monkeypatch.setattr(verification, "_worst_modes", broken)
    with pytest.raises(IndexError):
        coercivity_sweep(scalar_template(), small_sweep(n_radii=2, n_t=1), data_count=2)
    monkeypatch.setattr(verification, "resolvent_norms", broken)
    with pytest.raises(IndexError):
        resolvent_sweep(scalar_template(), small_sweep(n_radii=2, n_t=1), per_axis=5)
    with pytest.raises(IndexError):
        multiplier_family_check(make_model(np.array([[1.0]])), power_symbol(m=2.0),
                                small_sweep(n_radii=2, n_t=1), rbound_subsample=1, tuple_size=1)


# ---------------------------------------------------------------------------
# oracles for the batched sweep kernels: per-mode reference loops


def _reference_weight(t, lam, m, alpha):
    return t.weight(alpha, m) * abs(lam) ** (1.0 - alpha.order / m)


def _reference_worst_mode(prob, index_set):
    """Per-mode loop: the worst lattice mode and its right singular vector."""
    grid = prob.grid
    xi = grid.frequency_mesh().reshape(-1, grid.n)
    P = prob.symbol_values().reshape(-1)
    m = prob.symbol.m
    eye = np.eye(prob.model.N, dtype=complex)
    nyq = grid.nyquist_mask().reshape(-1)
    best_score, best_idx, best_vec = -1.0, 0, None
    for k in range(xi.shape[0]):
        if nyq[k]:
            continue
        B = np.linalg.inv(prob.model.A + (prob.lam + P[k]) * eye)
        weights = sum(_reference_weight(prob.t, prob.lam, m, alpha)
                      * abs(i_xi_power(xi[k], alpha)) for alpha in index_set)
        score = weights * float(operator_norm_upper(B, prob.model.q)) \
            + float(operator_norm_upper(prob.model.A @ B, prob.model.q))
        if score > best_score:
            best_score, best_idx = score, k
            best_vec = np.linalg.svd(B)[2][0].conj()
    return xi[best_idx], best_vec


def _reference_ratio(u, f, model, t, lam, m, p, index_set):
    total = 0.0
    for alpha in index_set:
        w = _reference_weight(t, lam, m, alpha)
        # liouville_derivative without its Nyquist-energy check: the solution
        # carries energy on the Nyquist modes that the multiplier zeroes
        mult = spaces.fractional_multiplier(u.grid, alpha)
        du = u.grid.ifft(u.grid.fft(u.values) * mult[..., None])
        total += w * lp_lq_norm(u.with_values(du), p, model.q)
    total += lp_lq_norm(u.with_values(model.apply(u.values)), p, model.q)
    return total / lp_lq_norm(f, p, model.q)


def _reference_coercivity_points(template, sweep, data_count, seed):
    """(ratio, residual) per sweep point, one field and one mode at a time."""
    index_set = template.indices()
    m = template.symbol.m
    out = []
    for idx, (lam, t) in enumerate(sweep.points()):
        rng = np.random.default_rng((seed, idx))
        grid = _adapted_grid(template.grid, lam, t, m)
        prob = EllipticProblem(model=template.model, symbol=template.symbol, t=t,
                               lam=lam, grid=grid)
        q = template.model.q
        xi0, vec = _reference_worst_mode(prob, index_set)
        fields = [gaussian_field(grid, vector=np.ones(template.model.N)),
                  mode_field(grid, xi0, vec)]
        while len(fields) < data_count:
            fields.append(random_band_limited_field(grid, template.model.N, rng))
        ratios, residuals = [], []
        for f in fields:
            u = solve_principal(prob, f)
            ratios.append(_reference_ratio(u, f, template.model, t, lam, m,
                                           template.p, index_set))
            residuals.append(lp_lq_norm(apply_operator(prob, u) - f, 2.0, q)
                             / lp_lq_norm(f, 2.0, q))
        out.append((max(ratios), max(residuals)))
    return out


ORACLE_MODELS = {
    "scalar": make_model(np.array([[1.0]])),
    "tridiagonal-n8": make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0)),
    "bvp-b1": build_bvp_operator(12, np.pi, 1.0, b1=3.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_batched_coercivity_matches_per_mode_loop(name):
    model = ORACLE_MODELS[name]
    assert (model.kappa == 1.0) == (name != "bvp-b1")  # both kernel paths are covered
    template = ProblemTemplate(model=model, symbol=power_symbol(m=2.0),
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    sweep = small_sweep(n_radii=3, n_t=2)
    index_set = template.indices()
    for lam, t in sweep.points():
        grid = _adapted_grid(template.grid, lam, t, 2.0)
        prob = EllipticProblem(model=model, symbol=template.symbol, t=t, lam=lam,
                               grid=grid)
        xi_ref, vec_ref = _reference_worst_mode(prob, index_set)
        keep = ~grid.nyquist_mask().reshape(-1)
        rows = grid.frequency_mesh().reshape(-1, 1)[keep]
        weights = sum(_reference_weight(t, lam, 2.0, alpha) * np.abs(i_xi_power(rows.T, alpha))
                      for alpha in index_set)
        xi0, vec = _worst_modes(model, rows[None], _mode_shifts(prob)[keep][None], weights[None])
        new = mode_field(grid, xi0[0], vec[0]).values
        ref = mode_field(grid, xi_ref, vec_ref).values
        # same mode, same vector up to a unit phase; the reference singular
        # vector is only accurate to roundoff over the relative singular-value
        # gap, which large shifts make small
        c = np.vdot(ref, new) / np.vdot(ref, ref)
        assert abs(c) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(new, c * ref, rtol=0, atol=1e-9)
    rep = coercivity_sweep(template, sweep, data_count=4, seed=3)
    ref = _reference_coercivity_points(template, sweep, data_count=4, seed=3)
    assert all(p["error"] is None for p in rep.points)
    # a class draws its random fields from its first point's stream
    for point, first in zip(rep.points, class_firsts(sweep.points())):
        ratio, residual = ref[first]
        assert point["ratio"] == pytest.approx(ratio, rel=1e-12)
        assert point["residual"] < 1e-9 and residual < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_coercivity_sweep_transforms_only_the_gaussian(n, monkeypatch):
    """At p = q = 2 a sweep's one forward FFT is the Gaussian's, once per
    sweep over several blocks: the worst modes enter as their exact spectra,
    the random fields are drawn as spectra, and every norm is a Parseval norm,
    so no inverse FFT is taken."""
    calls = []
    for name in ("fft", "ifft"):
        def counting(grid, values, name=name, transform=getattr(GridSpec, name)):
            calls.append((name, values.shape))
            return transform(grid, values)
        monkeypatch.setattr(GridSpec, name, counting)
    grid = GridSpec(n=n, M=64 if n == 1 else 16, L=2 * np.pi)
    template = ProblemTemplate(model=make_model(tridiagonal_matrix(4, -1.0, 2.0, -1.0)),
                               symbol=power_symbol(m=2.0), grid=grid)
    sweep = default_sweep(phi2=np.pi / 4, n=n, n_radii=3, radius_range=(1.0, 1e4), n_t=2,
                          t_range=(1e-2, 1.0))
    assert len(spaces.blocks(len(sweep.points()), grid.M ** n * 4 * 8)) > 1
    rep = coercivity_sweep(template, sweep, data_count=8, seed=5)
    assert all(p["error"] is None and p["residual"] < 1e-12 for p in rep.points)
    assert calls == [("fft", grid.shape + (4,))]


def _reference_resolvent_points(template, sweep, per_axis):
    """(ratio, residual) per sweep point, one frequency at a time."""
    index_set = template.indices()
    m = template.symbol.m
    model = template.model
    eye = np.eye(model.N, dtype=complex)
    out = []
    for lam, t in sweep.points():
        terms = [0.0] * len(index_set)
        aterm = worst_res = 0.0
        for xi in _adapted_xi_samples(lam, t, m, template.grid.n, per_axis):
            mat = model.A + (lam + complex(eval_symbol(template.symbol, t, xi))) * eye
            B = np.linalg.inv(mat)
            worst_res = max(worst_res, float(np.abs(mat @ B - eye).max()))
            nB = float(operator_norm_upper(B, model.q))
            for i, alpha in enumerate(index_set):
                w = _reference_weight(t, lam, m, alpha)
                terms[i] = max(terms[i], w * abs(i_xi_power(xi, alpha)) * nB)
            aterm = max(aterm, float(operator_norm_upper(model.A @ B, model.q)))
        out.append((sum(terms) + aterm, worst_res))
    return out


def test_batched_resolvent_matches_per_frequency_loop_q3():
    model = make_model(tridiagonal_matrix(4, -0.5, 2.0, -1.0), q=3.0)
    template = ProblemTemplate(model=model, symbol=power_symbol(m=2.0),
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    sweep = small_sweep(n_radii=3, n_t=2)
    rep = resolvent_sweep(template, sweep, per_axis=7)
    ref = _reference_resolvent_points(template, sweep, per_axis=7)
    for point, (ratio, residual) in zip(rep.points, ref):
        assert point["ratio"] == pytest.approx(ratio, rel=1e-12)
        assert point["residual"] == pytest.approx(residual, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf])
def test_operator_norm_upper_matches_operator_norm(q):
    # a stack's norms are those of its matrices one at a time; exact at q in
    # {1, 2, inf}, else the Riesz-Thorin bound between the exact norms at 2 and inf
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    batched = operator_norm_upper(mats, q)
    assert batched.shape == (6,)
    for mat, value in zip(mats, batched):
        assert float(operator_norm_upper(mat, q)) == value
        exact = {q_: np.linalg.norm(mat, q_) for q_ in (1, 2, np.inf)}
        want = exact[q] if q in exact else exact[2] ** (2 / q) * exact[np.inf] ** (1 - 2 / q)
        assert value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("moved, step", [(1, -1), (2, +1), (4, +1), (4, -1)],
                         ids=["first-down", "second-up", "last-up", "last-down"])
def test_worst_is_stable_under_roundoff_ties(moved, step):
    # points 1, 2 and 4 tie at one ratio; a 1-ulp change of any of them leaves
    # the first in sweep order the worst
    tie = 2.176680815242367
    ratios = [1.0, tie, tie, 1.5, np.nextafter(tie, 0.0)]
    ratios[moved] = ratios[moved] + step * np.spacing(tie)

    def worst(values):
        points = [{"ray": 0.0, "radius": float(k), "ratio": r, "error": None}
                  for k, r in enumerate(values)]
        return _summarize(verification.VerificationReport(kind="coercivity", points=points)).worst

    assert worst(ratios)["radius"] == 1.0
    assert worst([1.0, 3.0, tie])["radius"] == 1.0  # a clear maximum still wins
    assert worst([1.0, np.inf, np.inf])["radius"] == 1.0


# ---------------------------------------------------------------------------
# blocks of sweep points: a bad point fails alone, and the partition is invisible

ONE_T = (ScaleParams((1.0,)),)


def _assert_same_records(points, expected):
    assert len(points) == len(expected)
    for got, want in zip(points, expected):
        assert got["error"] == want["error"]
        assert (got["ray"], got["radius"], got["t"]) == (want["ray"], want["radius"], want["t"])
        for key in ("ratio", "residual"):
            if want[key] is None:
                assert got[key] is None
            else:
                assert got[key] == pytest.approx(want[key], rel=1e-12)
        for key in ("sigma_alpha", "fd_sup"):
            if key in want:
                assert got[key].keys() == want[key].keys()
                for k, v in want[key].items():
                    assert got[key][k] == pytest.approx(v, rel=1e-12)


def _one_point_blocks(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(spaces, "BLOCK_ENTRIES", 1)
        return run()


def test_coercivity_bad_point_fails_alone_inside_its_block(monkeypatch):
    # -spectrum(A) = 10 is the shift of the mode xi = 0 at radius 10 only
    template = ProblemTemplate(model=make_model(np.array([[-10.0]])), symbol=power_symbol(m=2.0),
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    sweep = SectorSweep(phi2=0.0, rays=(0.0,), radii=(1.7, 4.1, 10.0, 23.0, 61.0), t_grid=ONE_T)
    assert 16 * 4 * len(sweep.points()) < spaces.BLOCK_ENTRIES  # one block

    def run():
        return coercivity_sweep(template, sweep, data_count=4, seed=5)

    rep = run()
    assert [p["error"] is None for p in rep.points] == [True, True, False, True, True]
    assert rep.points[2]["error"] == "ModeSingular: singular mode matrix at xi=(np.float64(0.0),)"
    assert rep.status == "fail"
    _assert_same_records(rep.points, _one_point_blocks(monkeypatch, run).points)


def test_resolvent_bad_point_fails_alone_inside_its_block(monkeypatch):
    # the constant symbol -11 makes A + lam + P = 1 + 10 - 11 singular at radius 10 only
    pts = np.linspace(-1e4, 1e4, 5)
    symbol = SymbolSpec(kind="user-table", m=2.0, table=(pts, np.full(5, -11.0 + 0j)))
    template = ProblemTemplate(model=make_model(np.array([[1.0]])), symbol=symbol,
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    radii = (1.0, 3.0, 10.0, 30.0, 100.0)
    rep = resolvent_sweep(template, SectorSweep(0.0, (0.0,), radii, ONE_T), per_axis=9)
    assert rep.points[2]["error"] == \
        "ModeSingular: singular mode matrix at xi=(np.float64(-31.622776601683793),)"
    assert [p["error"] is None for p in rep.points] == [True, True, False, True, True]
    good = resolvent_sweep(template, SectorSweep(0.0, (0.0,), radii[:2] + radii[3:], ONE_T),
                           per_axis=9)
    _assert_same_records(rep.points[:2] + rep.points[3:], good.points)


@pytest.mark.parametrize("A, q", [([[1.0]], 2.0), ([[1.0]], 3.0), ([[1.0, 0.5], [0.0, 2.0]], 2.0)],
                         ids=["channels", "inverse-q3", "inverse-nonnormal"])
def test_resolvent_shift_at_spectrum_is_mode_singular(A, q):
    """A shift at -w_j is ModeSingular, naming its frequency, whether
    resolvent_norms takes channel moduli or forms inverses."""
    pts = np.linspace(-1e4, 1e4, 5)
    symbol = SymbolSpec(kind="user-table", m=2.0, table=(pts, np.full(5, -11.0 + 0j)))
    template = ProblemTemplate(model=make_model(np.array(A), q=q), symbol=symbol,
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    rep = resolvent_sweep(template, SectorSweep(0.0, (0.0,), (3.0, 10.0), ONE_T), per_axis=9)
    assert rep.points[0]["error"] is None
    assert rep.points[1]["error"].startswith("ModeSingular: singular mode matrix at xi=")


def test_multiplier_bad_point_fails_alone_inside_its_block(monkeypatch):
    # t = 0.01 puts the adapted samples up to |xi| = 100, past the table's 50
    pts = np.linspace(-50.0, 50.0, 201)
    symbol = SymbolSpec(kind="user-table", m=2.0, table=(pts, pts**2 + 0j))
    ts = [ScaleParams((v,)) for v in (1.0, 0.5, 0.01, 0.7, 0.9)]

    def run(t_grid):
        return multiplier_family_check(make_model(np.array([[1.0]])), symbol,
                                       SectorSweep(0.0, (0.0,), (1.0, 4.0), tuple(t_grid)),
                                       rbound_subsample=2, tuple_size=1)

    rep = run(ts)
    errors = [p["error"] for p in rep.points]
    assert errors[2] == errors[7] == "OutOfTable: frequency outside tabulated range [-50.0, 50.0]"
    assert sum(e is None for e in errors) == 8
    good = [p for p in rep.points if p["error"] is None]
    _assert_same_records(good, run(ts[:2] + ts[3:]).points)
    _assert_same_records(rep.points, _one_point_blocks(monkeypatch, lambda: run(ts)).points)


def _block_templates():
    out = {name: (ProblemTemplate(model=model, symbol=power_symbol(m=2.0),
                                  grid=GridSpec(n=1, M=16, L=2 * np.pi)),
                  small_sweep(n_radii=3, n_t=2))
           for name, model in ORACLE_MODELS.items()}
    # q = p = 3: every norm after an inverse FFT, the worst mode by inversion
    out["tridiagonal-n4-q3"] = (ProblemTemplate(model=make_model(tridiagonal_matrix(
        4, -0.5, 2.0, -1.0), q=3.0), symbol=power_symbol(m=2.0),
        grid=GridSpec(n=1, M=16, L=2 * np.pi), p=3.0), small_sweep(n_radii=3, n_t=2))
    out["scalar-2d"] = (ProblemTemplate(model=make_model(np.array([[1.0]])),
                                        symbol=power_symbol(m=2.0),
                                        grid=GridSpec(n=2, M=8, L=2 * np.pi)),
                        # anisotropic t: the per-axis scaling of each point's lattice shows
                        SectorSweep(phi2=np.pi / 4, rays=(-np.pi / 4, np.pi / 4),
                                    radii=(1.0, 1e2, 1e4),
                                    t_grid=(ScaleParams((1.0, 0.1)), ScaleParams((0.01, 1.0)))))
    return out


@pytest.mark.parametrize("name", sorted(_block_templates()))
def test_sweep_records_do_not_depend_on_the_block_size(name, monkeypatch):
    template, sweep = _block_templates()[name]
    reports = []
    for entries in (1, 2**40):  # one point per block, then the whole sweep in one
        monkeypatch.setattr(spaces, "BLOCK_ENTRIES", entries)
        # with two data fields the worst mode's own ratio is the point's ratio
        reports.append([coercivity_sweep(template, sweep, data_count=count, seed=3).points
                        for count in (2, 4)] + [resolvent_sweep(template, sweep, per_axis=7).points])
    for one, whole in zip(*reports):
        _assert_same_records(one, whole)
    firsts = class_firsts(sweep.points())
    for count, points in zip((2, 4), reports[0]):
        ref = _reference_coercivity_points(template, sweep, data_count=count, seed=3)
        # with random fields a point compares with its class's first point,
        # whose stream the class draws from; without, with its own reference
        for k, (point, first) in enumerate(zip(points, firsts)):
            ratio, residual = ref[first if count > 2 else k]
            assert point["ratio"] == pytest.approx(ratio, rel=1e-12)
            assert point["residual"] < 1e-9 and residual < 1e-9


@pytest.mark.parametrize("name", sorted(_block_templates()))
def test_worst_mode_field_is_the_plane_wave_on_its_points_lattice(name, monkeypatch):
    template, sweep = _block_templates()[name]
    spectra = []

    def recording(model, shifts, fspec):
        spectra.append(fspec)
        return solve(model, shifts, fspec)

    solve = verification._solve_spectra
    monkeypatch.setattr(verification, "_solve_spectra", recording)
    monkeypatch.setattr(spaces, "BLOCK_ENTRIES", 2**40)
    coercivity_sweep(template, sweep, data_count=2, seed=3)
    (fspec,) = spectra
    points = sweep.points()
    firsts = sorted(set(class_firsts(points)))  # the points the kernel evaluates
    assert len(fspec) == len(firsts)
    for k, (lam, t) in enumerate(points[i] for i in firsts):
        grid = _adapted_grid(template.grid, lam, t, 2.0)
        prob = EllipticProblem(model=template.model, symbol=template.symbol, t=t, lam=lam,
                               grid=grid)
        xi0, vec = _reference_worst_mode(prob, template.indices())
        want = grid.fft(mode_field(grid, xi0, vec).values)
        # the same plane wave, its vector up to a unit phase (see above)
        c = np.vdot(want, fspec[k, 1]) / np.vdot(want, want)
        assert abs(c) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(fspec[k, 1], c * want, rtol=0, atol=1e-9 * np.abs(want).max())
