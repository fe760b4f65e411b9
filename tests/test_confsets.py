import dataclasses

import numpy as np
import pytest

from riskpremia import confsets
from riskpremia.confsets import (
    ConfidenceSet,
    GridAxis,
    GridSpec,
    ParameterBinding,
    full_lambda_binding,
    invert_surface,
    joint_confidence_set,
    project_cs,
    pvalue_curve,
    row_binding,
)
from riskpremia._linalg import NumericalError
from riskpremia.moments import robust_tests
from riskpremia.panels import ReturnPanel
from riskpremia.pipeline import fit_model
from riskpremia.montecarlo import preset_dgp, simulate
from riskpremia.subset import sfar_column, sfar_row
from riskpremia.threestep import asymptotic_covariance
from riskpremia.varstage import RankError, fit_var1

from test_threestep import default_params, make_dataset


def fitted(seed=0, k=1, n=5, t=150, sigma_e=0.5, beta_scale=0.3):
    rng = np.random.default_rng(seed)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=k, n=n)
    beta = beta * beta_scale
    returns, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, sigma_e, t)
    return fit_model(returns, factors), lam1


# -- grid machinery -----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="2 steps"):
        GridAxis(0, 1, 1)
    with pytest.raises(ValueError, match="lo < hi"):
        GridAxis(1, 0, 5)
    # a non-finite bound or span gave a NaN surface, inverted to an "empty" set
    for lo, hi in ((-np.inf, 1), (0, np.inf), (np.nan, 1), (0, np.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="bounds and their span must be finite"):
            GridAxis(lo, hi, 5)
    b = full_lambda_binding(1)
    with pytest.raises(ValueError, match="1 to 3"):
        GridSpec(axes=(), binding=b)
    with pytest.raises(ValueError, match="dimensionality"):
        GridSpec(axes=(GridAxis(0, 1, 3), GridAxis(0, 1, 3)), binding=b)
    with pytest.raises(ValueError, match="vary"):
        ParameterBinding(kind="full", base=np.zeros(2), vary=(5,))
    # an out-of-range subset index used to pass, and every grid point failed
    for kind, index in (("row", 2), ("column", -1)):
        with pytest.raises(ValueError, match=f"{kind} index {index} out of range for K = 2"):
            ParameterBinding(kind, np.zeros(2), vary=(0,), index=index)


def test_grid_points_ordering():
    grid = GridSpec(
        axes=(GridAxis(0, 1, 2), GridAxis(10, 20, 3)),
        binding=ParameterBinding("full", np.zeros(4), vary=(0, 3)),
    )
    pts = grid.points()
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [0, 10])
    assert np.allclose(pts[1], [0, 15])
    assert np.allclose(pts[-1], [1, 20])


# -- p-value curves ------------------------------------------------------------


def test_far_curve_is_one_at_truth_on_noiseless_data():
    rng = np.random.default_rng(1)
    beta, lam0, lam1, mu, phi, sigma_v = default_params(k=1, n=4)
    _, factors = make_dataset(rng, beta, lam0, lam1, mu, phi, sigma_v, 0.0, 80)
    var = fit_var1(factors)
    r = beta @ (lam1 @ factors.factors[:, :-1] + var.residuals)
    returns = ReturnPanel(tuple(range(4)), r, tuple(f"t{i}" for i in range(80)))
    fit = fit_model(returns, factors)
    true_val = lam1[0, 0]
    grid = GridSpec(
        axes=(GridAxis(true_val - 0.5, true_val + 0.5, 5),),
        binding=full_lambda_binding(1),
    )
    surface = pvalue_curve("far", grid, fit)
    # truth is the middle grid point
    assert surface.pvalues[2] == pytest.approx(1.0)
    assert surface.pvalues.max() == surface.pvalues[2]


def test_surface_matches_pointwise_invocation():
    fit, lam1 = fitted(seed=2)
    grid = GridSpec(axes=(GridAxis(-1, 1, 7),), binding=full_lambda_binding(1))
    surface = pvalue_curve("far", grid, fit)
    for i, v in enumerate(grid.axes[0].values):
        direct = robust_tests(fit, np.array([[v]]), which=("far",))["far"].pvalue
        assert surface.pvalues[i] == pytest.approx(direct, rel=1e-12)


def test_programming_errors_propagate_out_of_the_scan(monkeypatch):
    fit, _ = fitted(seed=3)
    grid = GridSpec(axes=(GridAxis(-1, 1, 3),), binding=full_lambda_binding(1))

    def bug(*args, **kwargs):
        raise TypeError("programming error")

    monkeypatch.setattr(confsets, "robust_statistics", bug)
    with pytest.raises(TypeError):
        pvalue_curve("klm", grid, fit)


def test_wald_scan_computes_the_covariance_once_and_fails_early(monkeypatch):
    from riskpremia import pipeline

    fit, lam1 = fitted(seed=3)
    calls = []

    def counting_cov(*args):
        calls.append(1)
        return asymptotic_covariance(*args)

    monkeypatch.setattr(pipeline, "asymptotic_covariance", counting_cov)
    grid = GridSpec(axes=(GridAxis(-1, 1, 3),), binding=full_lambda_binding(1))
    surface = pvalue_curve("wald", grid, fit)
    assert surface.pvalues[1] == fit.wald(np.zeros((1, 1))).pvalue
    fit.wald(lam1)
    assert fit.asymptotic_cov.v_lambda1.shape == (1, 1)
    assert len(calls) == 1

    # a fit without a price of risk stops the scan before its first point
    with pytest.raises(RankError, match="price-of-risk"):
        pvalue_curve("wald", grid, dataclasses.replace(fit, por=None))


@pytest.mark.parametrize("test", ["sfar", "klm"])
def test_scan_failures_match_a_point_by_point_loop(monkeypatch, test):
    # points with a first coordinate above 0.3 fail; chunks of 4 points put
    # failing and clean points in the same chunk
    fit, lam1 = fitted(seed=10, k=2, n=5)
    binding = row_binding(2, index=1) if test == "sfar" else full_lambda_binding(2, vary=(0, 3))
    grid = GridSpec(axes=(GridAxis(-1, 1, 7), GridAxis(-0.5, 0.5, 3)), binding=binding)
    name = "sfar_statistics" if test == "sfar" else "robust_statistics"
    real = getattr(confsets, name)

    def injected(value):
        return NumericalError(f"injected at {value!r}")

    stacks = []

    def flaky(sys, arg, *rest):
        # arg: row values (B, K) for sfar, Lambda1 stack (B, K, K) for klm
        first = arg[:, 0] if test == "sfar" else arg[:, 0, 0]
        stacks.append((len(first), bool((first > 0.3).any())))
        if (first > 0.3).any():
            raise injected(float(first[first > 0.3][0]))
        return real(sys, arg, *rest)

    monkeypatch.setattr(confsets, name, flaky)
    # about four points per chunk (bytes per point as counted by the scan:
    # 2 (2K)^2 floats for sFAR, 16 K^2 for the kps robust tests)
    per_point = 8 * 2 * 4**2 if test == "sfar" else 8 * 16 * 2**2
    monkeypatch.setattr(confsets, "CHUNK_BYTES", 4 * per_point)
    surface = pvalue_curve(test, grid, fit, mode="kps")

    expected, failures = [], []
    for i, point in enumerate(grid.points()):
        params = binding.assemble(point)
        if params[0] > 0.3:
            failures.append((i, repr(injected(float(params[0])))))
            expected.append(np.nan)
        elif test == "sfar":
            expected.append(sfar_row(fit.stacked, params, 1).pvalue)
        else:
            lam = params.reshape(2, 2, order="F")
            expected.append(robust_tests(fit, lam, mode="kps", which=("klm",))["klm"].pvalue)
    assert surface.failures == tuple(failures)
    assert len(failures) == 9
    assert (4, True) in stacks and (4, False) in stacks      # mixed and clean chunks
    np.testing.assert_array_equal(surface.pvalues.reshape(-1), expected)


def test_refined_grid_agrees_on_shared_points():
    fit, _ = fitted(seed=4)
    coarse = GridSpec(axes=(GridAxis(-1, 1, 5),), binding=full_lambda_binding(1))
    fine = GridSpec(axes=(GridAxis(-1, 1, 9),), binding=full_lambda_binding(1))
    sc = pvalue_curve("far", coarse, fit)
    sf = pvalue_curve("far", fine, fit)
    assert np.allclose(sc.pvalues, sf.pvalues[::2], rtol=1e-12)


def test_per_point_failures_recorded():
    fit, _ = fitted(seed=5, k=2, n=5)
    # a 2-factor row binding with a non-finite fixed coordinate: every point
    # fails hypothesis validation and is recorded rather than raised
    binding = ParameterBinding("row", base=np.array([0.0, np.inf]), vary=(0,))
    grid = GridSpec(axes=(GridAxis(-1, 1, 3),), binding=binding)
    surface = pvalue_curve("sfar", grid, fit)
    assert np.isnan(surface.pvalues).all()
    assert len(surface.failures) == 3

    bad = ParameterBinding("row", base=np.zeros(2), vary=(0,))
    with pytest.raises(ValueError, match="full"):
        pvalue_curve("wald", GridSpec(axes=(GridAxis(0, 1, 2),), binding=bad), fit)


# -- confidence sets -------------------------------------------------------------


def test_nesting_across_levels():
    fit, lam1 = fitted(seed=6)
    grid = GridSpec(
        axes=(GridAxis(lam1[0, 0] - 2, lam1[0, 0] + 2, 41),),
        binding=full_lambda_binding(1),
    )
    masks = {}
    for level in (0.90, 0.95, 0.99):
        cs = joint_confidence_set("far", grid, level, fit)
        masks[level] = cs.accepted_mask
    assert np.all(masks[0.90] <= masks[0.95])
    assert np.all(masks[0.95] <= masks[0.99])


def test_sfar_set_on_strong_two_factor_fit():
    fit, lam1 = fitted(seed=7, k=2, n=5, t=250, sigma_e=1.0, beta_scale=0.2)
    grid = GridSpec(
        axes=(
            GridAxis(lam1[0, 0] - 1.5, lam1[0, 0] + 1.5, 13),
            GridAxis(lam1[0, 1] - 1.5, lam1[0, 1] + 1.5, 13),
        ),
        binding=row_binding(2, index=0),
    )
    cs = joint_confidence_set("sfar", grid, 0.95, fit, seed=3)
    assert not cs.is_empty
    assert cs.bounded in ("bounded", "unbounded")
    # true row should be accepted on this strong fit
    truth = lam1[0]
    dists = np.abs(cs.accepted - truth[None, :]).max(axis=1) if not cs.is_empty else []
    assert min(dists) < 0.3


@pytest.mark.parametrize("kind", ["row", "column"])
def test_boundedness_scan_takes_the_binding_kind(kind, monkeypatch):
    fit, lam1 = fitted(seed=7, k=2, n=5, t=250, sigma_e=1.0, beta_scale=0.2)
    value = lam1[0] if kind == "row" else lam1[:, 1]
    binding = ParameterBinding(kind, value, vary=(0,), index=1 if kind == "column" else 0)
    grid = GridSpec(axes=(GridAxis(value[0] - 50.0, value[0] + 50.0, 5),), binding=binding)
    surface = pvalue_curve("sfar", grid, fit)
    surface = dataclasses.replace(surface, pvalues=np.ones_like(surface.pvalues))
    seen = []
    real = confsets.boundedness_diagnostic

    def recording(*args, **kwargs):
        seen.append(kwargs["kind"])
        return real(*args, **kwargs)

    monkeypatch.setattr(confsets, "boundedness_diagnostic", recording)
    invert_surface(surface, 0.95, fit)
    assert seen == [kind]


def test_column_binding_scan_matches_sfar_column_at_every_point():
    fit, lam1 = fitted(seed=7, k=2, n=5, t=250, sigma_e=1.0, beta_scale=0.2)
    binding = ParameterBinding("column", lam1[:, 1], vary=(0,), index=1)
    grid = GridSpec(axes=(GridAxis(lam1[0, 1] - 0.5, lam1[0, 1] + 0.5, 3),), binding=binding)
    surface = pvalue_curve("sfar", grid, fit)
    assert surface.failures == ()
    params = binding.assemble(grid.points())
    for i, value in enumerate(params):
        assert surface.pvalues.reshape(-1)[i] == sfar_column(fit.stacked, value, 1).pvalue
    # a stack of fits is scanned in one pass, equal to the single-fit scans
    spec = preset_dgp("strong", k=2, n=4, t=200)
    pvalues, _ = confsets.scan_pvalues(("sfar",), fit_model(*simulate(spec, 3, range(2))), binding, params)
    for j in range(2):
        single = confsets.scan_pvalues(("sfar",), fit_model(*simulate(spec, 3, j)), binding, params)
        np.testing.assert_allclose(pvalues[:, j], single[0], rtol=1e-12, atol=0)


def test_a_binding_sized_for_another_k_raises_before_any_point():
    # a K = 3 grid on a K = 2 fit is an error, not a surface of failed points
    # (which joint_confidence_set would report as an empty set)
    fit, _ = fitted(seed=7, k=2, n=5)
    axis = (GridAxis(-1.0, 1.0, 3),)
    for test, binding in (
        ("far", full_lambda_binding(3, vary=(0,))),
        ("sfar", row_binding(3, index=2)),
    ):
        grid = GridSpec(axes=axis * len(binding.vary), binding=binding)
        want = 4 if binding.kind == "full" else 2
        message = f"{binding.kind} binding has {binding.base.size} parameters, the fit needs {want}"
        with pytest.raises(ValueError, match=message):
            pvalue_curve(test, grid, fit)
        with pytest.raises(ValueError, match=message):
            joint_confidence_set(test, grid, 0.95, fit)


def test_one_surface_inverts_at_every_level():
    fit, lam1 = fitted(seed=7, k=2, n=5, t=250, sigma_e=1.0, beta_scale=0.2)
    grid = GridSpec(
        axes=(
            GridAxis(lam1[0, 0] - 1.5, lam1[0, 0] + 1.5, 9),
            GridAxis(lam1[0, 1] - 1.5, lam1[0, 1] + 1.5, 9),
        ),
        binding=row_binding(2, index=0),
    )
    surface = pvalue_curve("sfar", grid, fit)
    for level in (0.90, 0.95, 0.99):
        got = invert_surface(surface, level, fit, seed=3)
        want = joint_confidence_set("sfar", grid, level, fit, seed=3)
        assert (got.level, got.test, got.grid, got.bounded) == (
            want.level, want.test, want.grid, want.bounded
        )
        np.testing.assert_array_equal(got.pvalues, want.pvalues)
        np.testing.assert_array_equal(got.accepted_mask, want.accepted_mask)
        np.testing.assert_array_equal(got.accepted, want.accepted)
    with pytest.raises(ValueError, match="level"):
        invert_surface(surface, 1.0, fit)


def test_a_surface_with_every_point_failed_is_no_empty_set():
    # hc0 at NK >= T fails every point: no point was tested, so inverting the
    # surface raises, naming the count and the first failure
    spec = preset_dgp("strong", k=3, n=10, t=24)
    fit = fit_model(*simulate(spec, 3))
    grid = GridSpec(axes=(GridAxis(-1.0, 1.0, 3),), binding=full_lambda_binding(3, vary=(0,)))
    surface = pvalue_curve("far", grid, fit, mode="hc0")
    assert [i for i, _ in surface.failures] == [0, 1, 2]
    message = r"all 3 points failed; the first, point 0: NumericalError\('hc0 V_ff is singular"
    with pytest.raises(NumericalError, match=message):
        invert_surface(surface, 0.95, fit)
    with pytest.raises(NumericalError, match=message):
        joint_confidence_set("far", grid, 0.95, fit, mode="hc0")


def test_a_surface_with_failed_points_and_none_accepted_is_no_empty_set():
    # p-values (NaN, NaN, 1e-9): the one tested point rejects, but two of
    # three did not test, so the set is not empty; it raises as the
    # all-failed case does, naming the count and the first failure
    fit, _ = fitted(seed=8)
    grid = GridSpec(axes=(GridAxis(-1.0, 1.0, 3),), binding=full_lambda_binding(1))
    failures = ((0, "NumericalError('injected at 0')"), (1, "NumericalError('injected at 1')"))
    surface = confsets.PvalueSurface(grid, "far", np.array([np.nan, np.nan, 1e-9]), failures)
    message = r"^no grid point is accepted and 2 of 3 points failed; the first, point 0: NumericalError\('injected at 0'\)$"
    with pytest.raises(NumericalError, match=message):
        invert_surface(surface, 0.95, fit)
    # a partly failed surface with an accepted point inverts as before
    accepted = dataclasses.replace(surface, pvalues=np.array([np.nan, 0.5, 1e-9]), failures=failures[:1])
    cs = invert_surface(accepted, 0.95, fit)
    np.testing.assert_array_equal(cs.accepted_mask, [False, True, False])
    assert cs.bounded == "bounded" and cs.accepted.tolist() == [[0.0]]


def test_empty_set_classification():
    fit, _ = fitted(seed=8)
    grid = GridSpec(axes=(GridAxis(50.0, 60.0, 5),), binding=full_lambda_binding(1))
    cs = joint_confidence_set("far", grid, 0.95, fit)
    assert cs.is_empty
    assert cs.bounded == "empty"


def test_boundary_touching_non_sfar_reported_unbounded():
    fit, lam1 = fitted(seed=9)
    # a sliver of a grid around the estimate: acceptance touches the edge
    grid = GridSpec(
        axes=(GridAxis(lam1[0, 0] - 0.01, lam1[0, 0] + 0.01, 3),),
        binding=full_lambda_binding(1),
    )
    cs = joint_confidence_set("far", grid, 0.95, fit)
    assert not cs.is_empty
    assert cs.bounded == "unbounded"


# -- projections ----------------------------------------------------------------


def make_cs(mask, axes):
    grid = GridSpec(
        axes=axes,
        binding=ParameterBinding("row", np.zeros(len(axes)), vary=tuple(range(len(axes)))),
    )
    pts = grid.points()
    return ConfidenceSet(
        level=0.95, test="sfar", grid=grid, pvalues=mask.astype(float),
        accepted=pts[mask.reshape(-1)], accepted_mask=mask, bounded="bounded",
    )


def test_projection_of_rectangle():
    axes = (GridAxis(0, 1, 5), GridAxis(0, 1, 5))
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 2:4] = True
    cs = make_cs(mask, axes)
    assert project_cs(cs, 0) == [(0.25, 0.75)]
    assert project_cs(cs, 1) == [(0.5, 0.75)]


def test_projection_of_two_blobs():
    axes = (GridAxis(0, 1, 9),)
    mask = np.zeros(9, dtype=bool)
    mask[[1, 2, 6, 7]] = True
    cs = make_cs(mask, axes)
    assert project_cs(cs, 0) == [(0.125, 0.25), (0.75, 0.875)]
    assert project_cs(make_cs(np.zeros(9, dtype=bool), axes), 0) == []


def test_projection_contains_marginal_truth_in_coverage_smoke():
    # light coverage smoke test: the projection keeps the true coordinate at
    # least as often as the joint set keeps the true point
    joint_hits, proj_hits = 0, 0
    for rep in range(40):
        fit, lam1 = fitted(seed=100 + rep, k=2, n=5, t=200, sigma_e=1.0, beta_scale=0.25)
        truth = lam1[0]
        grid = GridSpec(
            axes=(
                GridAxis(truth[0] - 2, truth[0] + 2, 9),
                GridAxis(truth[1] - 2, truth[1] + 2, 9),
            ),
            binding=row_binding(2, index=0),
        )
        cs = joint_confidence_set("sfar", grid, 0.95, fit, seed=1)
        in_joint = (not cs.is_empty) and np.any(
            np.all(np.isclose(cs.accepted, truth[None, :], atol=1e-9), axis=1)
        )
        intervals = project_cs(cs, 0)
        in_proj = any(lo - 1e-9 <= truth[0] <= hi + 1e-9 for lo, hi in intervals)
        joint_hits += in_joint
        proj_hits += in_proj
        assert in_proj >= in_joint
    assert proj_hits >= joint_hits
