import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskpremia.panels import (
    FactorPanel,
    PanelError,
    ReturnPanel,
    YieldPanel,
    excess_returns,
    load_yield_csv,
    pca_factors,
    save_panel_csv,
)

from oracles import demean, demeaned


def toy_panel(t=5, mats=(1, 2, 3, 4), rng=None, scale=0.004):
    rng = rng or np.random.default_rng(0)
    dates = tuple(f"2000-{i + 1:02d}" for i in range(t))
    y = 0.003 + scale * rng.random((t, len(mats)))
    return YieldPanel(dates=dates, maturities=mats, yields=y)


# -- CSV ---------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    f = tmp_path / "y.csv"
    f.write_text("date,3,120\n2001-01,0.001,0.002\n2001-02,0.0015,0.0025\n2001-03,0.0012,0.0021\n")
    panel = load_yield_csv(f)
    assert len(panel.dates) == 3
    assert panel.maturities == (3, 120)
    assert panel.yields.shape == (3, 2)


def test_load_csv_non_numeric_cell_names_location(tmp_path):
    f = tmp_path / "y.csv"
    f.write_text("date,3,120\n2001-01,0.001,0.002\n2001-02,oops,0.0025\n2001-03,0.0,0.0\n")
    with pytest.raises(PanelError, match=r"row 3.*'3'.*'oops'"):
        load_yield_csv(f)


def test_load_csv_shuffled_dates_sorted(tmp_path):
    rows = ["2001-03,0.0012,0.0021", "2001-01,0.001,0.002", "2001-02,0.0015,0.0025"]
    shuffled = tmp_path / "a.csv"
    shuffled.write_text("date,3,120\n" + "\n".join(rows) + "\n")
    ordered = tmp_path / "b.csv"
    ordered.write_text("date,3,120\n" + "\n".join(sorted(rows)) + "\n")
    pa, pb = load_yield_csv(shuffled), load_yield_csv(ordered)
    assert pa.dates == pb.dates
    assert np.array_equal(pa.yields, pb.yields)


def test_load_csv_missing_file_and_duplicate_date(tmp_path):
    with pytest.raises(PanelError, match="not found"):
        load_yield_csv(tmp_path / "nope.csv")
    f = tmp_path / "d.csv"
    f.write_text("date,3,6\n2001-01,0,0\n2001-01,0,0\n2001-02,0,0\n")
    with pytest.raises(PanelError, match="duplicate date"):
        load_yield_csv(f)


def test_csv_roundtrip_bit_identical(tmp_path):
    panel = toy_panel()
    f1 = tmp_path / "out.csv"
    save_panel_csv(f1, panel)
    again = load_yield_csv(f1)
    assert again.dates == panel.dates
    assert np.array_equal(again.yields, panel.yields)
    f2 = tmp_path / "out2.csv"
    save_panel_csv(f2, again)
    assert f1.read_text() == f2.read_text()


def test_annualized_percent_conversion(tmp_path):
    f = tmp_path / "y.csv"
    f.write_text("date,3,120\n2001-01,6.0,4.8\n2001-02,6.0,4.8\n2001-03,6.0,4.8\n")
    panel = load_yield_csv(f, annualized_percent=True)
    assert panel.yields[0, 0] == pytest.approx(0.06 / 12)


# -- validation ---------------------------------------------------------------


def test_panel_invariants():
    with pytest.raises(PanelError, match="ascending"):
        YieldPanel(("a", "b", "c"), (3, 3), np.zeros((3, 2)))
    with pytest.raises(PanelError, match="3 dates"):
        YieldPanel(("a", "b"), (1, 2), np.zeros((2, 2)))
    with pytest.raises(PanelError, match="non-finite"):
        YieldPanel(("a", "b", "c"), (1, 2), np.array([[0, 0], [np.nan, 0], [0, 0]]))
    assert not demeaned(np.ones((1, 4)))


def test_return_dates_optional_and_validated_when_given(tmp_path):
    r = np.array([[1.0, 2.0, 3.0]])
    assert ReturnPanel((12,), r).n_periods == 3
    with pytest.raises(PanelError, match="maturities/dates"):
        ReturnPanel((12,), r, ("a", "b"))
    with pytest.raises(PanelError, match="duplicate"):
        ReturnPanel((12,), r, ("a", "a", "b"))
    path = tmp_path / "returns.csv"
    save_panel_csv(path, ReturnPanel((12,), r))
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["0", "1", "2"]


# -- excess returns ------------------------------------------------------------


def test_flat_constant_curve_gives_zero_returns():
    y = np.full((4, 5), 0.004)
    panel = YieldPanel(tuple("abcd"), (1, 2, 3, 4, 5), y)
    rp = excess_returns(panel, [2, 3])
    assert np.allclose(rp.returns, 0.0, atol=1e-16)
    assert rp.returns.shape == (2, 3)


def test_two_date_hand_computed_return():
    # 2 usable dates, maturities 1,2,3; hand arithmetic via the three-log formula
    y = np.array([[0.002, 0.003, 0.004], [0.0025, 0.0035, 0.0045], [0.002, 0.003, 0.004]])
    panel = YieldPanel(("d1", "d2", "d3"), (1, 2, 3), y)
    rp = excess_returns(panel, [2])
    # r[d2, 2] = -2*y[d2,2] + 3*y[d1,3] - 1*y[d1,1]
    expected_d2 = -2 * 0.0035 + 3 * 0.004 - 0.002
    expected_d3 = -2 * 0.003 + 3 * 0.0045 - 0.0025
    assert rp.returns[0, 0] == pytest.approx(expected_d2, abs=1e-15)
    assert rp.returns[0, 1] == pytest.approx(expected_d3, abs=1e-15)


def test_missing_maturity_errors_without_interpolation():
    panel = toy_panel(mats=(1, 2, 3, 120))
    with pytest.raises(PanelError, match="121"):
        excess_returns(panel, [120])
    # interpolation cannot save an out-of-range maturity either
    with pytest.raises(PanelError, match="outside"):
        excess_returns(panel, [120], interpolate=True)


def test_interpolated_maturity_matches_linear_blend():
    panel = toy_panel(mats=(1, 2, 4, 6))
    rp = excess_returns(panel, [2], interpolate=True)  # needs maturity 3
    y3 = 0.5 * (panel.yields[:, 1] + panel.yields[:, 2])
    expected = -2 * panel.yields[1:, 1] + 3 * y3[:-1] - panel.yields[:-1, 0]
    assert np.allclose(rp.returns[0], expected)


# -- PCA -----------------------------------------------------------------------


def test_rank_one_panel_single_factor_explains_everything():
    shifts = np.array([0.0, 0.001, -0.002, 0.0005])
    y = 0.003 + np.outer(shifts, np.ones(3))
    panel = YieldPanel(tuple("abcd"), (1, 2, 3), y)
    fp = pca_factors(panel, 1)
    centered = y - y.mean(axis=0)
    total = (centered**2).sum()
    explained = (fp.factors**2).sum()
    assert explained == pytest.approx(total, rel=1e-12)
    with pytest.raises(PanelError, match="rank"):
        pca_factors(panel, 2)


def test_pca_scores_match_eigh_oracle_up_to_sign():
    panel = toy_panel(t=9, mats=(1, 2, 3, 4))
    fp = pca_factors(panel, 2)
    centered = panel.yields - panel.yields.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered / len(panel.dates))
    order = np.argsort(w)[::-1]
    oracle = centered @ v[:, order[:2]]
    for j in range(2):
        a, b = fp.factors[j], oracle[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-12


def test_pca_full_reconstruction_and_uncorrelated_scores():
    panel = toy_panel(t=12, mats=(1, 2, 3, 5))
    fp = pca_factors(panel, 4)
    centered = panel.yields - panel.yields.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    recon = fp.factors.T @ np.diag(np.sign(vt[np.arange(4), np.abs(vt).argmax(axis=1)])) @ vt
    assert np.allclose(recon, centered, atol=1e-10)
    cov = fp.factors @ fp.factors.T / len(panel.dates)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-10 * np.abs(cov).max()


def test_pca_sign_convention_deterministic():
    panel = toy_panel(t=8)
    f1 = pca_factors(panel, 3)
    f2 = pca_factors(YieldPanel(panel.dates, panel.maturities, panel.yields.copy()), 3)
    assert np.array_equal(f1.factors, f2.factors)


# -- demean ---------------------------------------------------------------------


def test_demean_basic_and_idempotent():
    fp = FactorPanel(np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]), ("a", "b"))
    d = demean(fp)
    assert np.allclose(d.factors, [[-1, 0, 1], [0, 0, 0]])
    assert demeaned(d.factors)
    dd = demean(d)
    assert np.array_equal(dd.factors, d.factors)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
# a large constant row: one centring pass leaves rounding that fails the
# demeaned sum-to-zero check
@example(row=[155355.0] * 3, a=0.0, b=0.0)
def test_demean_is_linear(row, a, b):
    x = np.asarray(row)[None, :]
    pa = FactorPanel(a * x + b * (x**2 / 1e3), ("f",))
    da = demean(pa).factors
    ref = a * demean(FactorPanel(x, ("f",))).factors + b * demean(
        FactorPanel(x**2 / 1e3, ("f",))
    ).factors
    assert np.allclose(da, ref, rtol=1e-9, atol=1e-9)


def test_demean_returns_type():
    rp = ReturnPanel((2,), np.array([[1.0, 3.0]]), ("d1", "d2"))
    assert np.allclose(demean(rp).returns, [[-1, 1]])
    with pytest.raises(TypeError):
        demean(object())


def test_demean_of_a_stack_equals_the_stacked_demeans():
    # (R, N, T) returns and (R, K, T) factors: each panel over its own dates
    rng = np.random.default_rng(7)
    returns = 3.0 + rng.standard_normal((4, 3, 6))
    factors = 2.0 + rng.standard_normal((4, 2, 6))
    stacked = demean(ReturnPanel((1, 2, 3), returns)).returns
    singles = [demean(ReturnPanel((1, 2, 3), r)).returns for r in returns]
    np.testing.assert_array_equal(stacked, np.stack(singles))
    assert np.abs(stacked.sum(axis=-1)).max() < 1e-12
    stacked = demean(FactorPanel(factors, ("f1", "f2")))
    singles = [demean(FactorPanel(x, ("f1", "f2"))).factors for x in factors]
    assert demeaned(stacked.factors)
    np.testing.assert_array_equal(stacked.factors, np.stack(singles))
