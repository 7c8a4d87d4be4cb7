import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgof import copulas, survival
from copgof.survival import (CensoredPair, CensoredSample, StepSurvival,
                             SurvivalError, as_sample, censoring_curves,
                             empirical_kendall_tau, kaplan_meier,
                             pseudo_observations)


def test_km_no_censoring():
    km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
    np.testing.assert_array_equal(km.jump_times, [1, 2, 3, 4])
    np.testing.assert_allclose(km.values, [0.75, 0.5, 0.25, 0.0])
    np.testing.assert_array_equal(km.n_at_risk, [4, 3, 2, 1])


def test_km_with_censoring():
    # censored at 2: risk sets are {1,2,3} then {3}
    km = kaplan_meier([1, 2, 3], [1, 0, 1])
    np.testing.assert_array_equal(km.jump_times, [1, 3])
    np.testing.assert_allclose(km.values, [2.0 / 3.0, 0.0])


def test_km_tie_deaths_first():
    # death and censoring both at t=2: the censored subject is still at
    # risk for the death, so S(2) = (3/4) * (2/3) = 1/2
    km = kaplan_meier([1, 2, 2, 3], [1, 1, 0, 1])
    np.testing.assert_array_equal(km.jump_times, [1, 2, 3])
    np.testing.assert_allclose(km.values, [0.75, 0.5, 0.0])


def test_km_evaluate_step_shape():
    km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
    assert km.evaluate(0.5) == 1.0
    assert km.evaluate(1.0) == 0.75   # right-continuous at the jump
    assert km.evaluate(2.5) == 0.5
    assert km.evaluate(10.0) == 0.0
    np.testing.assert_allclose(km.evaluate(np.array([0.0, 1.5, 4.0])),
                               [1.0, 0.75, 0.0])


def test_km_empty_and_mismatched():
    with pytest.raises(SurvivalError):
        kaplan_meier([], [])
    with pytest.raises(SurvivalError):
        kaplan_meier([1, 2], [1])


def test_km_inverse_basic():
    km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
    np.testing.assert_array_equal(km.inverse(np.array([1.0, 1.5, 0.75, 0.6, 0.0])),
                                  [0.0, 0.0, 1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        km.inverse(np.array([0.5, math.nan]))


def test_km_inverse_plateau():
    # curve never reaches 0.2: inverse maps to the largest jump time
    km = kaplan_meier([1, 2, 3], [1, 1, 0])
    assert km.values[-1] > 0.2
    np.testing.assert_array_equal(km.inverse(np.array([0.1])), [2.0])


def test_km_inverse_no_events():
    km = kaplan_meier([1, 2], [0, 0])
    np.testing.assert_array_equal(km.inverse(np.array([0.5, 1.0])), [math.inf, 0.0])


def test_step_survival_validation():
    with pytest.raises(ValueError):
        StepSurvival(np.array([2.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        StepSurvival(np.array([1.0]), np.array([0.5, 0.2]))


def test_censored_pair_validation():
    with pytest.raises(ValueError):
        CensoredPair(-1.0, 2.0, 1, 1)
    with pytest.raises(ValueError):
        CensoredPair(1.0, 2.0, 1, 3)
    with pytest.raises(ValueError):
        CensoredPair(math.inf, 2.0, 1, 1)


def test_censored_sample_validation():
    ok = dict(x1=[1.0, 2.0], x2=[2.0, 3.0], d1=[1, 0], d2=[1, 1])
    for key, bad, row in (("x1", [1.0, -1.0], 1), ("d2", [1, 3], 1),
                          ("x2", [math.inf, 2.0], 0), ("d1", [0.5, 1], 0)):
        with pytest.raises(ValueError, match=f"^row {row} "):
            CensoredSample(**{**ok, key: bad})
    with pytest.raises(ValueError):
        CensoredSample([1.0], [1.0, 2.0], [1], [1])
    with pytest.raises(ValueError):
        CensoredSample([], [], [], [])
    with pytest.raises(ValueError):
        CensoredSample([[1.0]], [[1.0]], [[1]], [[1]])


def test_censored_sample_rows_equality_and_pickle():
    pairs = [CensoredPair(1.0, 5.0, 1, 1), CensoredPair(2.0, 6.0, 0, 1)]
    sample = as_sample(pairs)
    assert as_sample(sample) is sample
    assert len(sample) == 2 and list(sample) == pairs
    assert sample.d1.dtype == np.int8 and not sample.x1.flags.writeable
    assert sample == CensoredSample([1.0, 2.0], [5.0, 6.0], [True, False], [1, 1])
    assert sample != CensoredSample([1.0, 2.0], [5.0, 6.0], [1, 1], [1, 1])
    again = pickle.loads(pickle.dumps(sample))
    assert again == sample
    # unpickling rebuilds the sample, so its arrays stay read-only
    assert not any(getattr(again, k).flags.writeable for k in ("x1", "x2", "d1", "d2"))


def test_observations_pickle_rebuilds_the_sample():
    obs = pseudo_observations(CensoredSample([1.0, 2.0, 3.0], [5.0, 6.0, 4.0],
                                             [1, 0, 1], [1, 1, 0]))
    again = pickle.loads(pickle.dumps(obs))
    assert isinstance(again, copulas.Observations) and again.n == obs.n
    for k in ("u1", "u2", "d1", "d2"):
        a, b = getattr(obs, k), getattr(again, k)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not b.flags.writeable
    assert len(again.cases) == len(obs.cases)
    for (c, rows, u1, u2), (c2, rows2, v1, v2) in zip(obs.cases, again.cases):
        assert c == c2 and rows.tobytes() == rows2.tobytes()
        assert u1.tobytes() == v1.tobytes() and u2.tobytes() == v2.tobytes()
        assert not any(a.flags.writeable for a in (rows2, v1, v2))


def test_censoring_survival_swaps_indicators():
    pairs = [CensoredPair(1, 5, 1, 1), CensoredPair(2, 6, 0, 1),
             CensoredPair(3, 7, 0, 0)]
    g, _ = censoring_curves(pairs, common=False)
    # censoring events at 2 and 3; death at 1 counts as censored-for-G
    np.testing.assert_array_equal(g.jump_times, [2, 3])
    np.testing.assert_allclose(g.values, [0.5, 0.0])


def test_censoring_survival_common():
    pairs = [CensoredPair(1, 5, 1, 1), CensoredPair(2, 6, 0, 1)]
    g, = censoring_curves(pairs, common=True)
    # times max(x1,x2) = 5, 6; events 1 - d1*d2 = 0, 1
    np.testing.assert_array_equal(g.jump_times, [6])


def test_pseudo_observations_clamped():
    pairs = [CensoredPair(float(i), float(10 - i), 1, 1) for i in range(1, 9)]
    obs = pseudo_observations(pairs)
    assert isinstance(obs, copulas.Observations)
    assert obs.d1.dtype == np.int8 and (obs.d1 == 1).all() and (obs.d2 == 1).all()
    u1, u2 = obs.u1, obs.u2
    n = len(pairs)
    assert (u1 >= 1.0 / (2 * n)).all() and (u1 <= 1.0 - 1.0 / (2 * n)).all()
    assert (u2 >= 1.0 / (2 * n)).all()
    # margin 1 is increasing in i, so u1 = S1(x1) is decreasing
    assert (np.diff(u1) < 0).all()
    assert (np.diff(u2) > 0).all()


@pytest.mark.parametrize("margin", [1, 2])
def test_pseudo_observations_reject_a_margin_without_events(margin):
    # the all-censored margin's pseudo-observations would be one constant
    # and a copula fit on them a silent number
    gen = np.random.default_rng(3)
    x1, x2 = gen.exponential(1.0, 80), gen.exponential(1.0, 80)
    d = [np.zeros(80), gen.random(80) < 0.7]
    sample = CensoredSample(x1, x2, *(d if margin == 1 else d[::-1]))
    with pytest.raises(SurvivalError, match=f"margin {margin} has no observed events"):
        pseudo_observations(sample)


def test_kendall_tau_hand_values():
    assert empirical_kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0
    assert empirical_kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    # one discordant pair of three
    assert empirical_kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0)


def test_kendall_tau_ties_contribute_zero():
    assert empirical_kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2.0 / 3.0)


def test_kendall_tau_matches_scipy():
    from scipy.stats import kendalltau
    rng = np.random.default_rng(4)
    x = rng.normal(size=700)
    y = 0.5 * x + rng.normal(size=700)
    assert empirical_kendall_tau(x, y) == pytest.approx(
        kendalltau(x, y).statistic, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100.0),
                          st.integers(min_value=0, max_value=1)),
                min_size=2, max_size=40))
def test_km_is_decreasing_probability(rows):
    times = [t for t, _ in rows]
    events = [e for _, e in rows]
    km = kaplan_meier(times, events)
    assert (km.values >= -1e-15).all() and (km.values <= 1.0).all()
    if km.values.size > 1:
        assert (np.diff(km.values) <= 1e-15).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=3), st.data())
def test_product_limit_rows_equal_per_row_kaplan_meier(n, k, decimals, data):
    # times rounded to few decimals tie heavily; a row with event
    # probability 0 is censored throughout
    rows = data.draw(st.lists(st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n),
        st.sampled_from([0.0, 0.3, 0.8, 1.0])), min_size=k, max_size=k))
    x = np.round(np.array([t for t, _ in rows]), decimals)
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    d = (rng.random((k, n)) < np.array([[p] for _, p in rows])).astype(np.int8)
    s_rows = survival._km_rows(x, d)
    for j in range(k):
        assert s_rows[j].tobytes() == kaplan_meier(x[j], d[j]).evaluate(x[j]).tobytes()

    # the pseudo-observations of a row fail alone when a margin of that
    # row has no events, and otherwise equal its own call
    x2, d2 = x[::-1], d[::-1]
    u1, u2, errors = survival._pseudo_rows(x, x2, d, d2)
    for j in range(k):
        sample = CensoredSample(x[j], x2[j], d[j], d2[j])
        if not (d[j].any() and d2[j].any()):
            with pytest.raises(SurvivalError) as exc:
                pseudo_observations(sample)
            assert isinstance(errors[j], SurvivalError)
            assert str(errors[j]) == str(exc.value)
            continue
        assert errors[j] is None
        obs = pseudo_observations(sample)
        assert u1[j].tobytes() == obs.u1.tobytes() and u2[j].tobytes() == obs.u2.tobytes()
