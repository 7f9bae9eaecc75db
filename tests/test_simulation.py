import json
import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from oracles import monte_carlo_theta, reference_draw, reference_draw_block

from pairedrte import (
    BracketError,
    Exponential,
    Gompertz,
    InferenceConfig,
    InvalidParameter,
    Mixture,
    PairedObservation,
    Scenario,
    ScenarioError,
    Uniform,
    ValidationError,
    bootstrap_distribution,
    calibrate_null,
    estimate_rte,
    power_scenario,
    prepare_dataset,
    run_power_experiment,
    run_size_experiment,
    table1_scenario,
)
from pairedrte import _engine, simulation
from pairedrte.simulation import (
    draw_paired_sample,
    grid_from_dict,
    marginal_from_dict,
    sample_copula,
    scenario_from_dict,
    settings_from_dict,
)

N_BIG = 100_000

# Every mixture the package builds: both calibrated exp_mix nulls, and power
# families 1 (the U(0, 2) component's kink at 2) and 2 (Gompertz(0.1, 2)).
PACKAGE_MIXTURES = {
    **{f"{copula}-exp_mix": table1_scenario(copula, "exp_mix", "medium", n=100).marginal2
       for copula in ("gumbel_hougaard", "clayton")},
    **{f"family{family}-{weight}": power_scenario(family, "gumbel_hougaard", weight, 25).marginal1
       for family in (1, 2) for weight in (0.1, 0.5, 0.9)},
}


def kendall(u):
    return kendalltau(u[:, 0], u[:, 1]).statistic


class FirstDraw(np.random.Generator):
    """A generator whose first ``random`` or ``uniform`` call returns ``first``, zeros if ``None``.

    A scalar ``first`` fills the call's shape, and a first call given ``out``
    fills ``out``. Every later draw comes from ``default_rng(seed)``'s
    stream, untouched by that first call.
    """

    def __init__(self, seed, first=None):
        super().__init__(np.random.PCG64(seed))
        self.pending = True
        self.first = first

    def random(self, size=None, *args, out=None, **kwargs):
        if self.pending:
            return self._first(size if out is None else out.shape, out)
        return super().random(size, *args, out=out, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):
        if self.pending:
            return self._first(size, None)
        return super().uniform(low, high, size)

    def _first(self, shape, out):
        self.pending = False
        first = np.broadcast_to(0.0 if self.first is None else self.first, shape or ())
        if out is None:
            return first.copy()
        out[...] = first
        return out


class ValueAt(np.random.Generator):
    """A generator of ``default_rng(seed)``'s draws with ``value`` at position ``index``.

    Positions count, in order, every value ``random`` and ``uniform`` returned so far.
    """

    def __init__(self, seed, index, value=0.0):
        super().__init__(np.random.PCG64(seed))
        self.index, self.value, self.drawn = index, value, 0

    def random(self, size=None, *args, out=None, **kwargs):
        return self._set(super().random(size, *args, out=out, **kwargs))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._set(super().uniform(low, high, size))

    def _set(self, got):
        flat = got.reshape(-1)
        if 0 <= self.index - self.drawn < flat.size:
            flat[self.index - self.drawn] = self.value
        self.drawn += flat.size
        return got


COPULA_CASES = [("gumbel_hougaard", 1.0), ("gumbel_hougaard", 5.0),
                ("clayton", -1.0), ("clayton", -0.6), ("clayton", 2.0)]


@pytest.mark.parametrize("copula, param", COPULA_CASES)
def test_copula_uniforms_stay_inside_the_unit_interval(copula, param):
    # the first uniform draws all 0: the sampler must redraw them itself
    for rng in (FirstDraw(1), np.random.default_rng(2)):
        u = sample_copula(copula, param, 2000, rng)
        assert u.shape == (2000, 2)
        assert np.all((u > 0.0) & (u < 1.0)), (copula, param)


@pytest.mark.parametrize("copula, param", COPULA_CASES)
def test_sample_copula_is_the_uniforms_of_draw_paired_sample(copula, param):
    # Uniform(1) margins make the times 1 - u bit for bit, with censoring far
    # out of reach; a first draw that holds a 0 must be drawn again the same way
    scenario = Scenario(copula, param, Uniform(1.0), Uniform(1.0), Uniform(1e9), 1.0, 200)
    for seed in (lambda: 5, lambda: ValueAt(5, 7)):
        u = sample_copula(copula, param, scenario.n, seed())
        obs = draw_paired_sample(scenario, seed())
        assert (obs.delta == 1).all()
        np.testing.assert_array_equal(obs.x, 1.0 - u)


@pytest.mark.parametrize("copula, param", [
    ("gumbel_hougaard", math.inf), ("gumbel_hougaard", math.nan),
    ("clayton", math.inf), ("clayton", math.nan), ("frank", 2.0),
])
def test_sampler_refuses_what_scenario_refuses(copula, param):
    # an infinite Gumbel-Hougaard parameter ended in a bare ZeroDivisionError,
    # and a non-finite Clayton one redrew every v, so the pairs came out independent
    with pytest.raises(ScenarioError) as refused:
        Scenario(copula, param, Exponential(1), Exponential(1), Uniform(2), 1.0, 20)
    with pytest.raises(InvalidParameter, match=re.escape(refused.value.reason)):
        sample_copula(copula, param, 5, 1)


class TestGumbelHougaard:
    def test_independence_at_parameter_one(self):
        u = sample_copula("gumbel_hougaard", 1.0, N_BIG, seed=1)
        assert abs(kendall(u)) <= 0.01

    def test_kendall_tau_matches_closed_form(self):
        # tau = 1 - 1/param
        u = sample_copula("gumbel_hougaard", 5.0, N_BIG, seed=2)
        assert kendall(u) == pytest.approx(0.8, abs=0.01)

    def test_marginal_uniformity(self):
        u = sample_copula("gumbel_hougaard", 5.0, N_BIG, seed=3)
        assert np.mean(u[:, 0] <= 0.5) == pytest.approx(0.5, abs=0.01)
        assert kstest(u[:, 1], "uniform").statistic <= 0.01
        assert np.all((u > 0) & (u < 1))

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            sample_copula("gumbel_hougaard", 0.8, 10, seed=0)


class TestClayton:
    def test_near_independence_limit(self):
        u = sample_copula("clayton", 1e-6, N_BIG, seed=4)
        assert abs(kendall(u)) <= 0.01

    def test_negative_dependence_closed_form(self):
        # tau = param / (param + 2)
        u = sample_copula("clayton", -0.6, N_BIG, seed=5)
        assert kendall(u) == pytest.approx(-0.6 / 1.4, abs=0.01)

    def test_positive_dependence_closed_form(self):
        u = sample_copula("clayton", 2.0, N_BIG, seed=6)
        assert kendall(u) == pytest.approx(0.5, abs=0.01)

    def test_marginals_uniform(self):
        u = sample_copula("clayton", -0.6, N_BIG, seed=7)
        assert kstest(u[:, 0], "uniform").statistic <= 0.01
        assert kstest(u[:, 1], "uniform").statistic <= 0.01

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            sample_copula("clayton", 0.0, 10, seed=0)
        with pytest.raises(InvalidParameter):
            sample_copula("clayton", -1.5, 10, seed=0)

    def test_countermonotone_boundary(self):
        u = sample_copula("clayton", -1.0, 1000, seed=8)
        np.testing.assert_allclose(u[:, 1], 1.0 - u[:, 0])


class TestMarginals:
    def test_exponential_quantile_closed_form(self):
        assert Exponential(2.0).quantile(0.5) == pytest.approx(np.log(2) / 2)

    def test_gompertz_quantile_inverts_cdf(self):
        g = Gompertz(0.6, 2.0)
        p = np.linspace(0.01, 0.99, 37)
        np.testing.assert_allclose(g.cdf(g.quantile(p)), p, atol=1e-12)

    def test_mixture_quantile_inverts_cdf(self):
        m = Mixture(0.5, Exponential(3.0), Exponential(1.3))
        p = np.linspace(0.001, 0.999, 41)
        np.testing.assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-9)

    def test_uniform_quantile(self):
        assert Uniform(2.0).quantile(0.25) == 0.5

    def test_mixture_of_one_component_is_its_quantile(self):
        first, second = Exponential(3.0), Gompertz(0.6, 2.0)
        p = np.linspace(0.0, 1.0, 23)
        for weight, component in ((1.0, first), (0.0, second)):
            got = Mixture(weight, first, second).quantile(p)
            np.testing.assert_array_equal(got, component.quantile(p))

    @staticmethod
    def _quantile_90_steps(m, p):
        p = np.asarray(p, dtype=float)
        q1, q2 = m.first.quantile(p), m.second.quantile(p)
        lo, hi = np.minimum(q1, q2), np.maximum(q1, q2)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = m.cdf(mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize(
        "marginal",
        [
            table1_scenario("gumbel_hougaard", "exp_mix", "medium", n=100).marginal2,
            power_scenario(1, "gumbel_hougaard", 0.5, 25).marginal1,
            power_scenario(2, "gumbel_hougaard", 0.5, 25).marginal1,
        ],
    )
    def test_mixture_quantile_equals_full_bisection(self, marginal, monkeypatch):
        p = 1.0 - np.random.default_rng(31).random(100)
        expected = self._quantile_90_steps(marginal, p)
        expected_scalar = self._quantile_90_steps(marginal, 0.3)
        cdf_calls = []
        cdf = Mixture.cdf
        monkeypatch.setattr(Mixture, "cdf", lambda m, t: cdf_calls.append(1) or cdf(m, t))
        np.testing.assert_array_equal(marginal.quantile(p), expected)
        assert len(cdf_calls) < 90
        assert marginal.quantile(0.3) == expected_scalar

    @pytest.mark.parametrize("marginal", PACKAGE_MIXTURES.values(), ids=PACKAGE_MIXTURES.keys())
    def test_mixture_quantile_is_the_90_step_bisection_bit_for_bit(self, marginal):
        # the density-guided bracket must change no bit: 10^5 uniform points,
        # the ends, points within 1e-12 of either end, a scalar and a block
        rng = np.random.default_rng(2032)
        edge = 1e-12 * rng.random(1000)
        p = np.concatenate([rng.random(10**5), [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)],
                            edge, 1.0 - edge])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # p = 1 maps to inf without a warning
            assert np.array_equal(marginal.quantile(p), self._quantile_90_steps(marginal, p))
            block = p[-1200:].reshape(12, 100)
            assert np.array_equal(marginal.quantile(block), self._quantile_90_steps(marginal, block))
            assert marginal.quantile(0.3) == self._quantile_90_steps(marginal, 0.3)
            assert marginal.quantile(1.0) == np.inf

    def test_a_nan_probability_adds_no_bisection_step(self, monkeypatch):
        # a NaN p keeps a NaN bracket, which has converged: it must not run
        # the block's bisection to all 90 steps
        marginal = PACKAGE_MIXTURES["gumbel_hougaard-exp_mix"]
        p = np.random.default_rng(2033).random(1000)
        p[417] = np.nan
        calls, cdf = [], Mixture.cdf
        monkeypatch.setattr(Mixture, "cdf", lambda m, t: calls.append(1) or cdf(m, t))
        finite = marginal.quantile(np.delete(p, 417))
        finite_calls = len(calls)
        got = marginal.quantile(p)
        assert len(calls) - finite_calls == finite_calls
        monkeypatch.undo()
        assert np.isnan(got[417])
        assert np.array_equal(np.delete(got, 417), finite)
        assert np.array_equal(got, self._quantile_90_steps(marginal, p), equal_nan=True)

    @pytest.mark.parametrize("dist", [Exponential(2.0), Gompertz(0.6, 2.0), Gompertz(0.1, 2.0),
                                      Uniform(2.0), *PACKAGE_MIXTURES.values()])
    def test_quantile_and_density_do_not_warn_on_the_closed_unit_interval(self, dist):
        p = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, np.nextafter(1.0, 0.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = dist.quantile(p)
            density = dist._density(t)
        assert np.all(np.diff(t[:1001]) >= 0)
        assert t[1000] == (dist.upper if isinstance(dist, Uniform) else np.inf)
        assert np.all(np.isfinite(density) & (density >= 0)) and density[1000] == 0.0

    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(2.0),
            Gompertz(0.6, 2.0),
            Mixture(0.5, Exponential(3.0), Exponential(1.2)),
            Mixture(0.3, Uniform(2.0), Exponential(2.0)),
        ],
    )
    def test_generated_lifetimes_match_target_cdf(self, dist):
        rng = np.random.default_rng(9)
        t = np.asarray(dist.quantile(1.0 - rng.random(N_BIG)))
        assert kstest(t, dist.cdf).statistic < 0.01

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            Exponential(0.0)
        with pytest.raises(InvalidParameter):
            Gompertz(-1.0, 2.0)
        with pytest.raises(InvalidParameter):
            Mixture(1.5, Exponential(1), Exponential(2))
        # an infinite upper bound would draw no censoring at all
        with pytest.raises(InvalidParameter, match="positive and finite"):
            Uniform(math.inf)

    @pytest.mark.parametrize("build", [
        # with an infinite rate every first-margin time would be 0, and the
        # harness would fail with DegenerateVariance past its failure cap
        lambda: Scenario("clayton", -0.6, Exponential(math.inf), Exponential(2.0), Uniform(2.0),
                         1.0, 20),
        lambda: Gompertz(math.inf, 1.0),
        lambda: Gompertz(1.0, math.inf),
    ], ids=["exponential-rate", "gompertz-shape", "gompertz-rate"])
    def test_infinite_parameters_are_refused(self, build):
        with pytest.raises(InvalidParameter, match="positive and finite"):
            build()


@pytest.fixture(scope="module")
def simple_scenario():
    return Scenario(
        copula="gumbel_hougaard",
        copula_param=5.0,
        marginal1=Exponential(2.0),
        marginal2=Exponential(2.0),
        censoring=Uniform(2.7),
        tau=1.0,
        n=60,
    )


@pytest.mark.parametrize("call", [
    lambda s, seed: draw_paired_sample(s, seed),
    lambda s, seed: run_size_experiment(s, methods=["asymptotic"], r=2, seed=seed),
    lambda s, seed: run_power_experiment([("a", s)], methods=["asymptotic"], r=2, seed=seed),
], ids=["draw", "size", "power"])
def test_negative_seed_is_a_validation_error(simple_scenario, call):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -1"):
        call(simple_scenario, -1)


def test_power_seed_is_one_word_as_in_the_size_harness(simple_scenario, monkeypatch):
    # a tuple seed used to be flattened into the grid's SeedSequence words
    with pytest.raises(ValidationError) as size:
        run_size_experiment(simple_scenario, methods=["asymptotic"], r=2, seed=(1, 2))
    points = []
    monkeypatch.setattr(simulation, "run_size_experiment", lambda s, **kwargs: points.append(s))
    with pytest.raises(ValidationError, match=re.escape(str(size.value))):
        run_power_experiment([("a", simple_scenario)] * 2, methods=["asymptotic"], r=2,
                             seed=(1, 2))
    assert points == []


# Each count a caller passes, as a call on the scenario that takes it.
COUNTS = {
    "b": lambda s, b: bootstrap_distribution(prepare_dataset(draw_paired_sample(s, 1), s.tau),
                                             InferenceConfig("bootstrap", b=b)),
    "r": lambda s, r: run_size_experiment(s, methods=["asymptotic"], r=r),
    "n": lambda s, n: draw_paired_sample(replace(s, n=n), 1),
    "seed": lambda s, seed: draw_paired_sample(s, seed),
}


@pytest.mark.parametrize("count, value, error", [
    ("b", 25.5, ValidationError), ("b", True, ValidationError), ("b", np.int64(25), None),
    ("r", 2.5, ValidationError), ("r", True, ValidationError), ("r", np.int64(2), None),
    ("n", 2.5, ScenarioError), ("n", True, ScenarioError), ("n", np.int32(5), None),
    ("seed", True, ValidationError), ("seed", np.uint32(3), None),
])
def test_counts_must_be_integers(simple_scenario, count, value, error):
    # a float or a bool count used to end in a bare TypeError, or, as a seed,
    # to stand for 0 or 1; numpy integers are counts too
    if error is None:
        COUNTS[count](simple_scenario, value)
        return
    with pytest.raises(error, match=count) as exc:
        COUNTS[count](simple_scenario, value)
    assert type(exc.value) is error
    if error is ScenarioError:
        assert exc.value.field == "n"


@pytest.mark.parametrize("b", [2.5, True, 0])
def test_size_experiment_checks_b_for_every_method(simple_scenario, b):
    # every row reports b, so a run without a resampling method checks it too
    with pytest.raises(ValidationError, match="b must be an integer at least 1"):
        run_size_experiment(simple_scenario, methods=["asymptotic"], r=2, b=b)


def test_numpy_counts_are_stored_as_python_ints(simple_scenario):
    scenario = replace(simple_scenario, n=np.int32(simple_scenario.n))
    assert type(scenario.n) is int
    result = run_size_experiment(scenario, methods=["asymptotic"], r=np.int64(2),
                                 b=np.int64(3), seed=np.uint32(4))
    assert [type(v) for v in (result.r, result.b, result.seed)] == [int, int, int]
    json.dumps(result.to_rows())


class TestApplyMarginalsAndCensoring:
    def test_no_censoring_when_support_is_huge(self, simple_scenario):
        obs = draw_paired_sample(replace(simple_scenario, censoring=Uniform(1e9), n=500), seed=11)
        assert (obs.delta == 1).all()

    def test_boundary_uniforms_are_redrawn(self, simple_scenario):
        # independence draws its pairs and then the censoring times in one
        # call; a first call whose pairs hold a 0 and a 1 is drawn again whole,
        # from the draws that follow, which FirstDraw leaves untouched
        first = np.array([0.0, 0.5, 0.5, 1.0, 0.25, 0.75, *[0.5] * 6])
        rng = np.random.default_rng(12)
        want = rng.random((3, 2))
        c = rng.uniform(0.0, simple_scenario.censoring.upper, (2, 3)).T
        np.testing.assert_array_equal(
            sample_copula("gumbel_hougaard", 1.0, 3, FirstDraw(12, first)), want)
        obs = draw_paired_sample(replace(simple_scenario, copula_param=1.0, n=3),
                                 FirstDraw(12, first))
        t = Exponential(2.0).quantile(1.0 - want)
        np.testing.assert_array_equal(obs.x, np.minimum(t, c))
        assert np.isfinite(obs.x).all()

    def test_deterministic(self, simple_scenario):
        a = draw_paired_sample(simple_scenario, seed=14)
        b = draw_paired_sample(simple_scenario, seed=14)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.delta, b.delta)


class TestCensoringRateBands:
    # The censoring parameter sets are mapped to light/medium/strong by
    # matching the reported margin-level rate bands (truncation counted as
    # censoring): light 17-27%, medium 27-34%, strong 38-42%.
    BANDS = {"light": (0.17, 0.27), "medium": (0.27, 0.34), "strong": (0.38, 0.42)}

    @pytest.mark.parametrize("family", ["exp_mix", "gompertz_exp"])
    @pytest.mark.parametrize("level", ["light", "medium", "strong"])
    def test_margin_rates_fall_in_reported_bands(self, family, level):
        scenario = table1_scenario("gumbel_hougaard", family, level, n=100)
        res = run_size_experiment(scenario, methods=["asymptotic"], transforms=["linear"],
                                  r=N_BIG // scenario.n, seed=15)
        margin_rate, pair_rate = res.censoring_rate_margins, res.censoring_rate_pairs
        lo, hi = self.BANDS[level]
        assert lo - 0.01 <= margin_rate <= hi + 0.01, (family, level, margin_rate)
        assert pair_rate >= margin_rate * 0.8  # pair-level is at least comparable


class TestCalibrateNull:
    def test_symmetric_scenario_is_already_null(self, simple_scenario):
        # Identical marginals: any parameter value gives theta = 1/2.
        def build(param):
            return simple_scenario

        with pytest.raises(BracketError):
            # No sign change because the curve is flat at the target.
            calibrate_null(build, (0.5, 2.0))
        u = sample_copula("gumbel_hougaard", 5.0, 50_000, seed=17)
        t1 = Exponential(2.0).quantile(1.0 - u[:, 0])
        t2 = Exponential(2.0).quantile(1.0 - u[:, 1])
        m1 = np.minimum(t1, 1.0)
        m2 = np.minimum(t2, 1.0)
        theta = np.mean((m1 > m2) + 0.5 * (m1 == m2))
        assert theta == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("key", sorted(simulation.calibration_targets()))
    def test_recovers_every_pinned_parameter(self, key):
        pinned = simulation.load_calibrated_params()[key]
        target = simulation.calibration_targets()[key]
        res = calibrate_null(target["builder"], target["bracket"])
        assert res.param == pytest.approx(pinned["param"], rel=1e-9)
        assert abs(res.theta - 0.5) <= 1e-6
        assert abs(simulation._theta_of(target["builder"](pinned["param"])) - 0.5) <= 1e-6

    def test_bracket_error(self):
        def build(param):
            return Scenario(
                copula="clayton",
                copula_param=-0.6,
                marginal1=Exponential(param),
                marginal2=Exponential(50.0),
                censoring=Uniform(1.0),
                tau=1.0,
                n=10,
            )

        with pytest.raises(BracketError):
            calibrate_null(build, (5.0, 9.0))

    @pytest.mark.parametrize("bracket", [(2.0, 2.0), (3.0, 1.0), (math.nan, 1.0)])
    def test_bracket_must_be_increasing(self, bracket):
        def build(param):
            raise AssertionError("a scenario was built for an invalid bracket")

        with pytest.raises(BracketError, match="invalid bracket"):
            calibrate_null(build, bracket)


def _exact_theta_cases():
    """The pinned null targets, a point of each power family, and a bounded margin."""
    params = simulation.load_calibrated_params()
    cases = {key: target["builder"](params[key]["param"])
             for key, target in simulation.calibration_targets().items()}
    for family, value in ((1, 0.5), (2, 0.5), (3, 1.5)):
        cases[f"power{family}"] = power_scenario(family, "gumbel_hougaard", value, 50)
    # the second margin's support ends before tau, where both survivals are 0
    cases["bounded"] = Scenario("clayton", 2.0, Exponential(1.0), Uniform(0.5), Uniform(1.0),
                                1.0, 10)
    return cases


EXACT_THETA_CASES = _exact_theta_cases()


class TestExactTheta:
    """``simulation._theta_of``: the effect of a scenario by quadrature."""

    def test_independent_exponentials_match_the_closed_form(self):
        l1, l2, tau = 2.0, 3.0, 1.0
        s = Scenario("gumbel_hougaard", 1.0, Exponential(l1), Exponential(l2), Uniform(1.0),
                     tau, 10)
        tail = math.exp(-(l1 + l2) * tau)
        assert abs(simulation._theta_of(s) - (l2 / (l1 + l2) * (1.0 - tail) + 0.5 * tail)) <= 1e-9

    @pytest.mark.parametrize("copula, param", [("gumbel_hougaard", 1.0), ("gumbel_hougaard", 5.0),
                                               ("clayton", -0.6), ("clayton", 2.0)])
    def test_identical_margins_are_null(self, simple_scenario, copula, param):
        s = replace(simple_scenario, copula=copula, copula_param=param)
        assert abs(simulation._theta_of(s) - 0.5) <= 1e-7

    @pytest.mark.parametrize("key", sorted(EXACT_THETA_CASES))
    def test_agrees_with_monte_carlo(self, key):
        scenario = EXACT_THETA_CASES[key]
        theta, se = monte_carlo_theta(scenario, 200_000, 23)
        assert abs(theta - simulation._theta_of(scenario)) <= 4 * se

    @pytest.mark.parametrize("key", sorted(EXACT_THETA_CASES))
    def test_doubling_the_nodes_moves_nothing(self, key, monkeypatch):
        scenario = EXACT_THETA_CASES[key]
        theta = simulation._theta_of(scenario)
        monkeypatch.setattr(simulation, "_NODES", 2 * simulation._NODES - 1)
        assert abs(simulation._theta_of(scenario) - theta) < 1e-7

    @pytest.mark.parametrize("family, value", [(1, 0.5), (2, 0.5), (3, 1.5)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_estimate_is_consistent_at_large_n(self, family, value, seed):
        scenario = power_scenario(family, "gumbel_hougaard", value, 20_000)
        est = estimate_rte(prepare_dataset(draw_paired_sample(scenario, seed), scenario.tau))
        se = math.sqrt(est.sigma2_hat / est.n)
        assert abs(est.theta_hat - simulation._theta_of(scenario)) <= 4 * se


class TestExperiments:
    def test_single_replication_smoke_and_determinism(self, simple_scenario):
        kwargs = dict(
            methods=["asymptotic", "randomization"],
            transforms=["linear"],
            r=1,
            b=60,
            alpha=0.05,
            seed=20,
        )
        a = run_size_experiment(simple_scenario, **kwargs)
        b = run_size_experiment(simple_scenario, **kwargs)
        assert a.rejections == b.rejections
        assert set(a.rejections) == {("asymptotic", "linear"), ("randomization", "linear")}
        rows = a.to_rows()
        assert len(rows) == 2
        assert {"rate", "mc_se", "censoring_rate_margins"} <= set(rows[0])

    def test_exchangeable_size_sanity(self, simple_scenario):
        res = run_size_experiment(
            simple_scenario,
            methods=["randomization"],
            transforms=["linear"],
            r=120,
            b=200,
            alpha=0.05,
            seed=21,
        )
        assert res.rate("randomization", "linear") <= 0.05 + 2 * max(res.mc_se("randomization", "linear"), 0.02)

    def test_power_grid_runs(self):
        grid = [
            ("k=1", power_scenario(3, "clayton", 1.0, 40)),
            ("k=2", power_scenario(3, "clayton", 2.0, 40)),
        ]
        results = run_power_experiment(grid, r=60, b=150, alpha=0.05, seed=22)
        assert [r.label for r in results] == ["k=1", "k=2"]
        # strong departure should reject much more often than the null point
        assert results[1].rate("randomization", "linear") >= results[0].rate(
            "randomization", "linear"
        )


# The scenario file's form of simple_scenario.
SIMPLE = {
    "copula": "gumbel_hougaard", "copula_param": 5.0,
    "marginal1": {"name": "exponential", "rate": 2.0},
    "marginal2": {"name": "exponential", "rate": 2.0},
    "censoring": {"name": "uniform", "upper": 2.7}, "tau": 1.0, "n": 60,
}


class TestScenarioSerialization:
    def test_roundtrip(self, simple_scenario):
        assert scenario_from_dict(SIMPLE) == simple_scenario

    def test_unknown_copula_names_field(self):
        d = {
            "copula": "frank",
            "copula_param": -0.6,
            "marginal1": {"name": "exponential", "rate": 1},
            "marginal2": {"name": "exponential", "rate": 1},
            "censoring": {"name": "uniform", "upper": 1},
            "tau": 1.0,
            "n": 5,
        }
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(d)
        assert exc.value.field == "copula"

    def test_unknown_marginal_names_path(self):
        with pytest.raises(ScenarioError) as exc:
            marginal_from_dict({"name": "weibull", "rate": 1.0}, "marginal2")
        assert exc.value.field == "marginal2.name"

    def test_missing_field_path(self):
        with pytest.raises(ScenarioError) as exc:
            marginal_from_dict({"name": "gompertz", "shape": 1.0}, "marginal1")
        assert exc.value.field == "marginal1.rate"

    def test_marginal_without_a_name(self):
        for d in ({"rate": 1.0}, ["exponential"]):
            with pytest.raises(ScenarioError, match="expected an object with a 'name' key") as exc:
                marginal_from_dict(d, "marginal1")
            assert exc.value.field == "marginal1"

    @pytest.mark.parametrize("key", ["copula", "copula_param", "marginal1", "marginal2",
                                     "censoring", "tau", "n"])
    def test_scenario_missing_field_names_it(self, key):
        d = dict(SIMPLE)
        del d[key]
        with pytest.raises(ScenarioError, match="missing field") as exc:
            scenario_from_dict(d)
        assert exc.value.field == key

    def test_mixture_nested_path(self):
        with pytest.raises(ScenarioError) as exc:
            marginal_from_dict(
                {
                    "name": "mixture",
                    "weight": 0.5,
                    "first": {"name": "exponential", "rate": 1.0},
                    "second": {"name": "nope"},
                },
                "marginal1",
            )
        assert exc.value.field == "marginal1.second.name"


class TestExperimentFiles:
    def test_settings_are_cast_and_the_argument_is_kept(self):
        d = dict(SIMPLE, r="20", b=3.0, alpha="0.1", seed=4, sided="two", label="cell",
                 methods=["asymptotic"], transforms=["linear", "loglog"])
        before = json.dumps(d)
        settings, rest = settings_from_dict(d)
        assert settings == {"r": 20, "b": 3, "alpha": 0.1, "seed": 4, "sided": "two",
                            "label": "cell", "methods": ["asymptotic"],
                            "transforms": ["linear", "loglog"]}
        assert type(settings["r"]) is type(settings["b"]) is int
        assert rest == SIMPLE
        assert json.dumps(d) == before

    @pytest.mark.parametrize("d, field", [
        ([1, 2], "scenario"),
        ({"r": True}, "r"),
        ({"seed": 1.5}, "seed"),
        ({"alpha": "x"}, "alpha"),
        ({"methods": "asymptotic"}, "methods"),
        ({"transforms": ["linear", 2]}, "transforms"),
    ])
    def test_setting_errors_name_the_field(self, d, field):
        with pytest.raises(ScenarioError) as exc:
            settings_from_dict(d)
        assert exc.value.field == field

    def test_grid_entries_default_to_their_index(self, simple_scenario):
        grid = grid_from_dict({"grid": [SIMPLE, dict(SIMPLE, label=7), dict(SIMPLE, n=30)]})
        assert [label for label, _ in grid] == ["point0", "7", "point2"]
        assert [s for _, s in grid] == [simple_scenario] * 2 + [replace(simple_scenario, n=30)]

    def test_power_family_defaults(self):
        grid = grid_from_dict({"power_family": 3, "values": [1, 2.5]})
        assert grid == [("value=1", power_scenario(3, "gumbel_hougaard", 1.0, 50)),
                        ("value=2.5", power_scenario(3, "gumbel_hougaard", 2.5, 50))]
        grid = grid_from_dict({"power_family": "1", "copula": "clayton", "values": [0.5], "n": 20})
        assert grid == [("value=0.5", power_scenario(1, "clayton", 0.5, 20))]

    @pytest.mark.parametrize("d, field", [
        ({}, "grid"),
        ({"grid": []}, "grid"),
        ({"grid": [SIMPLE, 1]}, "grid"),
        ({"grid": [SIMPLE, dict(SIMPLE, n="x")]}, "grid[1].n"),
        ({"grid": [dict(SIMPLE, tau=True)]}, "grid[0].tau"),
        ({"grid": [dict(SIMPLE, marginal1={"name": "exponential", "rate": True})]},
         "grid[0].marginal1"),
        ({"grid": [dict(SIMPLE, censoring={"name": "normal"})]}, "grid[0].censoring.name"),
        ({"power_family": "x", "values": [1]}, "power_family"),
        ({"power_family": 4, "values": [1]}, "family"),
        ({"power_family": 3, "values": [1], "n": 2.5}, "n"),
        ({"power_family": 3, "values": [1], "copula": "frank"}, "copula"),
        ({"power_family": 3}, "values"),
        ({"power_family": 3, "values": []}, "values"),
        ({"power_family": 3, "values": [1, True]}, "values[1]"),
        ({"power_family": 1, "values": [1.5]}, "value"),
    ])
    def test_grid_errors_name_the_field(self, d, field):
        with pytest.raises(ScenarioError) as exc:
            grid_from_dict(d)
        assert exc.value.field == field


class TestFailureLedger:
    def test_refused_replicate_is_counted(self):
        # Replicate 44 of this run has 15 type-1 events and no others, so its
        # variance is degenerate: the test is refused, and the replicate has
        # not failed.
        scenario = table1_scenario("clayton", "gompertz_exp", "strong", 25)
        res = run_size_experiment(
            scenario, methods=["asymptotic"], transforms=["linear"], r=45, seed=330807576
        )
        assert res.refused == {("asymptotic", "linear"): 1}
        assert res.failures == ()
        assert res.errors == 0
        row = res.to_rows()[0]
        assert (row["refused"], row["errors"]) == (1, 0)
        assert list(row)[list(row).index("rejections") + 1] == "refused"

    def test_harness_builds_no_rows(self, simple_scenario, monkeypatch):
        built = []
        monkeypatch.setattr(PairedObservation, "__post_init__", built.append)
        run_size_experiment(simple_scenario, methods=["asymptotic"], transforms=["linear"], r=3)
        assert built == []


class TestScenarioBuilders:
    @pytest.mark.parametrize("tau", [float("inf"), float("nan"), 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, tau):
        # an infinite horizon would surface only as NonPositiveTau from the
        # harness's samples, after the failure cap
        with pytest.raises(ScenarioError, match="tau must be a positive finite number") as exc:
            Scenario("clayton", 2.0, Exponential(1), Exponential(1), Uniform(2), tau, 20)
        assert exc.value.field == "tau"

    @pytest.mark.parametrize("copula", ["gumbel_hougaard", "clayton"])
    @pytest.mark.parametrize("param", [math.inf, math.nan])
    def test_copula_parameter_must_be_finite(self, copula, param):
        with pytest.raises(ScenarioError, match="must be finite") as exc:
            Scenario(copula, param, Exponential(1), Exponential(1), Uniform(2), 1.0, 20)
        assert exc.value.field == "copula_param"

    def test_table1_scenarios_build_with_pinned_params(self):
        for copula in ("gumbel_hougaard", "clayton"):
            for family, tau in (("exp_mix", 1.0), ("gompertz_exp", 0.6)):
                s = table1_scenario(copula, family, "medium", n=50)
                assert s.tau == tau
                assert s.n == 50

    def test_unknown_level_rejected(self):
        with pytest.raises(ScenarioError):
            table1_scenario("clayton", "exp_mix", "extreme", n=50)

    @pytest.mark.parametrize("copula, family", [("clayton", "weibull"), ("frank", "exp_mix")])
    def test_unknown_family_or_copula_has_no_calibrated_parameter(self, copula, family):
        with pytest.raises(ScenarioError, match="no calibrated parameter for") as exc:
            table1_scenario(copula, family, "medium", n=50)
        assert exc.value.field == "scenario"

    def test_power_families(self):
        s1 = power_scenario(1, "gumbel_hougaard", 0.5, 25)
        assert isinstance(s1.marginal1, Mixture) and s1.tau == 1.9
        s2 = power_scenario(2, "clayton", 0.25, 25)
        assert isinstance(s2.marginal1.first, Gompertz) and s2.tau == 1.8
        s3 = power_scenario(3, "clayton", 1.5, 25)
        assert s3.marginal1 == Exponential(2.0 / 1.5) and s3.tau == 1.3
        null1 = power_scenario(1, "clayton", 0.0, 25)
        assert null1.marginal1 == null1.marginal2
        with pytest.raises(ScenarioError):
            power_scenario(3, "clayton", 0.5, 25)
        with pytest.raises(ScenarioError):
            power_scenario(9, "clayton", 0.5, 25)

    @pytest.mark.parametrize("scenario", [
        table1_scenario("clayton", "gompertz_exp", "strong", 25),
        table1_scenario("gumbel_hougaard", "exp_mix", "medium", 40),
        power_scenario(1, "clayton", 0.5, 30),
        power_scenario(3, "gumbel_hougaard", 1.5, 20),
    ])
    def test_draw_is_copula_then_marginals_and_censoring(self, scenario):
        # the stream every harness replicate and its reference loop draw, one
        # call per variable: Clayton's u and w, or Gumbel-Hougaard's angles,
        # frailty exponentials and pair exponentials, then the censoring
        # times; a sample that touched 0 or 1 is drawn again whole
        n, param = scenario.n, scenario.copula_param
        for seed in range(10):
            rng = np.random.default_rng(seed)
            inside = False
            while not inside:
                with np.errstate(all="ignore"):
                    if scenario.copula == "clayton":
                        u, w = rng.random(n), rng.random(n)
                        v = ((w ** (-param / (1.0 + param)) - 1.0) * u ** (-param)
                             + 1.0) ** (-1.0 / param)
                        drawn, u = np.column_stack([u, w, v]), np.column_stack([u, v])
                    else:
                        alpha = 1.0 / param
                        theta, w = rng.uniform(0.0, np.pi, n), rng.exponential(1.0, n)
                        frailty = (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
                                   * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
                        drawn = u = np.exp(-((rng.exponential(1.0, (n, 2)) / frailty[:, None])
                                             ** alpha))
                c = rng.uniform(0.0, scenario.censoring.upper, (2, n)).T
                inside = np.all((drawn > 0) & (drawn < 1))
            t = np.column_stack([scenario.marginal1.quantile(1.0 - u[:, 0]),
                                 scenario.marginal2.quantile(1.0 - u[:, 1])])
            got = draw_paired_sample(scenario, seed)
            np.testing.assert_array_equal(got.x, np.minimum(t, c))
            np.testing.assert_array_equal(got.delta, (t <= c).astype(int))

    def test_draw_paired_sample_shapes(self, simple_scenario):
        obs = draw_paired_sample(simple_scenario, seed=23)
        assert len(obs) == simple_scenario.n


CELL_06B = table1_scenario("clayton", "gompertz_exp", "strong", 25)
# the four size cells of the acceptance tests, the three power families on
# both copulas, and copula parameters at and near their boundaries
BLOCK_SCENARIOS = {
    "06a": table1_scenario("gumbel_hougaard", "exp_mix", "medium", 100),
    "06b": CELL_06B,
    "05": table1_scenario("gumbel_hougaard", "exp_mix", "light", 200),
    "07": Scenario("gumbel_hougaard", 5.0, Exponential(2.0), Exponential(2.0), Uniform(2.7),
                   1.0, 50),
    **{f"power{family}-{copula}": power_scenario(family, copula, value, 30)
       for family, value in ((1, 0.5), (2, 0.5), (3, 1.5))
       for copula in ("clayton", "gumbel_hougaard")},
    **{f"clayton{p}": replace(CELL_06B, copula_param=p) for p in (-1.0, -0.99, 0.5, 8.0)},
    **{f"gh{p}": replace(CELL_06B, copula="gumbel_hougaard", copula_param=p)
       for p in (1.0, 1.01, 20.0)},
}


def assert_draws_equal(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


class TestBlockDraws:
    """``_draw_block`` against ``reference_draw_block``, one sample at a time."""

    @pytest.mark.parametrize("scenario", BLOCK_SCENARIOS.values(), ids=BLOCK_SCENARIOS.keys())
    def test_block_equals_one_sample_at_a_time(self, scenario):
        assert_draws_equal(simulation._draw_block(scenario, 41, range(500)),
                           reference_draw_block(scenario, [(41, rep) for rep in range(500)]))

    @staticmethod
    def substitute(monkeypatch, swap):
        """Give replicate ``(seed, rep)`` the generator ``swap((seed, rep))`` unless that is None.

        The block draws take it from ``simulation.rngs_of``, the one-row
        redraws of a row that touched 0 or 1 from ``simulation.rng_of``.
        """
        rng_of, rngs_of = simulation.rng_of, simulation.rngs_of

        def block(seed, reps):
            for rep, rng in zip(reps, rngs_of(seed, reps)):
                swapped = swap((seed, rep))
                yield rng if swapped is None else swapped

        def one(*words):
            swapped = swap(words[0]) if isinstance(words[0], tuple) else None
            return rng_of(*words) if swapped is None else swapped

        monkeypatch.setattr(simulation, "rngs_of", block)
        monkeypatch.setattr(simulation, "rng_of", one)

    @pytest.mark.parametrize("name", ["06b", "clayton-1.0", "gh1.0", "07"])
    def test_rows_that_touch_0_or_1_are_drawn_again(self, name, monkeypatch):
        # the first draw of rows 0, 12 and 24 holds a 0 or a 1 at its sixth
        # uniform; such a row must be its generator's next row, drawn whole,
        # and the other rows must keep their block draws
        scenario, forced = BLOCK_SCENARIOS[name], {0: 0.0, 12: 1.0, 24: 0.0}

        def rng(rep):
            return (ValueAt([41, rep], 5, forced[rep]) if rep in forced
                    else np.random.default_rng([41, rep]))

        # a uniform of 1 is a Gumbel-Hougaard angle of 1, inside its range
        touched = [rep for rep in forced if not reference_draw(scenario, rng(rep))[2]]
        assert touched == ([0, 24] if name == "07" else [0, 12, 24])
        seeds = [(41, rep) for rep in forced]
        self.substitute(monkeypatch, lambda seed: rng(seed[1]) if seed in seeds else None)
        assert_draws_equal(simulation._draw_block(scenario, 41, range(25)),
                           reference_draw_block(scenario, map(rng, range(25))))

    def test_a_boundary_w_alone_is_drawn_again(self, monkeypatch):
        # at a negative Clayton parameter, w = 0 still gives a partner inside
        # (0, 1), so only the check of the raw uniforms sends the row back
        scenario = CELL_06B
        assert scenario.copula == "clayton" and scenario.copula_param < 0

        def rng(rep):
            return (ValueAt([41, rep], scenario.n + 3) if rep == 7
                    else np.random.default_rng([41, rep]))

        u, _, inside = reference_draw(scenario, rng(7))
        assert not inside and np.all((u > 0) & (u < 1))
        self.substitute(monkeypatch, lambda seed: rng(7) if seed == (41, 7) else None)
        assert_draws_equal(simulation._draw_block(scenario, 41, range(10)),
                           reference_draw_block(scenario, map(rng, range(10))))

    def test_block_size_changes_no_draw(self, monkeypatch):
        blocks, draw_block = [], simulation._draw_block

        def spy(*args):
            blocks.append(draw_block(*args))
            return blocks[-1]

        monkeypatch.setattr(simulation, "_draw_block", spy)
        monkeypatch.setattr(_engine, "BLOCK_CELLS", 3 * CELL_06B.n)
        run_size_experiment(CELL_06B, methods=["asymptotic"], transforms=["linear"], r=50,
                            seed=41)
        assert len(blocks) == 17
        assert_draws_equal([np.concatenate(arrays) for arrays in zip(*blocks)],
                           reference_draw_block(CELL_06B, [(41, rep) for rep in range(50)]))

    def test_block_draws_take_at_most_six_tenths_of_the_reference(self):
        # the two alternate, so a slow spell of the machine reaches both
        seeds = [(43, rep) for rep in range(2000)]
        draws = {"block": lambda: simulation._draw_block(CELL_06B, 43, range(2000)),
                 "reference": lambda: reference_draw_block(CELL_06B, seeds)}
        best = dict.fromkeys(draws, math.inf)
        for _ in range(3):
            for name, draw in draws.items():
                start = time.perf_counter()
                draw()
                best[name] = min(best[name], time.perf_counter() - start)
        assert best["block"] <= 0.6 * best["reference"]
