import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from pairedrte import (
    BracketError,
    CompetingRisksRecord,
    Exponential,
    Gompertz,
    InvalidParameter,
    Mixture,
    PairedObservation,
    Scenario,
    ScenarioError,
    Uniform,
    apply_marginals_and_censoring,
    calibrate_null,
    draw_paired_sample,
    empirical_censoring_rates,
    power_scenario,
    run_power_experiment,
    run_size_experiment,
    sample_clayton,
    sample_gumbel_hougaard,
    table1_scenario,
)
from pairedrte.simulation import marginal_from_dict, scenario_from_dict, scenario_to_dict

N_BIG = 100_000


def kendall(u):
    return kendalltau(u[:, 0], u[:, 1]).statistic


class TestGumbelHougaard:
    def test_independence_at_parameter_one(self):
        u = sample_gumbel_hougaard(1.0, N_BIG, seed=1)
        assert abs(kendall(u)) <= 0.01

    def test_kendall_tau_matches_closed_form(self):
        # tau = 1 - 1/param
        u = sample_gumbel_hougaard(5.0, N_BIG, seed=2)
        assert kendall(u) == pytest.approx(0.8, abs=0.01)

    def test_marginal_uniformity(self):
        u = sample_gumbel_hougaard(5.0, N_BIG, seed=3)
        assert np.mean(u[:, 0] <= 0.5) == pytest.approx(0.5, abs=0.01)
        assert kstest(u[:, 1], "uniform").statistic <= 0.01
        assert np.all((u > 0) & (u < 1))

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            sample_gumbel_hougaard(0.8, 10, seed=0)


class TestClayton:
    def test_near_independence_limit(self):
        u = sample_clayton(1e-6, N_BIG, seed=4)
        assert abs(kendall(u)) <= 0.01

    def test_negative_dependence_closed_form(self):
        # tau = param / (param + 2)
        u = sample_clayton(-0.6, N_BIG, seed=5)
        assert kendall(u) == pytest.approx(-0.6 / 1.4, abs=0.01)

    def test_positive_dependence_closed_form(self):
        u = sample_clayton(2.0, N_BIG, seed=6)
        assert kendall(u) == pytest.approx(0.5, abs=0.01)

    def test_marginals_uniform(self):
        u = sample_clayton(-0.6, N_BIG, seed=7)
        assert kstest(u[:, 0], "uniform").statistic <= 0.01
        assert kstest(u[:, 1], "uniform").statistic <= 0.01

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            sample_clayton(0.0, 10, seed=0)
        with pytest.raises(InvalidParameter):
            sample_clayton(-1.5, 10, seed=0)

    def test_countermonotone_boundary(self):
        u = sample_clayton(-1.0, 1000, seed=8)
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


class TestApplyMarginalsAndCensoring:
    def test_no_censoring_when_support_is_huge(self, simple_scenario):
        from dataclasses import replace

        scenario = replace(simple_scenario, censoring=Uniform(1e9))
        u = sample_gumbel_hougaard(5.0, 500, seed=10)
        obs = apply_marginals_and_censoring(u, scenario, seed=11)
        assert all(o.delta1 == 1 and o.delta2 == 1 for o in obs)

    def test_boundary_uniforms_are_redrawn(self, simple_scenario):
        u = np.array([[0.0, 0.5], [0.5, 1.0], [0.25, 0.75]])
        obs = apply_marginals_and_censoring(u, simple_scenario, seed=12)
        assert len(obs) == 3
        assert all(np.isfinite([o.x1, o.x2]).all() for o in obs)

    def test_deterministic(self, simple_scenario):
        u = sample_gumbel_hougaard(5.0, 50, seed=13)
        a = apply_marginals_and_censoring(u, simple_scenario, seed=14)
        b = apply_marginals_and_censoring(u, simple_scenario, seed=14)
        assert list(a) == list(b)


class TestCensoringRateBands:
    # The censoring parameter sets are mapped to light/medium/strong by
    # matching the reported margin-level rate bands (truncation counted as
    # censoring): light 17-27%, medium 27-34%, strong 38-42%.
    BANDS = {"light": (0.17, 0.27), "medium": (0.27, 0.34), "strong": (0.38, 0.42)}

    @pytest.mark.parametrize("family", ["exp_mix", "gompertz_exp"])
    @pytest.mark.parametrize("level", ["light", "medium", "strong"])
    def test_margin_rates_fall_in_reported_bands(self, family, level):
        scenario = table1_scenario("gumbel_hougaard", family, level, n=100)
        margin_rate, pair_rate = empirical_censoring_rates(scenario, N_BIG, seed=15)
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
            calibrate_null(build, (0.5, 2.0), n_draws=20_000, seed=16)
        u = sample_gumbel_hougaard(5.0, 50_000, seed=17)
        t1 = Exponential(2.0).quantile(1.0 - u[:, 0])
        t2 = Exponential(2.0).quantile(1.0 - u[:, 1])
        m1 = np.minimum(t1, 1.0)
        m2 = np.minimum(t2, 1.0)
        theta = np.mean((m1 > m2) + 0.5 * (m1 == m2))
        assert theta == pytest.approx(0.5, abs=0.01)

    def test_recovers_pinned_mixture_rate(self):
        from pairedrte.simulation import calibration_targets, load_calibrated_params

        pinned = load_calibrated_params()["gumbel_hougaard__exp_mix"]
        target = calibration_targets()["gumbel_hougaard__exp_mix"]
        res = calibrate_null(target["builder"], target["bracket"], n_draws=150_000, seed=18)
        assert res.param == pytest.approx(pinned["param"], abs=0.05)
        assert abs(res.theta - 0.5) <= 0.002

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
            calibrate_null(build, (5.0, 9.0), n_draws=5_000, seed=19)


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


class TestScenarioSerialization:
    def test_roundtrip(self, simple_scenario):
        d = scenario_to_dict(simple_scenario)
        again = scenario_from_dict(d)
        assert again == simple_scenario

    def test_unknown_copula_names_field(self):
        d = scenario_to_dict(
            Scenario("clayton", -0.6, Exponential(1), Exponential(1), Uniform(1), 1.0, 5)
        )
        d["copula"] = "frank"
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


class TestFailureLedger:
    def test_failed_replicate_is_recorded(self):
        # Replicate 44 of this run has 15 type-1 events and no others, so its
        # variance is degenerate.
        scenario = table1_scenario("clayton", "gompertz_exp", "strong", 25)
        res = run_size_experiment(
            scenario, methods=["asymptotic"], transforms=["linear"], r=45, seed=330807576
        )
        assert res.failures == ((44, "DegenerateVariance"),)
        assert res.errors == 1
        assert res.to_rows()[0]["errors"] == 1

    def test_harness_builds_no_rows(self, simple_scenario, monkeypatch):
        built = []
        for row_type in (PairedObservation, CompetingRisksRecord):
            monkeypatch.setattr(row_type, "__post_init__", built.append)
        run_size_experiment(simple_scenario, methods=["asymptotic"], transforms=["linear"], r=3)
        empirical_censoring_rates(simple_scenario, 500, seed=1)
        assert built == []


class TestScenarioBuilders:
    def test_table1_scenarios_build_with_pinned_params(self):
        for copula in ("gumbel_hougaard", "clayton"):
            for family, tau in (("exp_mix", 1.0), ("gompertz_exp", 0.6)):
                s = table1_scenario(copula, family, "medium", n=50)
                assert s.tau == tau
                assert s.n == 50

    def test_unknown_level_rejected(self):
        with pytest.raises(ScenarioError):
            table1_scenario("clayton", "exp_mix", "extreme", n=50)

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

    def test_draw_paired_sample_shapes(self, simple_scenario):
        obs = draw_paired_sample(simple_scenario, seed=23)
        assert len(obs) == simple_scenario.n
