"""The batched Monte Carlo harness against the replicate-at-a-time reference."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_size_experiment

import pairedrte as prt
from pairedrte import _engine
from pairedrte.paired_data import _prepare_rows

sim = prt.simulation


class NanLifetime:
    """A marginal lifetime whose quantile transform gives NaN."""

    def quantile(self, p):
        return np.full(np.shape(p), np.nan)


CELL_06B = sim.table1_scenario("clayton", "gompertz_exp", "strong", 25)
# At n = 12 some replicates refuse one test and not another.
SMALL = replace(CELL_06B, n=12)
PARTIAL = dict(methods=["asymptotic", "randomization"], transforms=["linear", "loglog"],
               b=20, sided="two")


def batched(scenario, **kwargs):
    res = sim.run_size_experiment(scenario, **kwargs)
    return {
        "rejections": res.rejections,
        "refused": res.refused,
        "failures": res.failures,
        "censoring_rate_margins": res.censoring_rate_margins,
        "censoring_rate_pairs": res.censoring_rate_pairs,
        "risk_exhausted": res.risk_exhausted,
    }


CASES = {
    "06b-asymptotic": (CELL_06B, dict(methods=["asymptotic"], transforms=["linear", "loglog"],
                                      r=300, seed=107)),
    "ledger": (CELL_06B, dict(methods=["asymptotic"], transforms=["linear"], r=45,
                              seed=330807576)),
    "all-two-sided": (CELL_06B, dict(methods=["asymptotic", "bootstrap", "randomization"],
                                     transforms=["linear", "loglog"], r=20, b=40, seed=5,
                                     sided="two")),
    "reordered-left": (CELL_06B, dict(methods=["randomization", "asymptotic"],
                                      transforms=["loglog", "linear"], r=20, b=40, seed=6,
                                      sided="left")),
    "bootstrap-first-mixture": (
        sim.table1_scenario("gumbel_hougaard", "exp_mix", "medium", 40),
        dict(methods=["bootstrap", "asymptotic"], transforms=["loglog", "linear"], r=15, b=40,
             seed=8, sided="right")),
    "power-family-2": (sim.power_scenario(2, "clayton", 0.5, 30),
                       dict(methods=["asymptotic", "randomization"], transforms=["linear"],
                            r=15, b=40, seed=9, sided="two")),
    "partial-randomization": (SMALL, dict(PARTIAL, r=2, seed=3)),
    "partial-randomization-loglog": (SMALL, dict(PARTIAL, r=2, seed=7)),
    "partial-asymptotic-loglog": (SMALL, dict(PARTIAL, r=5, seed=10)),
    "partial-randomization-only-loglog": (SMALL, dict(PARTIAL, methods=["randomization"], r=5,
                                                      seed=10)),
    # two refused randomization replicates: past the 1 % cap, which counts
    # only replicates that could not be prepared
    "refusals-past-the-failure-cap": (SMALL, dict(PARTIAL, r=10, seed=1)),
    # fewer than 20 replicates: every resampled test is refused
    "b-19": (CELL_06B, dict(methods=["asymptotic", "bootstrap", "randomization"],
                            transforms=["linear", "loglog"], r=10, b=19, seed=12)),
    # replicates 0, 3, 5 and 6 skip 1 to 4 resamples and 1, 4 and 7 are
    # refused: the decided rows are padded to unequal lengths
    "bootstrap-skipped-rows": (SMALL, dict(PARTIAL, methods=["bootstrap"], r=10, b=40, seed=7)),
}


class TestEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_reference_loop(self, case):
        scenario, kwargs = CASES[case]
        try:
            expected = reference_size_experiment(scenario, **kwargs)
        except prt.PairedRteError as exc:
            with pytest.raises(type(exc)):
                sim.run_size_experiment(scenario, **kwargs)
        else:
            assert batched(scenario, **kwargs) == expected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_test_counts_as_if_run_alone(self, case):
        scenario, kwargs = CASES[case]
        whole = batched(scenario, **kwargs)
        for method in kwargs["methods"]:
            for transform in kwargs["transforms"]:
                alone = batched(scenario, **dict(kwargs, methods=[method], transforms=[transform]))
                for field in ("rejections", "refused"):
                    assert alone[field] == {(method, transform): whole[field][(method, transform)]}
                assert alone["failures"] == whole["failures"]

    @pytest.mark.parametrize("case", ["all-two-sided", "reordered-left",
                                      "bootstrap-first-mixture"])
    def test_decides_without_p_values(self, case, monkeypatch):
        # the harness counts rejections and refusals; only a report has a p-value
        def computed(*args):
            raise AssertionError("the harness computed a p-value")

        monkeypatch.setattr(prt.inference, "_normal_pvalue", computed)
        monkeypatch.setattr(prt.inference, "_resample_pvalue", computed)
        scenario, kwargs = CASES[case]
        assert batched(scenario, **kwargs) == reference_size_experiment(scenario, **kwargs)

    def test_ledger_case_refuses_rep_44(self):
        # replicate 44 has 15 type-1 events and no others: no variance
        scenario, kwargs = CASES["ledger"]
        before = batched(scenario, **dict(kwargs, r=44))
        after = batched(scenario, **kwargs)
        assert before["refused"] == {("asymptotic", "linear"): 0}
        assert after["refused"] == {("asymptotic", "linear"): 1}
        assert after["failures"] == ()
        row = sim.run_size_experiment(scenario, **kwargs).to_rows()[0]
        assert row["refused"] == 1
        assert list(row)[list(row).index("rejections") + 1] == "refused"

    def test_call_with_two_all_type_1_replicates_completes(self):
        # replicates 61 and 81 of this size_asymptotic bench call are all
        # type 1; the run used to stop past the failure cap
        res = sim.run_size_experiment(CELL_06B, methods=["asymptotic"], transforms=["linear"],
                                      r=100, b=1, seed=1548220732)
        assert res.rejections == {("asymptotic", "linear"): 7}
        assert res.refused == {("asymptotic", "linear"): 2}
        assert res.failures == ()

    @pytest.mark.parametrize(
        "seed, rep, error, gained, refused",
        # ``gained`` and ``refused`` map each method run to what replicate
        # ``rep`` adds per transform. At seed 3, 3 of replicate 1's 20
        # relabelings put every type-1/2 event on type 2, whose variance is
        # zero: over the 10 % cap. At seeds 10 and 29 the log-log tests refuse
        # a theta_hat of 0 or 1 while the linear tests reject
        [(3, 1, "DegenerateVariance", {"asymptotic": (1, 1), "randomization": (0, 0)},
          {"asymptotic": (0, 0), "randomization": (1, 1)}),
         (7, 1, "InsufficientReplicates", {"asymptotic": (1, 1), "randomization": (0, 0)},
          {"asymptotic": (0, 0), "randomization": (1, 1)}),
         (10, 4, "ThetaOutOfDomain", {"asymptotic": (1, 0), "randomization": (1, 0)},
          {"asymptotic": (0, 1), "randomization": (0, 1)}),
         (29, 4, "ThetaOutOfDomain", {"randomization": (1, 0)}, {"randomization": (0, 1)})],
    )
    def test_refused_test_leaves_other_tests_counted(self, seed, rep, error, gained, refused):
        # what replicate ``rep`` adds to the counts is the difference between
        # the runs that stop just after and before it
        settings = dict(PARTIAL, methods=list(gained))
        after = batched(SMALL, **settings, r=rep + 1, seed=seed)
        before = batched(SMALL, **settings, r=rep, seed=seed)
        assert after["failures"] == ()
        for field, want in (("rejections", gained), ("refused", refused)):
            assert {m: tuple(after[field][(m, t)] - before[field][(m, t)]
                             for t in PARTIAL["transforms"]) for m in gained} == want
        obs = sim.draw_paired_sample(SMALL, np.random.default_rng([seed, rep]))
        data = prt.prepare_dataset(obs, SMALL.tau)
        for method, counts in refused.items():
            for transform, count in zip(PARTIAL["transforms"], counts):
                if count:
                    with pytest.raises(getattr(prt, error)):
                        prt.run_inference(data, [method], [transform], sided="two", b=20,
                                          seed=(seed, rep))

    def test_block_that_fails_validation(self):
        # a scenario refuses an infinite horizon, but a marginal whose
        # quantile transform is not finite still fails every sample's checks
        scenario = replace(CELL_06B, marginal1=NanLifetime())
        kwargs = dict(methods=["asymptotic"], transforms=["linear"], seed=2)
        res = batched(scenario, r=1, **kwargs)
        assert res == reference_size_experiment(scenario, r=1, **kwargs)
        assert res["failures"] == ((0, "NonFiniteTime"),)
        with pytest.raises(prt.NonFiniteTime):
            sim.run_size_experiment(scenario, r=3, **kwargs)

    def test_block_size_changes_nothing(self, monkeypatch):
        scenario, kwargs = CASES["all-two-sided"]
        whole = batched(scenario, **kwargs)
        monkeypatch.setattr(_engine, "BLOCK_CELLS", 3 * scenario.n)
        assert batched(scenario, **kwargs) == whole

    def test_fewer_than_20_replicates_refuse_every_resampled_test(self):
        scenario, kwargs = CASES["b-19"]
        res = batched(scenario, **kwargs)
        for method in ("bootstrap", "randomization"):
            for transform in kwargs["transforms"]:
                assert res["refused"][(method, transform)] == kwargs["r"]

    @pytest.mark.parametrize("rows", [1, 3])
    def test_decision_sub_blocks_change_nothing(self, rows, monkeypatch):
        # BLOCK_CELLS = rows * b decides the resampled tests of ``rows``
        # replicates at a time; at 3 * b a harness block holds 4 replicates
        scenario, kwargs = CASES["all-two-sided"]
        monkeypatch.setattr(_engine, "BLOCK_CELLS", rows * kwargs["b"])
        assert batched(scenario, **kwargs) == reference_size_experiment(scenario, **kwargs)

    def test_resampled_statistics_stay_within_block_cells(self, monkeypatch):
        # a harness block at n = 25 holds 2,621 replicates: at b = 2,000 their
        # statistics alone would take 84 MB, where sub-blocks of BLOCK_CELLS // b
        # replicates take 1 MB. Every replicate gets one stored relabeling
        # distribution, so only the harness's own arrays count
        r = _engine.BLOCK_CELLS // CELL_06B.n
        obs = sim.draw_paired_sample(CELL_06B, np.random.default_rng([3, 0]))
        data = prt.prepare_dataset(obs, CELL_06B.tau)
        dist = prt.randomization_distribution(
            data, prt.InferenceConfig(method="randomization", b=2000, seed=1))
        monkeypatch.setattr(sim, "resample_distribution", lambda data, cfg: dist)
        tracemalloc.start()
        try:
            res = sim.run_size_experiment(CELL_06B, methods=["randomization"],
                                          transforms=["linear"], r=r, b=2000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.refused == {("randomization", "linear"): 0}
        assert peak < 20e6

    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_peak_memory_is_bounded_by_the_block_size(self, n):
        # one full block of BLOCK_CELLS // n replicates and one more; measured
        # 9.6 MB, about 18.4 arrays of BLOCK_CELLS doubles, at each n
        scenario = sim.table1_scenario("gumbel_hougaard", "exp_mix", "medium", n)
        tracemalloc.start()
        try:
            sim.run_size_experiment(scenario, methods=["asymptotic"], transforms=["linear", "loglog"],
                                    r=_engine.BLOCK_CELLS // n + 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 8 * _engine.BLOCK_CELLS

    def test_invalid_settings_raise_before_any_replicate(self, monkeypatch):
        monkeypatch.setattr(sim, "_draw_block", None)
        with pytest.raises(prt.ValidationError):
            sim.run_size_experiment(CELL_06B, methods=["asymptotic"], sided="up", r=5)
        with pytest.raises(prt.ValidationError):
            sim.run_size_experiment(CELL_06B, methods=["bootstrap"], b=0, r=5)
        for r in (0, -5):
            with pytest.raises(prt.ValidationError, match="r must be at least 1"):
                sim.run_size_experiment(CELL_06B, methods=["asymptotic"], r=r)
        # an empty list would report nothing; a repeated name counts each rejection again
        for field, names in [("methods", []), ("transforms", []),
                             ("methods", ["asymptotic", "asymptotic"]),
                             ("transforms", ("linear", "loglog", "linear"))]:
            settings = {"methods": ["asymptotic"], field: names}
            with pytest.raises(prt.ValidationError, match=f"{field} must be nonempty and distinct"):
                sim.run_size_experiment(CELL_06B, r=5, **settings)

    def test_bootstrap_of_one_pair_raises_before_any_block(self, monkeypatch):
        monkeypatch.setattr(sim, "_estimate_block", None)
        with pytest.raises(prt.ValidationError, match="bootstrap needs at least two records"):
            sim.run_size_experiment(replace(CELL_06B, n=1), methods=["asymptotic", "bootstrap"],
                                    r=5000)


class TestBlockEstimates:
    @pytest.mark.parametrize(
        "scenario",
        [CELL_06B, sim.table1_scenario("gumbel_hougaard", "exp_mix", "light", 60)],
    )
    def test_estimates_match_estimate_rte(self, scenario):
        reps = range(200)
        _, z, eps, errors, theta, sigma2, exhausted = sim._estimate_block(scenario, 11, reps)
        assert errors == {}
        for i in reps:
            obs = sim.draw_paired_sample(scenario, np.random.default_rng([11, i]))
            data = prt.prepare_dataset(obs, scenario.tau)
            np.testing.assert_array_equal(z[i], data.z)
            np.testing.assert_array_equal(eps[i], data.epsilon)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", prt.DegenerateRiskWarning)
                est = prt.estimate_rte(data)
            assert abs(theta[i] - est.theta_hat) <= 1e-12
            assert abs(sigma2[i] - est.sigma2_hat) <= 1e-12
            assert exhausted[i] == any(w.category is prt.DegenerateRiskWarning for w in caught)

    def test_randomization_tests_do_not_depend_on_the_grid(self):
        # the harness estimates on each row's sorted times, estimate_rte on the
        # unique event times; the two differ in the last bits of sigma2
        scenario = sim.Scenario(
            copula="gumbel_hougaard", copula_param=5.0, marginal1=sim.Exponential(2.0),
            marginal2=sim.Exponential(2.0), censoring=sim.Uniform(2.7), tau=1.0, n=50,
        )
        reps = range(300)
        _, z, eps, errors, theta, sigma2, _ = sim._estimate_block(scenario, 107, reps)
        assert errors == {}
        for i in reps:
            data = prt.Dataset(z=z[i], epsilon=eps[i], tau=scenario.tau)
            block = prt.RteEstimate(theta_hat=float(theta[i]), sigma2_hat=float(sigma2[i]),
                                    n=scenario.n, tau=scenario.tau)
            cfg = prt.InferenceConfig(method="randomization", sided="right", b=500,
                                      seed=(107, i))
            dist = prt.randomization_distribution(data, cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", prt.DegenerateRiskWarning)
                single = prt.estimate_rte(data)
            reports = [prt.test_and_ci(est, dist, cfg) for est in (block, single)]
            assert reports[0].p_value == reports[1].p_value
            assert reports[0].reject == reports[1].reject

    @pytest.mark.parametrize(
        "marginal",
        [
            sim.table1_scenario("gumbel_hougaard", "exp_mix", "medium", n=100).marginal2,
            sim.power_scenario(1, "gumbel_hougaard", 0.5, 25).marginal1,
            sim.power_scenario(2, "clayton", 0.25, 25).marginal1,
        ],
    )
    def test_block_mixture_quantile_equals_per_replicate(self, marginal):
        p = 1.0 - np.random.default_rng(12).random((40, 25))
        rows = np.stack([marginal.quantile(row) for row in p])
        np.testing.assert_array_equal(marginal.quantile(p), rows)

    def test_risk_exhausted_column(self):
        scenario, kwargs = CASES["06b-asymptotic"]
        res = sim.run_size_experiment(scenario, **kwargs)
        assert res.risk_exhausted == reference_size_experiment(scenario, **kwargs)["risk_exhausted"]
        assert res.risk_exhausted > 0
        for row in res.to_rows():
            assert list(row)[-1] == "risk_exhausted"
            assert row["risk_exhausted"] == res.risk_exhausted


class TestPrepareRows:
    @staticmethod
    def block(seed, r=30, n=15):
        rng = np.random.default_rng(seed)
        # integer times: event/censoring ties are common, within pairs too
        x = rng.integers(1, 8, (r, n, 2)).astype(float)
        delta = rng.integers(0, 2, (r, n, 2))
        return x, delta

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_prepare_dataset(self, seed):
        x, delta = self.block(seed)
        rows = [prt.prepare_dataset(prt.PairedSample(x[i], delta[i]), 5.0)
                for i in range(len(x))]
        z, eps, errors = _prepare_rows(x.copy(), delta, 5.0)
        assert errors == {}
        for i, data in enumerate(rows):
            np.testing.assert_array_equal(z[i], data.z)
            np.testing.assert_array_equal(eps[i], data.epsilon)

    def test_invalid_row_raises_its_own_error(self):
        x, delta = self.block(3, r=4)
        x[2, 5, 1] = np.inf
        z, eps, errors = _prepare_rows(x.copy(), delta, 5.0)
        assert list(errors) == [2]
        with pytest.raises(prt.NonFiniteTime) as expected:
            prt.prepare_dataset(prt.PairedSample(x[2], delta[2]), 5.0)
        assert str(errors[2]) == str(expected.value)
        for i in (0, 1, 3):
            data = prt.prepare_dataset(prt.PairedSample(x[i], delta[i]), 5.0)
            np.testing.assert_array_equal(z[i], data.z)
