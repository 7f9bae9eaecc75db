import json
from importlib import resources

import pytest
from click.testing import CliRunner

from pairedrte import estimate_rte, read_competing_csv, read_paired_csv, prepare_dataset
from pairedrte import cli
from pairedrte.cli import EXIT_DEGENERATE, EXIT_PARSE, EXIT_VALIDATION, main

DATA = resources.files("pairedrte").joinpath("datasets")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestAnalyze:
    def test_example1_fixtures(self, runner):
        for name, theta in (("example1_table1.csv", "1.0000"), ("example1_table2.csv", "0.7500")):
            res = invoke(
                runner, "analyze", "--input", str(DATA / name), "--tau", "100",
                "--method", "asy", "--transform", "lin",
            )
            assert res.exit_code == 0, res.output
            assert f"theta_hat={theta}" in res.output

    def test_diabetic_groups_json(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = invoke(
            runner, "analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60",
            "--group-by", "--method", "rand", "--transform", "lin", "--B", "200",
            "--seed", "1", "--format", "json", "--output", str(out),
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        groups = {g["group"]: g for g in doc["groups"]}
        assert groups["juvenile"]["theta_hat"] == pytest.approx(0.598, abs=0.002)
        assert groups["adult"]["theta_hat"] == pytest.approx(0.731, abs=0.002)
        assert groups["adult"]["theta_hat_unjittered"] == pytest.approx(0.697, abs=0.002)
        report = groups["juvenile"]["reports"][0]
        assert report["method"] == "randomization"
        assert 0.0 < report["p_value"] <= 1.0

    def test_single_pair_refuses_inference_but_emits_estimate(self, runner, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x1,delta1,x2,delta2\n2,1,1,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10",
                                   "--method", "asy", "--transform", "lin"])
        assert res.exit_code == EXIT_DEGENERATE
        assert "theta_hat=" in res.output
        assert "refused" in res.output

    def test_parse_error_exit_code(self, runner, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,delta1,x2,delta2\nfoo,1,2,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_PARSE

    def test_validation_error_exit_code(self, runner, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,delta1,x2,delta2\n2,7,2,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_VALIDATION

    def test_seed_reproducibility(self, runner):
        args = ["analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60",
                "--method", "boot", "--transform", "lin", "--B", "150", "--seed", "9",
                "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_jitter_free_copy_only_when_jitter_can_fire(self, runner, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("jitter"))
            return prepare_dataset(*args, **kwargs)

        monkeypatch.setattr(cli, "prepare_dataset", counted)
        base = ["analyze", "--method", "asy", "--format", "json"]
        tie_free = base + ["--input", str(DATA / "example1_table2.csv"), "--tau", "100"]
        outputs = {}
        for extra in ([], ["--no-jitter"]):
            calls.clear()
            res = invoke(runner, *tie_free, *extra)
            assert res.exit_code == 0, res.output
            assert len(calls) == 1
            outputs[bool(extra)] = res.output
        # jitter cannot fire on a tie-free input, so the flag changes nothing
        assert outputs[False] == outputs[True]
        doc = json.loads(outputs[False])
        assert "theta_hat_unjittered" not in doc["groups"][0]
        assert doc["groups"][0]["theta_hat"] == 0.75

        calls.clear()
        res = invoke(runner, *base, "--input", str(DATA / "diabetic.csv"), "--tau", "60",
                     "--group-by", "--no-jitter")
        assert res.exit_code == 0, res.output
        assert calls == [None, None]
        obs = read_paired_csv(str(DATA / "diabetic.csv"))
        for entry in json.loads(res.output)["groups"]:
            assert "theta_hat_unjittered" not in entry
            group = [o for o in obs if o.group == entry["group"]]
            plain = estimate_rte(prepare_dataset(group, 60.0, jitter=None))
            assert entry["theta_hat"] == plain.theta_hat


class TestTransform:
    def test_stdout_matches_written_file(self, runner, tmp_path):
        out = tmp_path / "cr.csv"
        args = ["transform", "--input", str(DATA / "diabetic.csv"), "--tau", "60"]
        to_file = invoke(runner, *args, "--output", str(out))
        to_stdout = invoke(runner, *args)
        assert to_file.exit_code == to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == out.read_bytes()
        assert to_stdout.stdout_bytes.startswith(b"z,epsilon\r\n")

    def test_roundtrip_theta_identical(self, runner, tmp_path):
        out = tmp_path / "cr.csv"
        res = invoke(
            runner, "transform", "--input", str(DATA / "diabetic.csv"), "--tau", "60",
            "--seed", "0", "--output", str(out),
        )
        assert res.exit_code == 0, res.output
        assert "censored_fraction=" in res.output
        direct = estimate_rte(
            prepare_dataset(read_paired_csv(str(DATA / "diabetic.csv")), 60.0, seed=0)
        )
        again = estimate_rte(read_competing_csv(out, tau=60.0))
        assert again.theta_hat == direct.theta_hat

    def test_counts_per_epsilon(self, runner):
        res = invoke(
            runner, "transform", "--input", str(DATA / "example1_table1.csv"), "--tau", "100",
        )
        # fully observed, tie-free input: no censorings and no simultaneous events
        assert "eps0=0" in res.stderr
        assert "eps3=0" in res.stderr
        assert "eps2=4" in res.stderr

    def test_all_censored_input(self, runner, tmp_path):
        p = tmp_path / "cens.csv"
        p.write_text("x1,delta1,x2,delta2\n1,0,2,0\n3,0,4,0\n")
        res = invoke(runner, "transform", "--input", str(p), "--tau", "100")
        assert "eps0=2" in res.stderr

    def test_case_study_censoring_fractions_by_hand(self, runner, tmp_path):
        # Hand count over the raw fixture: patients with at least one censored
        # eye. Juvenile reproduces the quoted 78.9%; the quoted adult figure
        # (85.1%) does not reproduce under any reading (raw count gives 69/83
        # = 83.1%, truncation-as-censoring 70/83 = 84.3%), so the hand count
        # is the asserted value.
        import csv

        rows = list(csv.DictReader(open(DATA / "diabetic.csv", encoding="utf-8")))
        counts = {}
        for g in ("juvenile", "adult"):
            sub = [r for r in rows if r["group"] == g]
            counts[g] = (
                sum(1 for r in sub if r["delta1"] == "0" or r["delta2"] == "0"),
                len(sub),
            )
        assert counts["juvenile"] == (90, 114)  # 78.95%
        assert counts["adult"] == (69, 83)  # 83.13%

        # and the transform summary's pair-level censored fraction agrees with
        # an independent recount of the emitted file
        out = tmp_path / "cr.csv"
        res = invoke(runner, "transform", "--input", str(DATA / "diabetic.csv"),
                     "--tau", "60", "--output", str(out))
        emitted = list(csv.DictReader(open(out, encoding="utf-8")))
        eps0 = sum(1 for r in emitted if r["epsilon"] == "0")
        assert f"eps0={eps0}" in res.output
        assert f"censored_fraction={eps0 / len(emitted):.4f}" in res.output


class TestSimulate:
    def scenario_file(self, tmp_path, **extra):
        doc = {
            "copula": "gumbel_hougaard",
            "copula_param": 5.0,
            "marginal1": {"name": "exponential", "rate": 2.0},
            "marginal2": {"name": "exponential", "rate": 2.0},
            "censoring": {"name": "uniform", "upper": 2.7},
            "tau": 1.0,
            "n": 40,
            "methods": ["randomization"],
            "transforms": ["linear"],
        }
        doc.update(extra)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        return p

    def test_single_run_deterministic(self, runner, tmp_path):
        p = self.scenario_file(tmp_path)
        args = ["simulate-size", "--scenario", str(p), "--R", "1", "--B", "80", "--seed", "3"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0, a.output
        assert a.output == b.output
        assert "rate" in a.output and "randomization" in a.output

    def test_unknown_copula_field_error(self, runner, tmp_path):
        p = self.scenario_file(tmp_path, copula="frank")
        res = runner.invoke(main, ["simulate-size", "--scenario", str(p), "--R", "1", "--B", "50"])
        assert res.exit_code == EXIT_VALIDATION
        assert "copula" in res.output or "copula" in (res.stderr or "")

    def test_output_csv(self, runner, tmp_path):
        p = self.scenario_file(tmp_path)
        out = tmp_path / "rows.csv"
        res = runner.invoke(
            main,
            ["simulate-size", "--scenario", str(p), "--R", "2", "--B", "60", "--output", str(out)],
        )
        assert res.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert "rate" in header and "mc_se" in header

    def test_power_family_grid(self, runner, tmp_path):
        doc = {"power_family": 3, "copula": "clayton", "values": [1.0, 2.0], "n": 30}
        p = tmp_path / "power.json"
        p.write_text(json.dumps(doc))
        res = runner.invoke(
            main, ["simulate-power", "--scenario", str(p), "--R", "30", "--B", "60", "--seed", "4"]
        )
        assert res.exit_code == 0, res.output
        assert "value=1.0" in res.output and "value=2.0" in res.output
