import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from pairedrte import estimate_rte, read_competing_csv, read_paired_csv, prepare_dataset
from pairedrte import cli
from pairedrte.cli import EXIT_DEGENERATE, EXIT_PARSE, EXIT_VALIDATION, main

DATA = resources.files("pairedrte").joinpath("datasets")


GOLDEN = Path(__file__).parent / "golden" / "analyze_diabetic_seed1.json"

# One scenario object of a power file's explicit grid.
GRID_ENTRY = {
    "copula": "clayton", "copula_param": -0.6,
    "marginal1": {"name": "exponential", "rate": 2.0},
    "marginal2": {"name": "exponential", "rate": 2.0},
    "censoring": {"upper": 2.0}, "tau": 1.3, "n": 20,
}


def _assert_same(got, want, path):
    """Equal JSON values: same structure and non-floats, floats to 1e-12 relative.

    The tolerance lets another numpy build round the last digits differently.
    """
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


# A paired CSV in which no censoring time equals an event time.
TIE_FREE = "x1,delta1,x2,delta2\n1,1,2,1\n3,0,1.5,1\n2.5,1,4,0\n5,1,0.5,1\n"


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
        assert "theta_hat_unjittered" not in groups["adult"]
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

    def test_nonfinite_number_in_the_json_is_an_error(self, tmp_path):
        # a NaN that reached a report would make invalid JSON: the command
        # fails with exit 1, its traceback names the error, and nothing is written
        out = tmp_path / "report.json"
        script = ("import dataclasses, sys\n"
                  "from pairedrte import cli\n"
                  "real = cli.run_inference\n"
                  "cli.run_inference = lambda *args, **kwargs: [\n"
                  "    dataclasses.replace(r, p_value=float('nan')) for r in real(*args, **kwargs)]\n"
                  "cli.main(sys.argv[1:])\n")
        res = subprocess.run(
            [sys.executable, "-c", script, "analyze", "--input", str(DATA / "diabetic.csv"),
             "--tau", "60", "--method", "asy", "--format", "json", "--output", str(out)],
            capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        assert res.stdout == "" and not out.exists()
        assert "ValueError: Out of range float values are not JSON compliant" in res.stderr

    def test_parse_error_exit_code(self, runner, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,delta1,x2,delta2\nfoo,1,2,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_PARSE

    @pytest.mark.parametrize("text, message", [
        ("z,epsilon,group\n1,1,a\n2,2,a\n3,0,b\n",
         "row 1, column 'z,epsilon,group': expected header z,epsilon"),
        ("z,epsilon\n1,1\n2,x\n", "row 3, column 'epsilon': not a number: 'x'"),
        ("x1,delta1,x2,delta2\n1,1,2,x\n", "row 2, column 'delta2': not a number: 'x'"),
    ], ids=["competing-third-column", "competing-label", "paired-label"])
    def test_input_parse_error(self, runner, tmp_path, text, message):
        # a group column is not dropped from records, and a label that is no
        # number is a parse failure in either layout
        p = tmp_path / "records.csv"
        p.write_text(text)
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "5",
                                   "--method", "asy"])
        assert res.exit_code == EXIT_PARSE
        assert res.output == f"error: {message}\n"

    def test_competing_labels_written_as_decimals(self, runner, tmp_path):
        docs = []
        for name, rows in (("ints.csv", "1,1\n2,2\n3,0\n"),
                           ("decimals.csv", "1,1.0\n2,2.0\n3,0.0\n")):
            p = tmp_path / name
            p.write_text("z,epsilon\n" + rows)
            res = invoke(runner, "analyze", "--input", str(p), "--tau", "5", "--method", "asy",
                         "--format", "json")
            assert res.exit_code == 0, res.output
            docs.append(json.loads(res.output))
            del docs[-1]["input"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("rows, cells", [("1.0,1\n2.0\n", 1), ("1.0,1\n2.0,1,7\n", 3)],
                             ids=["short", "long"])
    def test_competing_row_of_wrong_length_is_a_parse_error(self, runner, tmp_path, rows, cells):
        p = tmp_path / "records.csv"
        p.write_text("z,epsilon\n" + rows)
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "5",
                                   "--method", "asy"])
        assert res.exit_code == EXIT_PARSE
        assert res.output == f"error: row 3, column '*': expected 2 cells, got {cells}\n"

    def test_validation_error_exit_code(self, runner, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,delta1,x2,delta2\n2,7,2,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("header", ["x1,delta1,x2,delta2", "z,epsilon"])
    def test_header_only_input_is_a_validation_error(self, runner, tmp_path, header):
        p = tmp_path / "records.csv"
        p.write_text(header + "\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output == f"error: {p}: empty dataset\n"

    @pytest.mark.parametrize("command", ["analyze", "transform"])
    def test_zero_byte_input_is_a_validation_error(self, runner, tmp_path, command):
        p = tmp_path / "records.csv"
        p.write_text("")
        res = runner.invoke(main, [command, "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr == f"error: {p}: empty file\n"

    @pytest.mark.parametrize("option, value", [("--alpha", "2"), ("--B", "0")])
    def test_invalid_inference_setting_is_a_validation_error(self, runner, option, value):
        res = runner.invoke(main, ["analyze", "--input", str(DATA / "diabetic.csv"),
                                   "--tau", "60", option, value])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

    def test_too_few_replicates_refuses_inference_per_group(self, runner):
        res = runner.invoke(main, ["analyze", "--input", str(DATA / "diabetic.csv"),
                                   "--tau", "60", "--group-by", "--B", "10",
                                   "--format", "json"])
        assert res.exit_code == EXIT_DEGENERATE
        groups = json.loads(res.stdout)["groups"]
        assert [g["group"] for g in groups] == ["adult", "juvenile"]
        for g in groups:
            assert 0.0 < g["theta_hat"] < 1.0
            assert g["reports"] == []
            assert g["inference"].startswith("refused: 10 usable replicates")

    def test_loglog_outside_the_unit_interval_refuses_inference(self, runner, tmp_path):
        p = tmp_path / "ones.csv"
        p.write_text("x1,delta1,x2,delta2\n5,1,1,1\n6,1,2,1\n7,1,3,1\n8,1,4,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10",
                                   "--method", "asy", "--transform", "loglog"])
        assert res.exit_code == EXIT_DEGENERATE
        assert "theta_hat=1.0000" in res.stdout
        assert "inference refused: log-log transform needs theta_hat in (0, 1)" in res.stdout

    def test_nonfinite_time_beside_a_censoring_tie(self, runner, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x1,delta1,x2,delta2\ninf,1,1,0\n1,1,2,1\n3,0,1.5,1\n")
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10"])
        assert res.exit_code == EXIT_VALIDATION
        assert "x1 is not finite" in res.output

    @pytest.mark.parametrize("rows, tau", [
        ("1,2\n2,1\n3,0\n", "nan"),
        ("1,2\n2,1\n3,0\n", "-1"),
        ("1,2\n-1,1\n3,0\n", "10"),
    ], ids=["nan-tau", "negative-tau", "negative-z"])
    def test_competing_input_is_validated(self, runner, tmp_path, rows, tau):
        p = tmp_path / "records.csv"
        p.write_text("z,epsilon\n" + rows)
        res = runner.invoke(main, ["analyze", "--input", str(p), f"--tau={tau}",
                                   "--format", "json"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output.startswith("error: ")

    def test_case_study_json_equals_golden_file(self, runner):
        # analyze --input src/pairedrte/datasets/diabetic.csv --tau 60 --group-by
        # --method all --transform both --B 2000 --seed 1 --format json
        res = invoke(
            runner, "analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60",
            "--group-by", "--method", "all", "--transform", "both", "--B", "2000",
            "--seed", "1", "--format", "json",
        )
        got = json.loads(res.output)
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        del got["input"], want["input"]
        _assert_same(got, want, "doc")

    def test_seed_reproducibility(self, runner):
        args = ["analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60",
                "--method", "boot", "--transform", "lin", "--B", "150", "--seed", "9",
                "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_each_group_is_prepared_once(self, runner, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return prepare_dataset(*args, **kwargs)

        monkeypatch.setattr(cli, "prepare_dataset", counted)
        res = invoke(runner, "analyze", "--method", "asy", "--format", "json", "--input",
                     str(DATA / "diabetic.csv"), "--tau", "60", "--group-by")
        assert res.exit_code == 0, res.output
        assert calls == [{}, {}]
        obs = read_paired_csv(str(DATA / "diabetic.csv"))
        for entry in json.loads(res.output)["groups"]:
            assert list(entry) == ["group", "n", "theta_hat", "sigma_hat", "reports"]
            group = [o for o in obs if o.group == entry["group"]]
            assert entry["theta_hat"] == estimate_rte(prepare_dataset(group, 60.0)).theta_hat

    @pytest.mark.parametrize("command, option", [
        ("analyze", ["--no-jitter"]), ("transform", ["--no-jitter"]),
        ("transform", ["--seed", "1"]),
    ], ids=["analyze-no-jitter", "transform-no-jitter", "transform-seed"])
    def test_the_jitter_options_are_gone(self, runner, command, option):
        # ties are broken by rule, so there is no jitter to skip or seed;
        # click refuses both as unknown options
        res = runner.invoke(main, [command, "--input", str(DATA / "diabetic.csv"),
                                   "--tau", "60", *option])
        assert res.exit_code == 2
        assert "No such option" in res.stderr and option[0] in res.stderr

    def test_competing_input_equals_the_paired_file_it_was_transformed_from(self, runner,
                                                                            tmp_path):
        cr = tmp_path / "cr.csv"
        base = ["--tau", "60"]
        res = invoke(runner, "transform", "--input", str(DATA / "diabetic.csv"), *base,
                     "--output", str(cr))
        assert res.exit_code == 0, res.output
        docs = []
        for path in (DATA / "diabetic.csv", cr):
            res = invoke(runner, "analyze", "--input", str(path), *base, "--seed", "1",
                         "--B", "200", "--format", "json")
            assert res.exit_code == 0, res.output
            docs.append(json.loads(res.output))
        paired, ready = docs
        del paired["input"], ready["input"]
        assert ready == paired
        assert len(ready["groups"][0]["reports"]) == 6

    @pytest.mark.parametrize("text", [
        "z,epsilon\n1,1\n2,2\n",
        "x1,delta1,x2,delta2,group\n1,1,2,1,a\n3,0,1.5,1,\n",
    ], ids=["competing-input", "row-without-label"])
    def test_group_by_needs_a_label_on_every_paired_row(self, runner, tmp_path, text):
        p = tmp_path / "records.csv"
        p.write_text(text)
        res = runner.invoke(main, ["analyze", "--input", str(p), "--tau", "10", "--group-by"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output.startswith("error: --group-by")

    @pytest.mark.parametrize("header, encoding", [
        ("x1,delta1,x2,delta2", "utf-8-sig"),
        ("z,epsilon", "utf-8-sig"),
        ('"z","epsilon"', "utf-8"),
        ("z , epsilon", "utf-8"),
    ], ids=["paired-bom", "competing-bom", "competing-quoted", "competing-spaced"])
    def test_header_spellings_read_as_the_plain_header(self, runner, tmp_path, header,
                                                       encoding):
        # the reader is chosen by the header the CSV reader parses: a
        # byte-order mark, quotes and spaces around a name change nothing
        plain_header = header.replace('"', "").replace(" ", "")
        body = TIE_FREE.split("\n", 1)[1] if plain_header.startswith("x1") else "1,1\n2,2\n3,0\n"
        plain, spelled = tmp_path / "plain.csv", tmp_path / "spelled.csv"
        plain.write_text(f"{plain_header}\n{body}", encoding="utf-8")
        spelled.write_text(f"{header}\n{body}", encoding=encoding)
        docs = []
        for path in (plain, spelled):
            res = invoke(runner, "analyze", "--input", str(path), "--tau", "10", "--method",
                         "asy", "--format", "json")
            assert res.exit_code == 0, res.output
            docs.append(json.loads(res.output))
            del docs[-1]["input"]
        assert docs[0] == docs[1]

    def test_table_shows_the_json_estimate(self, runner):
        args = ["analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60", "--group-by",
                "--method", "asy"]
        table = invoke(runner, *args).output
        for entry in json.loads(invoke(runner, *args, "--format", "json").output)["groups"]:
            assert (f"group={entry['group']}  n={entry['n']}  "
                    f"theta_hat={entry['theta_hat']:.4f}  sigma_hat={entry['sigma_hat']:.4f}"
                    "\n") in table

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_stdout_matches_written_file(self, runner, tmp_path, fmt):
        out = tmp_path / "report"
        args = ["analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60", "--group-by",
                "--method", "asy", "--format", fmt]
        to_file = invoke(runner, *args, "--output", str(out))
        to_stdout = invoke(runner, *args)
        assert to_file.exit_code == to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == to_file.stdout_bytes == out.read_bytes()
        assert to_stdout.stdout.endswith("\n") and not to_stdout.stdout.endswith("\n\n")


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
            "--output", str(out),
        )
        assert res.exit_code == 0, res.output
        assert "censored_fraction=" in res.output
        direct = estimate_rte(
            prepare_dataset(read_paired_csv(str(DATA / "diabetic.csv")), 60.0)
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

        with open(DATA / "diabetic.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
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
        with open(out, encoding="utf-8") as fh:
            emitted = list(csv.DictReader(fh))
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

    def test_scenario_with_a_byte_order_mark(self, runner, tmp_path):
        p = self.scenario_file(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_text(p.read_text(encoding="utf-8"), encoding="utf-8-sig")
        outputs = []
        for path in (p, marked):
            res = runner.invoke(main, ["simulate-size", "--scenario", str(path), "--R", "1",
                                       "--B", "80", "--seed", "3"])
            assert res.exit_code == 0, res.output
            outputs.append(res.output)
        assert outputs[0] == outputs[1]

    def test_refused_replicates_are_counted_not_fatal(self, runner, tmp_path):
        # a fixed input: acceptance cell 06(b) at the Gompertz rate pinned
        # before the null was calibrated by quadrature, 2.78271484375, kept as
        # it was; replicates 61 and 81 are all type 1, so the Wald test is
        # refused on both, which used to end the run with exit 5
        p = tmp_path / "cell06b.json"
        p.write_text(json.dumps({
            "copula": "clayton", "copula_param": -0.6,
            "marginal1": {"name": "gompertz", "shape": 0.6, "rate": 2.78271484375},
            "marginal2": {"name": "exponential", "rate": 3.0},
            "censoring": {"upper": 0.7}, "tau": 0.6, "n": 25,
            "methods": ["asymptotic"], "transforms": ["linear"], "seed": 1548220732, "r": 100,
        }))
        res = runner.invoke(main, ["simulate-size", "--scenario", str(p)])
        assert res.exit_code == 0, res.output
        head, row = res.stdout.splitlines()
        fields = dict(zip(head.split(","), row.split(",")))
        assert (fields["rejections"], fields["refused"], fields["errors"]) == ("7", "2", "0")

    def test_unknown_copula_field_error(self, runner, tmp_path):
        p = self.scenario_file(tmp_path, copula="frank")
        res = runner.invoke(main, ["simulate-size", "--scenario", str(p), "--R", "1", "--B", "50"])
        assert res.exit_code == EXIT_VALIDATION
        assert "copula" in res.output or "copula" in (res.stderr or "")

    @pytest.mark.parametrize("command", ["simulate-size", "simulate-power"])
    @pytest.mark.parametrize("r", ["0", "-5"])
    def test_replication_count_below_one_is_a_validation_error(self, runner, tmp_path,
                                                               command, r):
        if command == "simulate-size":
            p = self.scenario_file(tmp_path)
        else:
            p = tmp_path / "power.json"
            p.write_text(json.dumps({"power_family": 3, "copula": "clayton",
                                     "values": [1.0], "n": 30}))
        res = runner.invoke(main, [command, "--scenario", str(p), "--R", r, "--B", "50"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr == f"error: r must be at least 1, got {r}\n"

    @pytest.mark.parametrize("extra, field", [
        ({"r": "abc"}, "r"),
        ({"r": 2.7}, "r"),
        ({"n": "x"}, "n"),
        ({"n": 20.9}, "n"),
        ({"tau": "soon"}, "tau"),
        ({"alpha": "x"}, "alpha"),
        ({"censoring": {"upper": "x"}}, "censoring"),
        ({"censoring": {"upper": -1}}, "censoring"),
        ({"copula_param": None}, "copula_param"),
        ({"methods": "asymptotic"}, "methods"),
        ({"r": True}, "r"),
        ({"tau": True}, "tau"),
        ({"censoring": {"upper": True}}, "censoring"),
        # 1e400 is JSON for an infinite float
        ({"censoring": {"upper": 1e400}}, "censoring"),
        ({"copula_param": 1e400}, "copula_param"),
        ({"copula": "clayton", "copula_param": float("nan")}, "copula_param"),
        ({"tau": 1e400}, "tau"),
    ])
    def test_size_file_value_of_the_wrong_type_names_the_field(self, runner, tmp_path,
                                                                extra, field):
        p = self.scenario_file(tmp_path, **extra)
        res = runner.invoke(main, ["simulate-size", "--scenario", str(p), "--B", "50"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: scenario field {field!r}: ")

    @pytest.mark.parametrize("doc, field", [
        ({"power_family": "x"}, "power_family"),
        ({"values": ["a"]}, "values[0]"),
        ({"n": "x"}, "n"),
        ({"copula": "frank"}, "copula"),
        ({"power_family": 1, "values": [1.5]}, "value"),
        ({"grid": [1]}, "grid"),
        ({"grid": []}, "grid"),
        ({"grid": [GRID_ENTRY, dict(GRID_ENTRY, n="x")]}, "grid[1].n"),
        ({"values": [1e400]}, "values[0]"),
        ({"power_family": 1, "copula": ["clayton"], "values": [0.1]}, "copula"),
        ({"copula": {}}, "copula"),
    ])
    def test_power_file_value_of_the_wrong_type_names_the_field(self, runner, tmp_path,
                                                                 doc, field):
        p = tmp_path / "power.json"
        family = {"power_family": 3, "copula": "clayton", "values": [1.0], "n": 30}
        p.write_text(json.dumps(doc if "grid" in doc else dict(family, **doc)))
        res = runner.invoke(main, ["simulate-power", "--scenario", str(p), "--R", "5"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: scenario field {field!r}: ")

    @pytest.mark.parametrize("command, extra", [
        ("simulate-size", {"methods": []}),
        ("simulate-size", {"transforms": []}),
        ("simulate-size", {"methods": ["asymptotic", "asymptotic"]}),
        ("simulate-power", {"methods": []}),
    ])
    def test_empty_or_repeated_names_are_a_validation_error(self, runner, tmp_path,
                                                            command, extra):
        if command == "simulate-size":
            p = self.scenario_file(tmp_path, **extra)
        else:
            p = tmp_path / "power.json"
            p.write_text(json.dumps({"grid": [GRID_ENTRY], **extra}))
        res = runner.invoke(main, [command, "--scenario", str(p), "--R", "5", "--B", "50"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        field = next(iter(extra))
        assert res.stderr == (f"error: {field} must be nonempty and distinct, "
                              f"got {extra[field]}\n")

    def test_negative_seed_in_the_file_is_a_validation_error(self, runner, tmp_path):
        p = self.scenario_file(tmp_path, seed=-1)
        res = runner.invoke(main, ["simulate-size", "--scenario", str(p), "--R", "2"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stderr == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("command", ["simulate-size", "simulate-power"])
    def test_malformed_file_is_a_parse_error(self, runner, tmp_path, command):
        p = tmp_path / "bad.json"
        p.write_text('{"copula":\n}\n')
        res = runner.invoke(main, [command, "--scenario", str(p)])
        assert res.exit_code == EXIT_PARSE
        assert res.stdout == ""
        assert res.stderr == "error: row 2, column 'json': Expecting value\n"

    @pytest.mark.parametrize("command", ["simulate-size", "simulate-power"])
    def test_scenario_file_must_hold_an_object(self, runner, tmp_path, command):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        res = runner.invoke(main, [command, "--scenario", str(p)])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stderr == "error: scenario field 'scenario': expected a JSON object, got list\n"

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


class TestCalibrate:
    def test_writes_the_committed_parameters(self, runner, tmp_path):
        out = tmp_path / "params.json"
        res = runner.invoke(main, ["calibrate", "--output", str(out)])
        assert res.exit_code == 0, res.output
        written = json.loads(out.read_text())
        committed = json.loads(DATA.joinpath("calibrated_params.json").read_text())
        assert written.keys() == committed.keys()
        for key, entry in committed.items():
            assert written[key].keys() == entry.keys() == {"param", "theta", "iterations"}
            assert written[key]["param"] == pytest.approx(entry["param"], rel=1e-9), key

    def test_stdout_matches_written_file(self, runner, tmp_path):
        out = tmp_path / "params.json"
        to_file = runner.invoke(main, ["calibrate", "--output", str(out)])
        to_stdout = runner.invoke(main, ["calibrate"])
        assert to_file.exit_code == to_stdout.exit_code == 0
        assert to_file.stdout == ""
        assert to_stdout.stdout == out.read_text()
        assert to_stdout.stderr == to_file.stderr != ""

    def test_nonfinite_number_in_the_json_is_an_error(self, runner, monkeypatch):
        monkeypatch.setattr(cli.sim, "calibrate_null", lambda make_scenario, bracket:
                            cli.sim.CalibrationResult(param=float("nan"), theta=0.5, iterations=0))
        res = runner.invoke(main, ["calibrate"])
        assert res.exit_code == 1 and res.stdout == ""
        assert isinstance(res.exception, ValueError)
        assert "Out of range float values are not JSON compliant" in str(res.exception)

    @pytest.mark.parametrize("option", ["--n-draws", "--tol", "--seed"])
    def test_the_monte_carlo_options_are_gone(self, runner, option):
        # the quadrature draws nothing, so a draw count, a tolerance or a seed
        # would change nothing; click refuses them as unknown options
        res = runner.invoke(main, ["calibrate", option, "10"])
        assert res.exit_code == 2
        assert "No such option" in res.stderr and option in res.stderr


class TestNegativeSeed:
    @pytest.mark.parametrize("args", [
        ["analyze", "--input", str(DATA / "diabetic.csv"), "--tau", "60", "--seed", "-1"],
        ["analyze", "--input", str(DATA / "example1_table2.csv"), "--tau", "100",
         "--method", "rand", "--seed", "-1"],
    ], ids=["analyze-diabetic", "analyze-resampling"])
    def test_is_a_validation_error(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr == "error: seed must be a nonnegative integer, got -1\n"


class TestRulesForEveryMethod:
    """The seed and ``--B`` rules hold when nothing is drawn from them."""

    @pytest.mark.parametrize("args, message", [
        (["analyze", "--method", "asy", "--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
        (["analyze", "--method", "asy", "--B", "-5", "--format", "json"],
         "b must be an integer at least 1, got -5"),
    ], ids=["analyze-seed", "analyze-b"])
    def test_is_a_validation_error_on_a_tie_free_input(self, runner, tmp_path, args, message):
        p = tmp_path / "tie_free.csv"
        p.write_text(TIE_FREE)
        res = runner.invoke(main, [args[0], "--input", str(p), "--tau", "10", *args[1:]])
        assert res.exit_code == EXIT_VALIDATION
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["analyze", "--input", "{dir}", "--tau", "60"],
    ["analyze", "--input", "{file}", "--tau", "60", "--output", "{dir}"],
    ["transform", "--input", "{dir}", "--tau", "60"],
    ["transform", "--input", "{file}", "--tau", "60", "--output", "{dir}"],
    ["simulate-size", "--scenario", "{dir}"],
    ["simulate-size", "--scenario", "{file}", "--output", "{dir}"],
    ["simulate-power", "--scenario", "{dir}"],
    ["simulate-power", "--scenario", "{file}", "--output", "{dir}"],
    ["calibrate", "--output", "{dir}"],
], ids=lambda args: f"{args[0]} {args[args.index('{dir}') - 1]}")
def test_directory_path_is_a_usage_error(runner, tmp_path, args):
    """Click refuses the directory before the command reads or computes anything."""
    p = tmp_path / "input"
    p.write_text(TIE_FREE)
    res = runner.invoke(main, [arg.format(dir=tmp_path, file=p) for arg in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "is a directory" in res.stderr


@pytest.mark.parametrize("args", [
    ["analyze", "--input", "{paired}", "--tau", "10", "--method", "asy"],
    ["transform", "--input", "{paired}", "--tau", "10"],
    ["simulate-size", "--scenario", "{size}", "--R", "1"],
    ["simulate-power", "--scenario", "{power}", "--R", "1"],
    ["calibrate"],
], ids=lambda args: args[0])
def test_output_in_a_missing_directory_is_a_usage_error(runner, tmp_path, args):
    """Click refuses the path before the command reads, computes or writes anything.

    Each command completes with exit 0 on these inputs and an output that can be written.
    """
    inputs = {"paired": TIE_FREE, "size": json.dumps(dict(GRID_ENTRY, b=40)),
              "power": json.dumps({"grid": [GRID_ENTRY], "b": 40})}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "missing" / "out.txt"
    res = runner.invoke(main, [arg.format(**{name: tmp_path / name for name in inputs})
                               for arg in args] + ["--output", str(out)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"Directory of '{out}' does not exist." in res.stderr
    assert not out.parent.exists()
