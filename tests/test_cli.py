import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from copgof import bootstrap, cli, copulas, inference, simulation
from copgof.cli import main
from copgof.copulas import CopulaModel, Family


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pairs.csv"
    gen = np.random.default_rng(55)
    theta = copulas.tau_to_theta(Family.CLAYTON, 0.5)
    u1, u2 = copulas.sample_pairs(CopulaModel(Family.CLAYTON, theta), gen, 120)
    t1, t2 = -np.log(u1), -np.log(u2)
    c = gen.exponential(4.0, 120)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "d1", "d2"])
        for a, b, cc in zip(t1, t2, c):
            w.writerow([f"{min(a, cc):.10g}", f"{min(b, cc):.10g}",
                        int(a <= cc), int(b <= cc)])
    return str(path)


def test_cmd_test_json_schema(data_csv, capsys):
    rc = main(["test", "--input", data_csv, "--family", "clayton",
               "--b", "30", "--seed", "4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "clayton"
    assert report["statistic"]["kind"] == "ir"
    assert report["statistic"]["null_mean"] == 1.0
    assert 0.0 <= report["p_value"] <= 1.0
    assert report["b"] == 30
    assert report["seed"] == 4
    assert report["n"] == 120
    assert len(report["censoring_rates"]) == 2
    assert report["decision_at"]["alpha"] == 0.05
    assert isinstance(report["decision_at"]["reject"], bool)
    assert isinstance(report["degenerate"], bool)


def test_cmd_test_deterministic_output(data_csv, capsys):
    main(["test", "--input", data_csv, "--family", "frank", "--b", "25", "--seed", "1"])
    first = capsys.readouterr().out
    main(["test", "--input", data_csv, "--family", "frank", "--b", "25", "--seed", "1"])
    assert capsys.readouterr().out == first


def test_cmd_test_output_file(data_csv, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["test", "--input", data_csv, "--family", "clayton",
               "--b", "20", "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["family"] == "clayton"


def test_cmd_test_per_margin_censoring(data_csv, capsys):
    argv = ["test", "--input", data_csv, "--family", "clayton", "--b", "20", "--seed", "3"]
    assert main(argv) == 0
    common = json.loads(capsys.readouterr().out)
    assert main(argv + ["--config", "censoring_model=per-margin"]) == 0
    per_margin = json.loads(capsys.readouterr().out)
    assert per_margin["theta_hat"] == common["theta_hat"]
    assert per_margin["sigma_b"] != common["sigma_b"]


def test_cmd_select(data_csv, capsys):
    rc = main(["select", "--input", data_csv, "--families", "clayton,joe",
               "--b", "30", "--seed", "2"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["selected"] in ("clayton", "joe")
    assert len(result["ranking"]) == 2
    ps = [e["p_value"] for e in result["ranking"]]
    assert ps == sorted(ps, reverse=True)
    assert {e["statistic"]["kind"] for e in result["ranking"]} == {"ir"}
    # --statistic picks the statistic every candidate is tested on
    rc = main(["select", "--input", data_csv, "--families", "clayton,joe",
               "--b", "30", "--seed", "2", "--statistic", "white"])
    assert rc == 0
    ranking = json.loads(capsys.readouterr().out)["ranking"]
    assert {e["statistic"]["kind"] for e in ranking} == {"white"}


def test_cmd_select_warns_on_duplicates(data_csv, capsys):
    rc = main(["select", "--input", data_csv, "--families", "clayton,clayton",
               "--b", "20"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "duplicate" in captured.err
    assert len(json.loads(captured.out)["ranking"]) == 1


def test_cmd_fit(data_csv, capsys):
    rc = main(["fit", "--input", data_csv, "--family", "clayton"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["converged"] is True
    assert 0.0 < result["tau_hat"] < 1.0
    assert result["n"] == 120


def test_cmd_fit_config_initial_theta(data_csv, capsys):
    rc = main(["fit", "--input", data_csv, "--family", "clayton",
               "--config", "initial_theta=1.5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_cmd_fit_margin_without_events_exits_2(tmp_path, capsys):
    gen = np.random.default_rng(3)
    p = tmp_path / "censored.csv"
    rows = ["x1,x2,d1,d2"] + [f"{a:.10g},{b:.10g},0,1"
                              for a, b in gen.exponential(1.0, (80, 2))]
    p.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--input", str(p), "--family", "clayton"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "margin 1 has no observed events" in captured.err


@pytest.mark.parametrize("family, statistic", [("gumbel", "ir"), ("frank", "white")])
def test_cmd_test_on_independent_data_exits_2(tmp_path, capsys, family, statistic):
    # empirical tau -0.12: the fit stops unconverged on the independence
    # edge, which is a statistical failure, not a p-value
    gen = np.random.default_rng(3)
    t1, t2 = gen.exponential(1.0, 200), gen.exponential(1.0, 200)
    p = tmp_path / "independent.csv"
    rows = ["x1,x2,d1,d2"] + [f"{a!r},{b!r},1,1" for a, b in zip(t1.tolist(), t2.tolist())]
    p.write_text("\n".join(rows) + "\n")
    rc = main(["test", "--input", str(p), "--family", family, "--statistic", statistic,
               "--b", "20", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "on the edge of the domain" in captured.err


def test_cmd_km_schema(data_csv, capsys):
    rc = main(["km", "--input", data_csv, "--margin", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "time,survival,n_at_risk"
    rows = [line.split(",") for line in lines[1:]]
    surv = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    assert int(rows[0][2]) == 120


def test_cmd_simulate_rejection(capsys):
    rc = main(["simulate", "--true-family", "clayton", "--tau", "0.5",
               "--n", "60", "--replications", "3", "--b", "15",
               "--tests", "ir", "--seed", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("true_family,null_family,test,tau,n,censoring,"
                        "rejection_rate,selection_rate,replications")
    assert lines[1].startswith("clayton,clayton,ir,0.5,60,none,")


def test_cmd_simulate_duplicate_tests_give_one_row_each(capsys):
    # a kind named twice, in any case, is computed and written once per
    # null family
    rc = main(["simulate", "--true-family", "clayton", "--n", "30",
               "--replications", "2", "--b", "4", "--tests", "ir,IR",
               "--null-families", "clayton,frank"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))[1:]
    assert [(r[1], r[2]) for r in rows] == [("clayton", "ir"), ("frank", "ir")]


def test_cmd_simulate_null_mode(capsys, tmp_path):
    out = tmp_path / "qq.csv"
    rc = main(["simulate", "--mode", "null", "--true-family", "gaussian",
               "--n", "50", "--replications", "3", "--b", "15",
               "--tests", "ir", "--seed", "6", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "statistic,normal_quantile"
    assert len(lines) == 4


def test_cmd_simulate_null_mode_takes_one_kind(capsys):
    # the QQ CSV holds one kind's statistics and does not name it: more
    # than one kind is a usage error that names them, and the default is ir
    args = ["simulate", "--mode", "null", "--true-family", "clayton", "--n", "20",
            "--replications", "2", "--b", "4"]
    assert main(args + ["--tests", "white,ir"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "white,ir" in captured.err
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--tests", "ir"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("nulls", [[], ["--null-families", "clayton,joe"]],
                         ids=["own-null", "nulls"])
def test_cmd_simulate_grid_is_its_scenarios_concatenated(nulls, capsys):
    # true families outer, censoring levels inner, under one header; with
    # no --null-families each true family is its own null
    args = ["simulate", "--n", "30", "--replications", "2", "--b", "4",
            "--tests", "ir,white", "--seed", "3", *nulls]
    assert main(args + ["--true-family", "clayton,frank", "--censoring", "none,c20"]) == 0
    grid = capsys.readouterr().out
    parts = []
    for family in ("clayton", "frank"):
        for level in ("none", "c20"):
            assert main(args + ["--true-family", family, "--censoring", level]) == 0
            parts.append(capsys.readouterr().out.splitlines(keepends=True))
    header = parts[0][0]
    assert all(part[0] == header for part in parts)
    assert grid == header + "".join(line for part in parts for line in part[1:])


@pytest.mark.parametrize("option, value", [("--true-family", "clayton,joe"),
                                           ("--censoring", "none,c20")])
def test_cmd_simulate_null_mode_takes_one_scenario(option, value, capsys):
    # the QQ CSV names neither the family nor the level
    rc = main(["simulate", "--mode", "null", "--true-family", "clayton", "--n", "20",
               "--replications", "2", "--b", "4", option, value])
    assert rc == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: null mode takes one ")
    assert value in captured.err


def test_cmd_simulate_null_mode_refuses_null_families(tmp_path, capsys):
    # null mode fits the true family, so a null family list would be
    # ignored; it is refused before the unwritable output is checked
    rc = main(["simulate", "--mode", "null", "--true-family", "clayton", "--n", "20",
               "--replications", "2", "--b", "4", "--null-families", "joe",
               "--output", str(tmp_path / "missing" / "qq.csv")])
    assert rc == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --null-families")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("replications", [1, 3])
def test_cmd_simulate_null_mode_summary(replications, capsys):
    # stderr carries the statistic's mean, its sd from two replicates up
    # (one value has no sample sd), and the KS uniformity test of the
    # p-values; stdout is the QQ CSV alone
    rc = main(["simulate", "--mode", "null", "--true-family", "gumbel", "--n", "40",
               "--replications", str(replications), "--b", "4"])
    assert rc == 0
    captured = capsys.readouterr()
    dist = simulation.run_null_distribution(
        simulation.Scenario(Family.GUMBEL, 0.5, 40),
        simulation.StudyConfig(replications=replications, b=4, kinds=("ir",)))["ir"]
    qq = io.StringIO()
    simulation.write_qq_csv(dist, qq)
    assert captured.out == qq.getvalue()
    summary, uniformity = captured.err.splitlines()
    m = dist.statistics.size
    assert summary.startswith(f"ir: {m} replicate")
    assert f"mean {dist.statistics.mean():.4f}" in summary
    assert ("sd" in summary) == (m > 1)
    ks = stats.kstest(dist.p_values, "uniform")
    assert uniformity == f"KS uniformity of p-values: D={ks.statistic:.4f}, p={ks.pvalue:.4f}"


def test_importing_the_cli_leaves_scipy_stats_out():
    # only the null summary needs scipy.stats, only the quadratures and
    # the tau inversion need scipy.integrate and scipy.optimize, and each
    # imports its module itself: a process that imports the CLI, such as
    # the benchmark harness, loads none of them
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, copgof.cli; print([m for m in ('scipy.stats', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n")


# --- error paths ---------------------------------------------------------

def test_usage_unknown_family(data_csv, capsys):
    rc = main(["test", "--input", data_csv, "--family", "vine", "--b", "20"])
    assert rc == 64
    assert "unknown copula family" in capsys.readouterr().err


def test_usage_b_too_small(data_csv, capsys):
    rc = main(["test", "--input", data_csv, "--family", "clayton", "--b", "1"])
    assert rc == 64


@pytest.mark.parametrize("argv", [
    ["test", "--input", "DATA", "--family", "clayton", "--b", "10", "--alpha", "1.5"],
    ["simulate", "--true-family", "clayton", "--n", "20", "--replications", "1",
     "--b", "10", "--alpha", "0"],
    ["test", "--input", "DATA", "--family", "clayton", "--b", "10", "--seed", "-1"],
    ["fit", "--input", "DATA", "--family", "clayton", "--config", "initial_theta=-1"],
    # usage errors come before input errors
    ["test", "--input", "/nonexistent/x.csv", "--family", "clayton", "--b", "1"],
    ["select", "--input", "/nonexistent/x.csv", "--families", "clayton,frank", "--b", "1"],
    # these used to end in a traceback
    ["fit", "--input", "DATA", "--family", "clayton", "--config", "initial_theta=inf"],
    ["simulate", "--mode", "null", "--true-family", "clayton", "--n", "20",
     "--replications", "1", "--b", "10", "--tests", ","],
    # every entry of a list is checked before --output and before any work
    ["simulate", "--true-family", "clayton", "--censoring", "none,c30", "--n", "20",
     "--replications", "1", "--b", "10", "--output", "/nonexistent/x.csv"],
    ["simulate", "--true-family", "clayton,vine", "--n", "20", "--replications", "1",
     "--b", "10", "--output", "/nonexistent/x.csv"],
    ["simulate", "--true-family", "gaussian,clayton", "--tau", "-0.3", "--n", "20",
     "--replications", "1", "--b", "10", "--output", "/nonexistent/x.csv"],
    # past the largest tau of Frank's and Joe's theta bracket
    ["simulate", "--true-family", "frank", "--tau", "0.995", "--n", "20",
     "--replications", "1", "--b", "10", "--output", "/nonexistent/x.csv"],
    ["simulate", "--true-family", "joe", "--tau", "0.999", "--n", "20",
     "--replications", "1", "--b", "10", "--output", "/nonexistent/x.csv"],
])
def test_usage_out_of_range_values(argv, data_csv, capsys):
    rc = main([data_csv if a == "DATA" else a for a in argv])
    assert rc == 64
    assert capsys.readouterr().err.startswith("usage error:")


def test_usage_bad_config_key(data_csv, capsys):
    rc = main(["test", "--input", data_csv, "--family", "clayton",
               "--b", "20", "--config", "shrinkage=3"])
    assert rc == 64
    assert "valid keys" in capsys.readouterr().err


GOLDEN_C20 = str(Path(__file__).parent / "golden" / "clayton_c20.csv")


@pytest.mark.parametrize("argv, valid", [
    (["test", "--input", GOLDEN_C20, "--family", "clayton", "--b", "40", "--seed", "11",
      "--config", "initial_theta=50"], "censoring_model"),
    (["fit", "--input", GOLDEN_C20, "--family", "clayton",
      "--config", "censoring_model=per-margin"], "initial_theta"),
])
def test_usage_config_key_of_another_subcommand(argv, valid, capsys):
    # a key the subcommand would ignore is a usage error, not silently dropped
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert f"for {argv[0]}; valid keys: {valid}" in captured.err


@pytest.mark.parametrize("command, own, other", [
    ("test", "censoring_model", "initial_theta"),
    ("select", "censoring_model", "initial_theta"),
    ("fit", "initial_theta", "censoring_model"),
])
def test_config_help_lists_only_own_keys(command, own, other, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert own in out
    assert other not in out


def test_usage_missing_subcommand(capsys):
    assert main([]) == 64


def test_input_missing_file(capsys):
    rc = main(["fit", "--input", "/nonexistent/x.csv", "--family", "clayton"])
    assert rc == 1


@pytest.mark.parametrize("command", [["fit", "--family", "clayton"], ["km"]])
def test_unwritable_output_is_an_input_error(data_csv, tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.json"
    rc = main([command[0], "--input", data_csv, "--output", str(out), *command[1:]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, module, work", [
    (["test", "--input", "DATA", "--family", "clayton", "--b", "200",
      "--output", "/nonexistent/x.json"], bootstrap, "bootstrap_reports"),
    (["select", "--input", "DATA", "--families", "clayton,frank", "--b", "200",
      "--output", "/nonexistent/x.json"], bootstrap, "select_copula"),
    (["fit", "--input", "DATA", "--family", "clayton",
      "--output", "/nonexistent/x.json"], inference, "fit_pmle"),
    (["simulate", "--true-family", "clayton", "--n", "40", "--replications", "2",
      "--b", "4", "--output", "/nonexistent/x.csv"], simulation, "run_rejection_study"),
    (["simulate", "--mode", "null", "--true-family", "clayton", "--n", "40",
      "--replications", "2", "--b", "4", "--output", "/nonexistent/x.csv"],
     simulation, "run_null_distribution"),
], ids=["test", "select", "fit", "simulate", "simulate-null"])
def test_unwritable_output_fails_before_the_work(argv, module, work, data_csv,
                                                 monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} ran before --output was checked")

    monkeypatch.setattr(module, work, forbidden)
    rc = main([data_csv if a == "DATA" else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {argv[-1]}: ") and err.count("\n") == 1


def test_failed_run_leaves_the_output_path_as_it_was(tmp_path, capsys):
    # 9 rows fail the fit (exit 2) after --output was checked
    p = tmp_path / "deg.csv"
    p.write_text("\n".join(["x1,x2,d1,d2"] + [f"{i}.0,{i}.5,1,1" for i in range(1, 10)]))
    old = tmp_path / "old.json"
    old.write_text("earlier report\n")
    new = tmp_path / "new.json"
    for out in (old, new):
        rc = main(["test", "--input", str(p), "--family", "clayton", "--b", "20",
                   "--output", str(out)])
        assert rc == 2
    assert old.read_text() == "earlier report\n"
    assert not new.exists()


def test_input_bad_header(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,d\n1,2,1,1\n")
    rc = main(["fit", "--input", str(p), "--family", "clayton"])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_input_bad_row_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x1,x2,d1,d2\n1.0,2.0,1,1\n1.0,oops,1,1\n")
    rc = main(["fit", "--input", str(p), "--family", "clayton"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"x1,x2,d1,d2\n1.0,2.0,1,1\n1.0,2\xff,1,1\n", "not UTF-8 text"),
    (b"x1,x2,d1,d2\n1.0,2.0,1,1\n" + b"9" * 200_000 + b",2.0,1,1\n",
     "line 3: field larger than field limit"),
], ids=["not-utf8", "oversized-field"])
def test_unreadable_input_text_is_an_input_error(content, message, tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(content)
    rc = main(["fit", "--input", str(p), "--family", "clayton"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: {message}")
    assert "Traceback" not in err


def test_input_with_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark, as some spreadsheets write, is not part of
    # the header
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + Path(GOLDEN_C20).read_bytes())
    outputs = []
    for path in (GOLDEN_C20, str(p)):
        assert main(["fit", "--input", path, "--family", "clayton"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_statistical_failure_exit_code(tmp_path, capsys):
    # 9 rows: below the minimum sample size for fitting -> exit 2,
    # not a traceback
    p = tmp_path / "deg.csv"
    rows = ["x1,x2,d1,d2"] + [f"{i}.0,{i}.5,1,1" for i in range(1, 10)]
    p.write_text("\n".join(rows) + "\n")
    rc = main(["test", "--input", str(p), "--family", "clayton", "--b", "20"])
    assert rc == 2
    assert "statistical failure" in capsys.readouterr().err
