import json
import math
import tracemalloc

import pytest

from contest_forge.cli import _build_parser, main

RECT_DOC = {
    "kind": "rect_mixture",
    "components": [
        {"q": [0.0, 1.0], "c": [0.05, 0.3], "weight": 0.6},
        {"q": [0.5, 2.0], "c": [0.1, 0.8], "weight": 0.4},
    ],
}
CONTEST_DOC = {"budget": 1.0, "values": [0.5, 0.3, 0.2, 0.0, 0.0, 0.0]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesign:
    def test_flip_examples(self, capsys):
        code, out, _ = run(capsys, ["design", "--n", "5", "--prize", "1", "--cost", "0.40"])
        assert code == 0
        doc = json.loads(out)
        assert doc["j_star"] == 2
        assert doc["prizes"] == [0.5, 0.5, 0.0, 0.0, 0.0]
        assert set(doc) == {"j_star", "prizes", "p_star", "lambda", "theta"}

        code, out, _ = run(capsys, ["design", "--n", "5", "--prize", "1", "--cost", "0.41"])
        assert code == 0
        assert json.loads(out)["j_star"] == 1

    def test_negative_cost_exits_one(self, capsys):
        code, out, err = run(capsys, ["design", "--n", "5", "--prize", "1", "--cost", "-1"])
        assert code == 1
        assert out == "" and err.startswith("contest-forge: error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "n, cost", [("5", "nan"), ("5", "inf"), ("0", "0.4")],
        ids=["nan_cost", "inf_cost", "zero_population"],
    )
    def test_invalid_scalar_exits_one(self, capsys, n, cost):
        code, out, err = run(capsys, ["design", "--n", n, "--prize", "1", "--cost", cost])
        assert code == 1
        assert out == "" and err.startswith("contest-forge: error:")
        assert len(err.splitlines()) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["design", "--n", "5", "--prize", "1", "--cost", "0.40", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "j_star,prize_top,p_star,lambda,theta"
        assert lines[1].startswith("2,0.5,")


class TestCompstat:
    def test_frozen_row(self, capsys):
        code, out, _ = run(capsys, ["compstat", "--n", "5", "--prize", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "j,p_j,c_j"
        assert lines[1] == "1,,1"
        assert lines[2] == "2,0.2,0.4096"
        # the exact root is 0.66874030497642...
        assert lines[5] == "5,0.668740304976,0.2"
        assert lines[-1] == "6,,0"

    def test_large_n_table(self, capsys):
        code, out, err = run(capsys, ["compstat", "--n", "200"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 202
        assert lines[2].startswith("2,0.005,")

    def test_n_one_exits_one(self, capsys):
        code, _, _ = run(capsys, ["compstat", "--n", "1"])
        assert code == 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["compstat", "--n", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [row["j"] for row in doc["rows"]] == [1, 2, 3, 4]


class TestPoisson:
    def test_half_cost(self, capsys):
        code, out, _ = run(capsys, ["poisson", "--prize", "1", "--cost", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["j_star"] == 1
        assert abs(doc["lambda_star"] - 0.693147180560) < 1e-9

    def test_cost_at_budget_exits_one(self, capsys):
        code, _, _ = run(capsys, ["poisson", "--prize", "1", "--cost", "1"])
        assert code == 1


class TestScan:
    def test_three_rows(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "--vc-min", "100", "--vc-max", "10000", "--steps", "3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vc,n,j_star,lambda_star,r_j,r_lambda"
        assert len(lines) == 4
        assert lines[1].startswith("100,300,")
        assert lines[3].startswith("10000,30000,")

    def test_small_scale_exits_one(self, capsys):
        code, _, _ = run(capsys, ["scan", "--vc-min", "10", "--vc-max", "50"])
        assert code == 1


class TestHeteroEq:
    def test_report(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        contest = tmp_path / "contest.json"
        dist.write_text(json.dumps(RECT_DOC))
        contest.write_text(json.dumps(CONTEST_DOC))
        code, out, _ = run(
            capsys,
            ["hetero-eq", "--dist", str(dist), "--contest", str(contest),
             "--n", "6", "--m", "40", "--seed", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["support"] == 40
        assert set(doc) == {"n", "support", "iterations", "profile", "is_sub_equilibrium"}
        assert doc["profile"]["count"] == len(doc["profile"]["indices"])
        assert doc["is_sub_equilibrium"] is True

    def test_missing_file_exits_one(self, capsys, tmp_path):
        contest = tmp_path / "contest.json"
        contest.write_text(json.dumps(CONTEST_DOC))
        code, _, err = run(
            capsys,
            ["hetero-eq", "--dist", str(tmp_path / "nope.json"),
             "--contest", str(contest), "--n", "6"],
        )
        assert code == 1 and "error" in err

    def test_rank_count_mismatch(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        contest = tmp_path / "contest.json"
        dist.write_text(json.dumps(RECT_DOC))
        contest.write_text(json.dumps(CONTEST_DOC))
        code, _, _ = run(
            capsys,
            ["hetero-eq", "--dist", str(dist), "--contest", str(contest), "--n", "5"],
        )
        assert code == 1

    def test_csv_rejected(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        contest = tmp_path / "contest.json"
        dist.write_text(json.dumps(RECT_DOC))
        contest.write_text(json.dumps(CONTEST_DOC))
        code, _, err = run(
            capsys,
            ["hetero-eq", "--dist", str(dist), "--contest", str(contest),
             "--n", "6", "--format", "csv"],
        )
        assert code == 1 and "unrecognized arguments: --format csv" in err


class TestApprox:
    def test_report_and_determinism(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(RECT_DOC))
        argv = ["approx", "--dist", str(dist), "--n", "6", "--prize", "1",
                "--m", "40", "--replicas", "200", "--seed", "9"]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        code, out2, _ = run(capsys, argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert {"wta", "contests", "ratio", "checks"} <= doc.keys()


class TestExampleObj:
    def test_runs_small(self, capsys):
        argv = ["example-obj", "--prize", "160", "--n", "200",
                "--eps", "0.01", "--seed", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["checks"]) == {
            "wta_max_exceeds_2",
            "spread_sum_geq_quarter",
            "spread_has_no_high_types",
            "top_heavy_sum_below_quarter",
        }

    def test_replicas_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["example-obj", "--replicas", "50"])
        assert code == 1 and out == ""
        assert err == "contest-forge: error: unrecognized arguments: --replicas 50\n"


class TestScalarBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compstat", "--n", "5", "--prize", "nan"],
            ["compstat", "--n", "5", "--prize", "-1"],
            ["poisson", "--prize", "inf", "--cost", "1"],
            ["approx", "--dist", "DIST", "--n", "6", "--prize", "nan"],
            ["approx", "--dist", "DIST", "--n", "6", "--prize", "inf"],
        ],
        ids=["compstat_nan_prize", "compstat_negative_prize", "poisson_inf_prize",
             "approx_nan_prize", "approx_inf_prize"],
    )
    def test_invalid_scalar_exits_one(self, capsys, tmp_path, argv):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(RECT_DOC))
        argv = [str(dist) if arg == "DIST" else arg for arg in argv]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == "" and err.startswith("contest-forge: error:")
        assert len(err.splitlines()) == 1


RECT_INF_DOC = {
    "kind": "rect_mixture",
    "components": [{"q": [0.0, "inf"], "c": [0.05, 0.3], "weight": 1.0}],
}

UNIFORM_DOC = {"kind": "uniform_quality", "a": 0.0, "b": 1.0}


def knots_doc(bad):
    """A piecewise CDF whose last knot quality is ``bad`` (written as NaN or Infinity)."""
    return {"kind": "piecewise_cdf", "knots": [[0.0, 0.0], [0.5, 0.5], [bad, 1.0]]}


def points_doc(bad):
    """A finite support whose first quality is ``bad`` (written as NaN or Infinity)."""
    return {"kind": "empirical", "points": [[bad, 0.1, 0.5], [0.5, 0.2, 0.5]]}


class TestInputBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--dist", "DIST", "--n", "6", "--prize", "1", "--seed", "-1"],
            ["example-obj", "--seed", "-1"],
            ["hetero-eq", "--dist", "DIST", "--contest", "CONTEST", "--n", "6",
             "--seed", "-1"],
            ["scan", "--vc-min", "100", "--vc-max", "100", "--n-factor", "nan"],
            ["scan", "--vc-min", "inf", "--vc-max", "inf"],
            ["poisson", "--prize", "1e300", "--cost", "1e-300"],
            ["approx", "--dist", "INF_DIST", "--n", "6", "--prize", "1"],
            ["example-obj", "--n", "0"],
            ["example-obj", "--n", "10"],
            ["example-obj", "--n", "80"],
            ["example-obj", "--prize", "nan"],
            ["example-obj", "--prize", "inf"],
            ["compstat", "--n", "1000000", "--prize", "1"],
            ["design", "--n", "100000000", "--prize", "1e9", "--cost", "1"],
            ["scan", "--vc-min", "1e7", "--vc-max", "1e7", "--steps", "1"],
            ["approx", "--dist", "DIST", "--n", "100000000", "--prize", "1"],
            ["example-obj", "--n", "100000000"],
            ["approx", "--dist", "UNIFORM_DIST", "--n", "6", "--prize", "1"],
            ["hetero-eq", "--dist", "UNIFORM_DIST", "--contest", "CONTEST", "--n", "6"],
            ["design", "--n", "5", "--prize", "1", "--cost", "0.4", "--dist", "NAN_KNOTS"],
            ["design", "--n", "5", "--prize", "1", "--cost", "0.4", "--dist", "INF_KNOTS"],
            ["approx", "--dist", "NAN_POINTS", "--n", "6", "--prize", "1"],
            ["approx", "--dist", "INF_POINTS", "--n", "6", "--prize", "1"],
            ["hetero-eq", "--dist", "NAN_POINTS", "--contest", "CONTEST", "--n", "6"],
            ["hetero-eq", "--dist", "INF_POINTS", "--contest", "CONTEST", "--n", "6"],
            ["design", "--n", "5", "--prize", "1", "--cost", "0.4", "--dist", "DIST"],
        ],
        ids=["approx_negative_seed", "example_obj_negative_seed",
             "hetero_eq_negative_seed", "scan_nan_n_factor", "scan_inf_scale",
             "poisson_overflowing_scale", "rect_inf_edge",
             "example_obj_zero_n", "example_obj_n_below_floor_plus_ten",
             "example_obj_n_below_spread", "example_obj_nan_prize",
             "example_obj_inf_prize", "compstat_population_too_large",
             "design_population_too_large", "scan_population_too_large",
             "approx_population_too_large", "example_obj_population_too_large",
             "approx_quality_marginal", "hetero_eq_quality_marginal",
             "design_nan_knot", "design_inf_knot", "approx_nan_support",
             "approx_inf_support", "hetero_eq_nan_support", "hetero_eq_inf_support",
             "design_joint_law"],
    )
    def test_rejected_with_one_line(self, capsys, tmp_path, argv):
        files = {"DIST": RECT_DOC, "CONTEST": CONTEST_DOC, "INF_DIST": RECT_INF_DOC,
                 "UNIFORM_DIST": UNIFORM_DOC, "NAN_KNOTS": knots_doc(math.nan),
                 "INF_KNOTS": knots_doc(math.inf), "NAN_POINTS": points_doc(math.nan),
                 "INF_POINTS": points_doc(math.inf)}
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{arg}.json") if arg in files else arg for arg in argv]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == "" and err.startswith("contest-forge: error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestSizeLimits:
    """Sizes past a documented limit are refused before anything of that size
    is built: the whole run allocates under 16 MiB."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--vc-min", "100", "--vc-max", "1000", "--steps", "10000000000"],
            ["design", "--n", "100000000000000000000", "--prize", "1e9", "--cost", "1"],
            ["scan", "--vc-min", "100", "--vc-max", "100", "--n-factor", "1e300"],
            ["scan", "--vc-min", "1e10", "--vc-max", "1e10", "--n-factor", "1e300"],
            ["hetero-eq", "--dist", "DIST", "--contest", "CONTEST", "--n", "6",
             "--m", "10000000000"],
            ["approx", "--dist", "DIST", "--n", "6", "--prize", "1", "--m", "10000000000"],
            ["approx", "--dist", "DIST", "--n", "1000000", "--prize", "1000000"],
        ],
        ids=["scan_too_many_steps", "design_n_beyond_int64", "scan_huge_n_factor",
             "scan_n_factor_overflows", "hetero_eq_support_too_large",
             "approx_support_too_large", "approx_too_many_contests"],
    )
    def test_rejected_before_allocating(self, capsys, tmp_path, argv):
        for name, doc in {"DIST": RECT_DOC, "CONTEST": CONTEST_DOC}.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{arg}.json") if arg in ("DIST", "CONTEST") else arg
                for arg in argv]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == "" and err.startswith("contest-forge: error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert peak < 16 * 2**20


class TestPlumbing:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, ["design", "--n", "5", "--prize", "1",
                                    "--cost", "0.4", "--bogus"])
        assert code == 1 and "error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, ["poisson", "--cost", "0.5", "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["j_star"] == 1

    def test_format_only_where_there_is_a_choice(self):
        subcommands = _build_parser()._subparsers._group_actions[0].choices
        with_format = {name for name, sub in subcommands.items()
                       if "--format" in sub._option_string_actions}
        assert with_format == {"design", "compstat", "poisson", "scan"}

    def test_reruns_byte_identical(self, capsys):
        for argv in (
            ["design", "--n", "7", "--prize", "2", "--cost", "0.9"],
            ["compstat", "--n", "12"],
            ["poisson", "--prize", "3", "--cost", "0.2"],
            ["scan", "--vc-min", "50", "--vc-max", "500", "--steps", "4"],
        ):
            _, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert first == second and first != ""
