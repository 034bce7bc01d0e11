"""Command-line behavior: dispatch, exit codes, output formats."""

from __future__ import annotations

import io
import json
import os

import pytest

from powerdom.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
TREE = os.path.join(DATA, "toy_tree.edges")
CACTUS = os.path.join(DATA, "toy_cactus.edges")
BRIDGE = os.path.join(DATA, "toy_bridge.edges")


def run(*argv: str, stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err, stdin=io.StringIO(stdin))
    return code, out.getvalue(), err.getvalue()


class TestSolve:
    def test_auto_on_cactus(self):
        code, out, err = run("solve", CACTUS, "--problem", "cpd")
        assert code == 0 and err == ""
        assert "optimum: 1" in out
        assert "method: cactus" in out

    def test_json_matches_text(self):
        code, out, _ = run("solve", TREE, "--problem", "cpd", "--json")
        record = json.loads(out)
        assert record["optimum"] == 2
        assert record["witness"] == ["c1", "c2"]
        code2, text_out, _ = run("solve", TREE, "--problem", "cpd")
        assert f"optimum: {record['optimum']}" in text_out
        assert "witness: c1 c2" in text_out

    def test_milp_method(self):
        code, out, _ = run("solve", BRIDGE, "--problem", "cpd", "--method", "milp",
                           "--budget-bin", "90")
        assert code == 0
        assert "optimum: 2" in out and "method: milp" in out

    def test_milp_method_models_the_problem_asked(self):
        # two stars joined through x: {c1, c2} power dominates, but only
        # {c1, x, c2} is also connected
        stars = "c1 l1\nc1 l2\nc1 x\nx c2\nc2 l3\nc2 l4\n"
        for problem, optimum, witness in (("pd", 2, "c1 c2"), ("cpd", 3, "c1 x c2")):
            code, out, _ = run("solve", "-", "--problem", problem, "--method", "milp",
                               "--budget-bin", "90", stdin=stars)
            assert code == 0
            assert f"optimum: {optimum}\nwitness: {witness}\nmethod: milp\n" == out

    def test_stdin_input(self):
        code, out, _ = run("solve", "-", "--problem", "pd", stdin="a b\nb c\n")
        assert code == 0 and "optimum: 1" in out

    def test_horizon_flag_requires_milp(self):
        code, _, err = run("solve", TREE, "--T", "3")
        assert code == 1 and "usage error" in err

    def test_trace_flag(self):
        code, out, _ = run("solve", TREE, "--trace")
        assert code == 0 and "[dominate]" in out

    def test_missing_file(self):
        code, _, err = run("solve", "no_such_file.edges")
        assert code == 1

    def test_parse_error_exit_code(self):
        code, _, err = run("solve", "-", stdin="a b c\n")
        assert code == 1 and "parse error" in err

    def test_disconnected_is_infeasible(self):
        code, _, err = run("solve", "-", "--problem", "cpd", stdin="a b\nc d\n")
        assert code == 2 and "infeasible" in err

    def test_budget_exit_code(self):
        big = "\n".join(f"v{i} v{i + 1}" for i in range(30))
        code, _, err = run("solve", "-", "--problem", "pd", "--method", "brute",
                           "--budget-n", "5", stdin=big)
        assert code == 2

    def test_budget_env_override(self, monkeypatch):
        big = "\n".join(f"v{i} v{i + 1}" for i in range(26))
        monkeypatch.setenv("POWERDOM_BUDGET_N", "10")
        code, _, _ = run("solve", "-", "--problem", "pd", "--method", "brute", stdin=big)
        assert code == 2
        monkeypatch.setenv("POWERDOM_BUDGET_N", "40")
        code, out, _ = run("solve", "-", "--problem", "pd", "--method", "brute", stdin=big)
        assert code == 0 and "optimum: 1" in out

    def test_all_optima_listing(self):
        code, out, _ = run("solve", "-", "--problem", "cpd", "--method", "brute",
                           "--all-optima", stdin="a b\nb c\nc a\n")
        assert code == 0 and "optima: 3" in out


class TestCheck:
    def test_valid_set(self):
        code, out, _ = run("check", TREE, "--set", "c1,c2")
        assert code == 0 and "valid for cpd: yes" in out

    def test_invalid_set(self):
        code, out, _ = run("check", TREE, "--set", "l1")
        assert code == 2 and "valid for cpd: no" in out

    def test_disconnected_set_fails_cpd_passes_pd(self):
        code, out, _ = run("check", CACTUS, "--set", "v1,v4", "--problem", "cpd")
        assert code == 2
        code, out, _ = run("check", CACTUS, "--set", "v1,v4", "--problem", "pd")
        assert code == 0

    def test_solve_witness_passes_check(self):
        _, out, _ = run("solve", CACTUS, "--problem", "cpd", "--json")
        witness = json.loads(out)["witness"]
        code, _, _ = run("check", CACTUS, "--set", ",".join(witness))
        assert code == 0


class TestPpt:
    def test_brute(self):
        code, out, _ = run("ppt", CACTUS)
        assert code == 0 and out == "ppt: 4\n"

    def test_milp_agrees(self):
        _, brute_out, _ = run("ppt", CACTUS)
        _, milp_out, _ = run("ppt", CACTUS, "--method", "milp", "--budget-bin", "90")
        assert brute_out == milp_out


class TestSpreadCommand:
    def test_subdivide(self):
        code, out, _ = run("spread", CACTUS, "--op", "subdivide-edge",
                           "--target", "v2,v3")
        assert code == 0 and "spread: 0" in out

    def test_delete_vertex_usage(self):
        code, _, err = run("spread", CACTUS, "--op", "delete-vertex",
                           "--target", "v1,v2")
        assert code == 1


class TestModelCommand:
    def test_lp_to_stdout(self):
        code, out, _ = run("model", TREE, "--problem", "pd", "--T", "5")
        assert code == 0
        assert out.startswith("\\ power_domination")
        assert "Minimize" in out and out.rstrip().endswith("End")

    def test_mps_to_file(self, tmp_path):
        target = tmp_path / "model.mps"
        code, out, _ = run("model", TREE, "--problem", "cpd", "--format", "mps",
                           "--out", str(target))
        assert code == 0 and out == ""
        content = target.read_text()
        assert content.startswith("NAME") and content.rstrip().endswith("ENDATA")


class TestGadgetCommand:
    def test_path_gadget_round_trips(self):
        code, out, _ = run("gadget", "--kind", "path-spread", "--c", "2")
        assert code == 0
        code2, solved, _ = run("solve", "-", "--problem", "cpd", stdin=out)
        assert code2 == 0 and "optimum: 1" in solved

    def test_zf_reduction_needs_input(self):
        code, _, err = run("gadget", "--kind", "zf-reduction")
        assert code == 1

    def test_zf_reduction_bound_comment(self):
        code, out, _ = run("gadget", "--kind", "zf-reduction", "--k", "2",
                           "--input", "-", stdin="a b\n")
        assert code == 0 and out.startswith("# connected power domination bound: 3")


class TestDecomposeCommand:
    def test_report(self):
        code, out, _ = run("decompose", BRIDGE)
        assert code == 0
        assert "mandatory: u w" in out
        assert "optimum: 2" in out


class TestBatch:
    def test_table_shape(self):
        code, out, _ = run("batch", TREE, CACTUS, BRIDGE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + one row per file
        assert lines[0].split()[:3] == ["name", "n", "m"]
        assert lines[1].split()[0] == "toy_tree"

    def test_json_lines(self):
        code, out, _ = run("batch", TREE, CACTUS, "--json")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["name"] for r in rows] == ["toy_tree", "toy_cactus"]
        assert rows[1]["gamma_pc"] == 1 and rows[1]["ppt"] == 4

    def test_failure_marked_and_run_continues(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b c\n")
        code, out, err = run("batch", str(bad), TREE)
        assert code == 0
        assert "toy_tree" in out and "bad" in out
        assert err != ""

    def test_times_flag_adds_column(self):
        code, out, _ = run("batch", TREE, "--times")
        assert code == 0 and "time_s" in out.splitlines()[0]

    @pytest.mark.parametrize("extra,want", [((), [True]), (("--skip-ppt",), [False]),
                                            (("--problems", "cpd"), [True])])
    def test_one_pd_search_per_graph(self, monkeypatch, extra, want):
        from powerdom import exact

        searches = []
        search = exact.min_pds

        def counting(g, budget=exact.DEFAULT_BUDGET, all_optima=False):
            searches.append(all_optima)
            return search(g, budget, all_optima)

        monkeypatch.setattr(exact, "min_pds", counting)
        code, out, _ = run("batch", TREE, "--json", *extra)
        assert code == 0 and searches == want


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", CACTUS, "--problem", "cpd", "--trace"),
            ("solve", BRIDGE, "--problem", "pd", "--json"),
            ("ppt", CACTUS),
            ("check", TREE, "--set", "c1,c2", "--trace"),
            ("model", TREE, "--problem", "cpd", "--format", "lp"),
            ("model", CACTUS, "--problem", "pd", "--format", "mps"),
            ("spread", CACTUS, "--op", "contract-edge", "--target", "v1,v2"),
            ("gadget", "--kind", "cycle-spread", "--c", "3"),
            ("decompose", BRIDGE, "--json"),
            ("batch", TREE, CACTUS, BRIDGE),
        ],
    )
    def test_byte_identical_stdout(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second and first[0] == 0


class TestErrorMapping:
    def test_unknown_label_is_usage_error(self):
        code, _, err = run("check", TREE, "--set", "nope")
        assert code == 1 and "usage error" in err

    def test_wrong_method_class_is_usage_error(self):
        code, _, err = run("solve", CACTUS, "--method", "tree")
        assert code == 1 and "usage error" in err


class TestBadInputNeverTracesBack:
    """Each bad input exits 1 with a single line on stderr."""

    @staticmethod
    def assert_one_line_usage_failure(result, needle):
        code, out, err = result
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and needle in err

    def test_non_integer_budget_env(self, monkeypatch):
        monkeypatch.setenv("POWERDOM_BUDGET_N", "abc")
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--method", "brute"), "POWERDOM_BUDGET_N")

    def test_input_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes("caf\xe9 b\n".encode("latin-1"))
        self.assert_one_line_usage_failure(run("solve", str(path)), "not UTF-8")

    def test_directory_as_input(self, tmp_path):
        self.assert_one_line_usage_failure(run("solve", str(tmp_path)), str(tmp_path))

    def test_directory_among_batch_inputs(self, tmp_path):
        self.assert_one_line_usage_failure(run("batch", TREE, str(tmp_path)),
                                           str(tmp_path))

    def test_negative_budget_n(self):
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--problem", "pd", "--budget-n", "-3"), "--budget-n")

    def test_negative_budget_seconds(self):
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--problem", "pd", "--budget-seconds", "-0.5"),
            "--budget-seconds")
