"""Command-line behavior: dispatch, exit codes, output formats."""

from __future__ import annotations

import errno
import io
import json
import os
import tracemalloc

import pytest

from powerdom import exact, milp
from powerdom import propagation as prop
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
        code, out, _ = run("solve", BRIDGE, "--problem", "cpd", "--method", "milp")
        assert code == 0
        assert "optimum: 2" in out and "method: milp" in out

    def test_milp_method_models_the_problem_asked(self):
        # two stars joined through x: {c1, c2} power dominates, but only
        # {c1, x, c2} is also connected
        stars = "c1 l1\nc1 l2\nc1 x\nx c2\nc2 l3\nc2 l4\n"
        for problem, optimum, witness in (("pd", 2, "c1 c2"), ("cpd", 3, "c1 x c2")):
            code, out, _ = run("solve", "-", "--problem", problem, "--method", "milp",
                               stdin=stars)
            assert code == 0
            assert f"optimum: {optimum}\nwitness: {witness}\nmethod: milp\n" == out

    def test_milp_method_on_a_model_with_48_binaries(self):
        c8 = "".join(f"c{i} c{(i + 1) % 8}\n" for i in range(8))
        code, out, err = run("solve", "-", "--problem", "cpd", "--method", "milp", stdin=c8)
        assert (code, err) == (0, "")
        assert out.startswith("optimum: 1\n")

    @pytest.mark.parametrize("problem", ["pd", "cpd"])
    def test_milp_method_with_rewritten_labels(self, problem):
        edges = "bus-1 bus.2\nbus.2 3/4\n3/4 bus-1\n3/4 x+y\nx+y a.b\na.b c/d\na.b e-f\n"
        code, out, err = run("solve", "-", "--problem", problem, "--method", "milp", "--trace",
                             stdin=edges)
        assert (code, err) == (0, "")
        _, brute, _ = run("solve", "-", "--problem", problem, "--method", "brute", stdin=edges)
        assert out.split("method:")[0] == brute.split("method:")[0]
        assert "-> c/d" in out and "-> e-f" in out

    @pytest.mark.parametrize("problem", ["pd", "cpd"])
    def test_milp_method_with_labels_that_clash_after_cleaning(self, problem):
        edges = "bus-1 bus.1\nbus.1 c\n"
        code, out, err = run("solve", "-", "--problem", problem, "--method", "milp", "--trace",
                             stdin=edges)
        assert (code, err) == (0, "")
        assert out == ("optimum: 1\nwitness: bus-1\nmethod: milp\ntrace:\n"
                       "  t=1 bus-1 -> bus.1 [dominate]\n  t=2 bus.1 -> c [force]\n")

    @pytest.mark.parametrize("problem", ["pd", "cpd"])
    def test_milp_method_certifies_the_decoded_trace(self, monkeypatch, problem):
        decode = milp.decode_assignment

        def drop_last_force(model, assignment):
            chosen, trace = decode(model, assignment)
            forces = trace.forces[:-1]
            final = tuple(sorted(set(chosen) | {f.target for f in forces}))
            return chosen, prop.PropagationTrace(chosen, forces, final)

        monkeypatch.setattr(milp, "decode_assignment", drop_last_force)
        code, out, err = run("solve", TREE, "--problem", problem, "--method", "milp")
        assert (code, out) == (2, "")
        assert err == "error: method milp produced a non power dominating set\n"

    def test_milp_method_certifies_connectivity(self, monkeypatch):
        def pd_witness(model, assignment):
            result = exact.min_pds(model.meta["graph"])
            return result.witness, result.trace

        monkeypatch.setattr(milp, "decode_assignment", pd_witness)
        stars = "c1 l1\nc1 l2\nc1 x\nx c2\nc2 l3\nc2 l4\n"
        code, out, err = run("solve", "-", "--problem", "cpd", "--method", "milp", stdin=stars)
        assert (code, out, err) == (2, "", "error: method milp produced a disconnected set\n")

    def test_milp_method_obeys_the_vertex_budget(self):
        for argv in (("solve", TREE, "--method", "milp"), ("ppt", TREE, "--method", "milp")):
            code, out, err = run(*argv, "--budget-n", "3")
            assert (code, out) == (2, "")
            assert err == "infeasible: graph has 6 vertices, budget allows 3\n"

    @staticmethod
    def _run_traced(*argv: str, stdin: str) -> tuple[tuple[int, str, str], int]:
        """``run``'s result and the peak of memory traced while it ran."""
        tracemalloc.start()
        try:
            return run(*argv, stdin=stdin), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_milp_method_refuses_a_graph_over_budget_before_any_row(self):
        """A star's model has a watch row per path through its center, so it
        grows with the squared degree; the vertex budget refuses the graph
        before any row is built (this star's rows took over 200 MB)."""
        star = "".join(f"c l{i}\n" for i in range(800))
        for argv in (("solve", "-", "--method", "milp"), ("ppt", "-", "--method", "milp")):
            result, peak = self._run_traced(*argv, stdin=star)
            assert result == (2, "", "infeasible: graph has 801 vertices, budget allows 24\n")
            assert peak < 8 * 2**20

    def test_decomposition_refuses_an_oversized_piece_before_its_masks(self):
        """A wheel with a leaf on its hub is one general piece of n + 2
        vertices; it is refused before any of them gets a bit of the piece's
        neighbor masks, which grow with the square of the piece."""
        rim = 20000
        wheel = "".join(f"h r{i}\nr{i} r{(i + 1) % rim}\n" for i in range(rim)) + "h x\n"
        result, peak = self._run_traced("solve", "-", "--problem", "cpd", stdin=wheel)
        assert result == (2, "", f"infeasible: graph has {rim + 2} vertices, budget allows 24\n")
        assert peak < 30 * 2**20

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

    @pytest.mark.parametrize("method", ["auto", "tree", "block", "cactus", "decompose",
                                        "brute", "milp"])
    def test_every_method_finds_a_disconnected_graph_infeasible(self, method):
        """A path and a triangle apart: every method refuses the graph as
        infeasible, with exit 2 and one line, before any class check."""
        code, out, err = run("solve", "-", "--method", method, stdin="a b\nb c\nd e\ne f\nf d\n")
        assert (code, out) == (2, "")
        assert err.startswith("infeasible: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_budget_exit_code(self):
        big = "\n".join(f"v{i} v{i + 1}" for i in range(30))
        code, _, err = run("solve", "-", "--problem", "pd", "--method", "brute",
                           "--budget-n", "5", stdin=big)
        assert code == 2

    def test_budget_n_override(self, monkeypatch):
        big = "\n".join(f"v{i} v{i + 1}" for i in range(26))
        solve = ("solve", "-", "--problem", "pd", "--method", "brute")
        code, _, _ = run(*solve, "--budget-n", "10", stdin=big)
        assert code == 2
        code, out, _ = run(*solve, "--budget-n", "40", stdin=big)
        assert code == 0 and "optimum: 1" in out
        # the environment sets no budget: the default cap still holds
        monkeypatch.setenv("POWERDOM_BUDGET_N", "40")
        code, _, err = run(*solve, stdin=big)
        assert code == 2 and "budget allows 24" in err

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

    def test_repeated_label_is_refused(self):
        assert run("check", TREE, "--set", "c1,c2,c1") == (
            1, "", "usage error: repeated vertex label 'c1'\n")


class TestPpt:
    def test_brute(self):
        code, out, _ = run("ppt", CACTUS)
        assert code == 0 and out == "ppt: 4\n"

    def test_milp_agrees(self):
        _, brute_out, _ = run("ppt", CACTUS)
        _, milp_out, _ = run("ppt", CACTUS, "--method", "milp")
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

    @pytest.mark.parametrize("op", ["delete-edge", "contract-edge", "subdivide-edge"])
    def test_non_edge_is_named_by_its_labels(self, op):
        assert run("spread", "-", "--op", op, "--target", "a,d",
                   stdin="a b\nb c\nc a\nc d\n") == (1, "", "usage error: no edge a,d\n")

    def test_cut_edge_is_named_by_its_labels(self):
        assert run("spread", "-", "--op", "delete-edge", "--target", "c,d",
                   stdin="a b\nb c\nc a\nc d\n") == (
            1, "", "usage error: edge c,d is a cut edge; deletion disconnects\n")

    def test_method_and_budget_reach_both_solves(self):
        """brute enumerates even a tree, under the vertex budget; auto solves
        the tree structurally, whatever the budget."""
        args = ("spread", TREE, "--op", "subdivide-edge", "--target", "c1,c2")
        assert run(*args, "--method", "brute", "--budget-n", "6") == (
            2, "", "infeasible: graph has 7 vertices, budget allows 6\n")
        code, out, _ = run(*args, "--method", "auto", "--budget-n", "3")
        assert code == 0 and "spread: 1" in out


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

    def test_a_hubs_leaves_stay_out_of_its_pieces(self):
        """Three diamonds and 21 leaves on one hub: each piece is a diamond
        of 4 vertices, the size the default budget of 24 is checked at."""
        edges = [f"h l{j}" for j in range(21)]
        for i in range(3):
            edges += [f"h a{i}", f"h b{i}", f"a{i} b{i}", f"a{i} c{i}", f"b{i} c{i}"]
        code, out, err = run("decompose", "-", "--json", stdin="\n".join(edges) + "\n")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert [block["size"] for block in record["blocks"]] == [4] * 3
        assert (record["optimum"], record["witness"]) == (1, ["h"])


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

    ONE = [exact.DEFAULT_BUDGET]

    @pytest.mark.parametrize("extra,want", [((), ONE), (("--skip-ppt",), ONE),
                                            (("--problems", "cpd"), ONE),
                                            (("--problems", "cpd", "--skip-ppt"), [])])
    def test_one_pd_search_per_graph(self, monkeypatch, extra, want):
        """The budget of each min_pds call: one call per graph that needs
        gamma_P or the ppt, none for --problems cpd --skip-ppt."""
        searches = []
        search = exact.min_pds

        def counting(g, budget=exact.DEFAULT_BUDGET):
            searches.append(budget)
            return search(g, budget)

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

    def test_input_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes("caf\xe9 b\n".encode("latin-1"))
        self.assert_one_line_usage_failure(run("solve", str(path)), "not UTF-8")

    def test_directory_as_input(self, tmp_path):
        self.assert_one_line_usage_failure(run("solve", str(tmp_path)), str(tmp_path))

    def test_directory_among_batch_inputs(self, tmp_path):
        self.assert_one_line_usage_failure(run("batch", TREE, str(tmp_path)),
                                           str(tmp_path))

    @pytest.mark.parametrize("vertex_set", ["", ","])
    def test_check_of_an_empty_set(self, vertex_set):
        self.assert_one_line_usage_failure(run("check", TREE, "--set", vertex_set),
                                           f"--set {vertex_set!r} names no vertex")

    @pytest.mark.parametrize("problems", ["", ",,"])
    def test_batch_without_a_problem(self, problems):
        self.assert_one_line_usage_failure(run("batch", TREE, "--problems", problems),
                                           f"--problems {problems!r} names no problem")

    def test_negative_budget_n(self):
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--problem", "pd", "--budget-n", "-3"), "--budget-n")

    def test_budget_bin_is_not_an_option(self):
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--method", "milp", "--budget-bin", "90"), "--budget-bin")

    def test_negative_zero_forcing_bound(self):
        self.assert_one_line_usage_failure(
            run("gadget", "--kind", "zf-reduction", "--k", "-3", "--input", TREE),
            "zero forcing bound must be at least 0")

    def test_negative_budget_seconds(self):
        self.assert_one_line_usage_failure(
            run("solve", TREE, "--problem", "pd", "--budget-seconds", "-0.5"),
            "argument --budget-seconds: must be at least 0: '-0.5'")

    @pytest.mark.parametrize("value", ["0.5", "2", "1e3"])
    def test_budget_seconds_reads_a_decimal(self, value):
        code, out, err = run("solve", TREE, "--problem", "pd", "--budget-seconds", value)
        assert (code, err) == (0, "") and out.startswith("optimum: ")

    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for command in (("model", TREE), ("gadget", "--kind", "path-spread"))
        for flag in ("--json", "--budget-n=0", "--budget-seconds=1")
    ] + [(("check", TREE, "--set", "c1,c2"), flag)
         for flag in ("--budget-n=0", "--budget-seconds=1")
    ] + [pytest.param(("gadget", "--kind", kind), f"--input={TREE}", id=f"{kind}---input")
         for kind in ("path-spread", "cycle-spread")])
    def test_flag_the_command_does_not_read(self, command, flag):
        self.assert_one_line_usage_failure(run(*command, flag), flag)

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "path-spread", "--k", "3"), "--k=3 applies to zf-reduction only"),
        (("--kind", "cycle-spread", "--k", "1"), "--k=1 applies to zf-reduction only"),
        (("--kind", "zf-reduction", "--input", TREE, "--c", "9"),
         "--c=9 applies to path-spread and cycle-spread only"),
    ])
    def test_gadget_parameter_of_the_other_kind(self, argv, message):
        assert run("gadget", *argv) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("--method", "milp"),
        ("--problem", "pd", "--method", "milp"),
        (),
        ("--method", "tree"),
        ("--method", "block"),
        ("--method", "cactus"),
        ("--method", "decompose"),
    ])
    def test_all_optima_outside_the_brute_method(self, argv):
        self.assert_one_line_usage_failure(run("solve", TREE, "--all-optima", *argv),
                                           "--all-optima applies to the brute method only")

    def test_model_output_in_a_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "x.lp"
        self.assert_one_line_usage_failure(run("model", TREE, "--out", str(target)),
                                           f"cannot write {target}: ")

    def test_closed_stdout_is_a_write_error(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        code = main(["solve", TREE, "--trace"], stdout=ClosedPipe(), stderr=err)
        assert (code, err.getvalue()) == (1, "cannot write output: Broken pipe\n")
