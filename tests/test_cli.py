import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolcomb.boolfn import BooleanFunction
from boolcomb.cli import _SUBCOMMANDS, _parser, main
from boolcomb.errors import MalformedInput
from boolcomb.extremal import hnk
from boolcomb.gformats import (
    edgelist_text_to_graph,
    emit_graph,
    graph6_to_graph,
    graph_to_edgelist_text,
    graph_to_graph6,
    parse_graph,
)
from boolcomb.graphs import MAX_VERTICES, Graph, apply_boolean

from conftest import isomorphic, random_graph


class TestGraph6:
    def test_k1_and_k2(self):
        assert graph_to_graph6(Graph.complete(1)) == "@"
        assert graph_to_graph6(Graph.complete(2)) == "A_"

    def test_against_reference_encoder(self, rng):
        for _ in range(150):
            n = rng.randint(0, 20)
            g = random_graph(n, rng.random(), rng)
            mine = graph_to_graph6(g)
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(n))
            ref_graph.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
            assert mine == ref

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 20), st.randoms())
    def test_roundtrip_property(self, n, rnd):
        mask = rnd.getrandbits(n * (n - 1) // 2) if n > 1 else 0
        g = Graph.from_edge_mask(n, mask)
        assert graph6_to_graph(graph_to_graph6(g)).rows == g.rows

    def test_roundtrip_1000_random_graphs(self, rng):
        for _ in range(1000):
            g = random_graph(rng.randint(0, 20), rng.random(), rng)
            assert graph6_to_graph(graph_to_graph6(g)).rows == g.rows

    def test_malformed_inputs_carry_offsets(self):
        with pytest.raises(MalformedInput) as exc:
            graph6_to_graph("")
        assert exc.value.offset == 0
        with pytest.raises(MalformedInput):
            graph6_to_graph("~??")  # long form cut short
        with pytest.raises(MalformedInput) as exc:
            graph6_to_graph("D" + chr(200) + "?")
        assert exc.value.offset == 1
        with pytest.raises(MalformedInput):
            graph6_to_graph("D?")  # too short for n = 5


class TestGraph6LongForm:
    @pytest.mark.parametrize("n", [62, 63, 64, 130])
    def test_against_reference_encoder(self, rng, n):
        g = random_graph(n, rng.random(), rng)
        ref_graph = nx.Graph()
        ref_graph.add_nodes_from(range(n))
        ref_graph.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
        assert graph_to_graph6(g) == ref
        assert graph6_to_graph(ref).rows == g.rows

    def test_hnk_4_3_roundtrip(self, capsys):
        g = hnk(4, 3)
        assert graph6_to_graph(graph_to_graph6(g)).rows == g.rows
        assert main(["hnk", "4", "3"]) == 0
        assert graph6_to_graph(capsys.readouterr().out.strip()).rows == g.rows

    def test_rejects_non_canonical_and_wide_forms(self):
        short = graph_to_graph6(Graph.cycle(5))  # 'D' + 2 bytes
        with pytest.raises(MalformedInput, match="non-canonical"):
            graph6_to_graph("~??" + chr(5 + 63) + short[1:])
        with pytest.raises(MalformedInput, match="'~~'"):
            graph6_to_graph("~~" + "?" * 6)

    def test_every_graph_fits_the_long_form(self):
        # graph_to_graph6 has no cap of its own: an 18-bit n holds every Graph
        assert MAX_VERTICES <= (1 << 18) - 1


class TestEdgeList:
    def test_roundtrip_and_sorted_output(self, rng):
        g = random_graph(9, 0.5, rng)
        text = graph_to_edgelist_text(g)
        lines = text.strip().splitlines()
        assert lines[0] == f"9 {g.edge_count}"
        pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        assert pairs == sorted(pairs)
        assert edgelist_text_to_graph(text).rows == g.rows

    def test_header_mismatch(self):
        with pytest.raises(MalformedInput):
            edgelist_text_to_graph("2 5\n0 1\n")

    @pytest.mark.parametrize("repeat", ["1 0", "0 1"])
    def test_repeated_edge_is_malformed(self, repeat):
        # the second line starts at byte 8, in either orientation
        with pytest.raises(MalformedInput, match=r"repeated edge .*byte offset 8") as info:
            edgelist_text_to_graph(f"3 2\n0 1\n{repeat}\n")
        assert info.value.offset == 8

    def test_parse_emit_dispatch(self):
        g = Graph.cycle(5)
        assert parse_graph(emit_graph(g, "graph6"), "graph6").rows == g.rows
        assert parse_graph(emit_graph(g, "edgelist"), "edgelist").rows == g.rows

    @pytest.mark.parametrize("fmt", ["dot", "Graph6", ""])
    def test_unknown_format_is_refused_both_ways(self, fmt):
        with pytest.raises(MalformedInput) as info:
            parse_graph("Dhc", fmt)
        assert type(info.value) is MalformedInput and info.value.offset is None
        assert str(info.value) == f"unknown graph format {fmt!r}"
        with pytest.raises(MalformedInput) as info:
            emit_graph(Graph.cycle(5), fmt)
        assert type(info.value) is MalformedInput and info.value.offset is None
        assert str(info.value) == f"unknown graph format {fmt!r}"


class TestCli:
    def test_params_k5(self, capsys):
        code = main(["params", graph_to_graph6(Graph.complete(5))])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["omega"] == 5 and data["chi"] == 5 and data["alpha"] == 1

    def test_params_reads_graph6_from_stdin(self, capsys, monkeypatch):
        assert main(["params", "D~{"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO("  D~{\n"))
        assert main(["params", "-"]) == 0
        assert capsys.readouterr().out == expected

    def test_params_reads_an_edge_list_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph_to_edgelist_text(Graph.cycle(5))))
        assert main(["params", "-", "--format", "edgelist"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["omega"], data["alpha"], data["chi"], data["perfect"]) == (2, 2, 3, False)

    def test_hnk_22_is_c4(self, capsys):
        assert main(["hnk", "2", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert isomorphic(graph6_to_graph(out), Graph.cycle(4))

    def test_combine_fn(self, capsys):
        g6 = graph_to_graph6(Graph.cycle(5))
        k6 = graph_to_graph6(Graph.complete(5))
        assert main(["combine", "--op", "xor", g6, k6]) == 0
        out = capsys.readouterr().out.strip()
        from boolcomb.graphs import complement

        assert graph6_to_graph(out).rows == complement(Graph.cycle(5)).rows

    def test_verify_single_check(self, capsys):
        assert main(["verify", "empty-characterization", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is True
        assert payload[0]["seed"] == 7

    def test_verify_unknown_exits_2(self, capsys):
        assert main(["verify", "bogus"]) == 2

    def test_booldim_subcommand(self, capsys):
        target = graph_to_graph6(Graph.cycle(5))
        assert main(["booldim", "--target", target, "--class", "equiv", "--kmax", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"found": False, "exhausted_k": 2}
        assert (
            main(["booldim", "--target", target, "--class", "equiv", "--kmax", "3", "--mode", "xor"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True and data["k"] == 3

    def test_decompose_vizing(self, capsys):
        g6 = graph_to_graph6(Graph.cycle(6))
        assert main(["decompose", "--method", "vizing", g6]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certified"] is True
        assert all(tag == "d1" for _, tag in data["parts"])

    @pytest.mark.parametrize("method", ["vizing", "twin", "classL"])
    def test_decompose_single_graph_methods_refuse_several(self, capsys, method):
        assert main(["decompose", "--method", method, "D~{", "Dhc"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert method in err and "2" in err

    def test_decompose_class_l_empty_graph(self, capsys):
        assert main(["decompose", "--method", "classL", "?"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["f"] == "0:0x0" and data["parts"] == []

    def test_decompose_xornf(self, capsys):
        h1 = Graph.from_edges(4, [(0, 1), (2, 3)])
        h2 = Graph.from_edges(4, [(1, 2)])
        argv = ["decompose", "--method", "xornf", "--fn", "2:0xe", "--class", "d1"]
        assert main(argv + [graph_to_graph6(h1), graph_to_graph6(h2)]) == 0
        data = json.loads(capsys.readouterr().out)
        _validate(data, "decomposition.schema.json")
        assert data["alpha"] == 0
        assert data["f"] == "3:0x96"  # the parity of the three parts
        parts = [graph6_to_graph(g6) for g6, _ in data["parts"]]
        f = BooleanFunction.from_text(data["f"])
        assert f.arity == len(parts) == 3
        target = apply_boolean(BooleanFunction.from_text("2:0xe"), [h1, h2])
        assert apply_boolean(f, parts).rows == target.rows

    def test_decompose_xornf_arity_mismatch_exits_2(self, capsys):
        argv = ["decompose", "--method", "xornf", "--fn", "2:0x6", "D??"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "function arity 2 but 1 graphs" in err

    def test_decompose_pcseq(self, capsys):
        h1 = graph_to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))
        h2 = graph_to_graph6(Graph.from_edges(4, [(1, 2), (0, 3)]))
        assert main(["decompose", "--method", "pcseq", h1, h2]) == 0
        blocks = json.loads(capsys.readouterr().out)
        assert blocks == [[[0, 1], [2, 3]], [[0, 3], [1, 2]]]

    def test_hnk_report(self, capsys):
        assert main(["hnk", "2", "2", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["omega"] == 2 and data["chi"] == 2
        assert data["chi_is_exact"] is True

    def test_hnk_report_at_the_clique_cap(self, capsys):
        # 64 vertices: omega and alpha are exact, chi falls back to the
        # counting bound past the chromatic cap
        assert main(["hnk", "4", "3", "--report"]) == 0
        assert capsys.readouterr().out == (
            '{"alpha": 6, "alpha_bound": 12.0, "chi": 11, "chi_is_exact": false, '
            '"chi_lower": 11, "k": 3, "n": 4, "omega": 4, "omega_bound": 21.74625462767236}\n'
        )

    def test_hnk_report_past_the_clique_cap(self, capsys):
        # 125 vertices: the solver fields print null, the bounds are kept
        assert main(["hnk", "5", "3", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [data[key] for key in ("omega", "alpha", "chi_lower", "chi")] == [None] * 4
        assert (data["omega_bound"], data["alpha_bound"]) == (pytest.approx(27.18281828459045), 15.0)
        assert data["chi_is_exact"] is False

    def test_hnk_report_at_k_zero_with_a_huge_n(self, capsys):
        # n^0 = 1 passes the cap; n itself is past the float range
        n = 10**400
        assert main(["hnk", str(n), "0", "--report"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert (data["n"], data["omega"], data["alpha"], data["chi"]) == (n, 1, 1, 1)
        assert (data["omega_bound"], data["alpha_bound"]) == (0.0, 1.0)

    @pytest.mark.parametrize("argv", [
        ["hnk", "1", "2000", "--report"],
        ["hnk", "0", "13"],
        ["hnk", "1", "13"],
        ["hnk", "0", "13", "--report"],
        ["hnk", "1", "13", "--report"],
    ])
    def test_hnk_k_past_twelve_is_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: k = {argv[2]} exceeds 12, the largest k with 2^k <= 4096\n"

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--class", "equiv", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 15
        assert len(set(lines)) == 15

    @pytest.mark.parametrize("tag", ["equiv", "multipartite", "C", "L", "d1", "ek:1", "complete", "empty"])
    def test_enumerate_negative_n_is_a_usage_error(self, tag, capsys):
        assert main(["enumerate", "--class", tag, "--n", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_booldim_negative_budget_is_a_usage_error(self, capsys):
        target = graph_to_graph6(Graph.cycle(4))
        for mode in ([], ["--mode", "xor"], ["--mode", "union"]):
            argv = ["booldim", "--target", target, "--class", "equiv", "--kmax", "2", "--budget", "-1"]
            assert main([*argv, *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: budget must be >= 0, got -1\n"

    def test_booldim_negative_kmax_is_a_usage_error(self, capsys):
        target = graph_to_graph6(Graph.cycle(4))
        for mode in ([], ["--mode", "xor"]):
            assert main(["booldim", "--target", target, "--class", "equiv", "--kmax", "-1", *mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "Traceback" not in captured.err

    def test_label_subcommand(self, capsys):
        g6 = graph_to_graph6(parse_graph("E???", "graph6"))  # empty graph on 6 vertices
        assert main(["label", "--fn", "2:0x6", g6, g6]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheme"]["label_bits"] == 8 + 4 + 2 * 3
        assert len(data["labels"]) == 6

    @pytest.mark.parametrize("n", [2**62, 10**30])
    def test_huge_edgelist_header_is_a_usage_error(self, n, capsys):
        assert main(["params", "--format", "edgelist", f"{n} 0\n"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vertex count {n} outside [0, 65536]\n"

    def test_usage_error_exit_2(self):
        assert main(["params"]) == 2

    def test_malformed_graph_exit_2(self, capsys):
        assert main(["params", "~~~~"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# help and usage errors: each about one subcommand, or about the command itself
PARSER_CASES = [
    *([name, "--help"] for name in _SUBCOMMANDS),
    ["--help"],
    [],
    ["nope"],
    ["verify", "x", "extra"],
    ["verify", "--seed"],
    ["params"],
    ["params", "x", "--format", "csv"],
    ["hnk", "3"],
    ["hnk", "a", "2"],
    ["booldim", "--target", "C~"],
    ["decompose", "--method", "zz", "C~"],
    ["enumerate", "--class", "equiv", "--n", "x"],
    ["label", "--bogus"],
    ["params", "C~", "--bogus"],
    ["--", "-h"],
    ["--"],
]


class TestParserParity:
    """`main` builds only the parser of the subcommand that argv[0] names;
    what it prints and returns must be what the whole CLI's parser gives."""

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
    def test_matches_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parser().parse_args(argv)
        want = capsys.readouterr()
        assert want.out or want.err
        assert main(argv) == (exc.value.code or 0)
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)

    WHOLE_CLI = ["boolcomb", *(f"boolcomb {name}" for name in _SUBCOMMANDS)]

    @pytest.mark.parametrize("argv, built", [
        (["params", "C~"], ["boolcomb params"]),
        (["verify", "all", "extra"], ["boolcomb verify", *WHOLE_CLI]),  # the whole CLI reports the extra
        (["-h"], WHOLE_CLI),
        (["nope"], WHOLE_CLI),
        ([], WHOLE_CLI),
    ])
    def test_builds_only_the_named_subparser(self, argv, built, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        main(argv)
        assert progs == built


class TestLeadingDoubleDash:
    """A leading "--" is dropped when a subcommand name follows it, which
    argparse would hand to the command slot; before anything else, or
    alone, it is refused as the whole CLI's parser refuses it (the
    `TestParserParity` cases `-- -h` and `--`)."""

    def test_before_a_subcommand_it_is_dropped(self, capsys):
        assert main(["params", "C~"]) == 0
        plain = capsys.readouterr()
        assert main(["--", "params", "C~"]) == 0
        assert capsys.readouterr() == plain
        assert plain.out.startswith('{"alpha": 1,') and plain.err == ""

    @pytest.mark.parametrize("argv, refusal", [
        (["--", "-h"], "boolcomb: error: argument command: invalid choice: '--' (choose from"),
        (["--"], "boolcomb: error: the following arguments are required: command"),
    ])
    def test_otherwise_it_is_refused(self, argv, refusal, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal in captured.err


SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _validate(payload, schema_name):
    import jsonschema

    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


class TestJsonSchemas:
    def test_params_output_validates(self, capsys):
        main(["params", graph_to_graph6(Graph.cycle(5))])
        _validate(json.loads(capsys.readouterr().out), "params.schema.json")

    def test_params_past_the_chain_cap_reports_null(self, capsys):
        from boolcomb import invariants

        c13 = Graph.cycle(13)
        assert main(["params", graph_to_graph6(c13)]) == 0
        data = json.loads(capsys.readouterr().out)
        _validate(data, "params.schema.json")
        assert data.pop("chain") is None and data.pop("strong_chain") is None
        solvers = {
            "omega": invariants.clique_number,
            "alpha": invariants.independence_number,
            "chi": invariants.chromatic_number,
            "max_degree": invariants.max_degree,
            "degeneracy": invariants.degeneracy,
            "biclique": invariants.biclique_number,
            "twin_number": invariants.twin_number,
            "perfect": invariants.is_perfect,
        }
        assert data == {name: solver(c13) for name, solver in solvers.items()}

    def test_verify_output_validates(self, capsys):
        main(["verify", "speed-bound"])
        _validate(json.loads(capsys.readouterr().out), "theorem_check.schema.json")

    def test_booldim_output_validates(self, capsys):
        target = graph_to_graph6(Graph.cycle(5))
        main(["booldim", "--target", target, "--class", "equiv", "--kmax", "2"])
        _validate(json.loads(capsys.readouterr().out), "booldim.schema.json")
        main(["booldim", "--target", target, "--class", "equiv", "--kmax", "3", "--mode", "xor"])
        _validate(json.loads(capsys.readouterr().out), "booldim.schema.json")

    def test_decompose_output_validates(self, capsys):
        main(["decompose", "--method", "twin", graph_to_graph6(Graph.complete_multipartite([2, 2]))])
        _validate(json.loads(capsys.readouterr().out), "decomposition.schema.json")

    def test_label_output_validates(self, capsys):
        g6 = graph_to_graph6(Graph.empty(6))
        main(["label", "--fn", "2:0x6", g6, g6])
        _validate(json.loads(capsys.readouterr().out), "labels.schema.json")


class TestCliContracts:
    def test_failed_check_exits_1(self, capsys, monkeypatch):
        import boolcomb.cli as cli_mod
        from boolcomb.extremal import TheoremCheck

        def fake(theorem_id, seed):
            return TheoremCheck(theorem_id, "forced failure", False, seed, counterexample={})

        monkeypatch.setattr(cli_mod, "verify_theorem", fake)
        assert main(["verify", "speed-bound"]) == 1

    def test_budget_option(self, capsys):
        target = graph_to_graph6(Graph.cycle(5))
        code = main(["booldim", "--target", target, "--class", "equiv", "--kmax", "2", "--budget", "1"])
        assert code == 2  # budget of 1 tuple is exceeded immediately
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, digest", [
        ("1729", "627b076e7074c0a341de85d09ef66cb82ddb4066c237312766c33ac5d138a8b4"),
        ("7", "f23d3193e7bb3a992f37646155ea6a7692006140dece250e638907302a4d1dd6"),
    ], ids=["seed1729", "seed7"])
    def test_verify_all_output_is_pinned(self, capsys, seed, digest):
        # any change to the catalogue output must update these digests
        assert main(["verify", "all", "--seed", seed]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_verify_deterministic_output(self, capsys):
        main(["verify", "chain-sandwich", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "chain-sandwich", "--seed", "3"])
        assert capsys.readouterr().out == first


def _module_cli(*args: str) -> subprocess.Popen:
    """`python -m boolcomb.cli <args>` in a child process importing from src/,
    with stdout and stderr piped."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-m", "boolcomb.cli", *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        proc = _module_cli("verify", "speed-bound")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        checks = json.loads(out)
        assert [c["id"] for c in checks] == ["speed-bound"]

    def test_closed_stdout_is_quiet(self):
        # Bell(9) = 21,147 graph6 lines, more than a pipe buffer holds
        proc = _module_cli("enumerate", "--class", "equiv", "--n", "9")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        text = err.decode()
        assert "Traceback" not in text and "Exception ignored" not in text
        assert proc.returncode == 1
