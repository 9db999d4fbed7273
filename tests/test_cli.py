"""Tests for the command line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main
from repro.graphs import complete_graph, write_edge_list


@pytest.fixture
def clique_file(tmp_path):
    path = tmp_path / "k5.edges"
    write_edge_list(complete_graph(5), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_solve_arguments(self):
        args = build_parser().parse_args(["solve", "g.edges", "-k", "2", "--algorithm", "KDBB"])
        assert args.command == "solve"
        assert args.k == 2
        assert args.algorithm == "KDBB"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "g.edges", "-k", "1", "--algorithm", "bogus"])

    def test_experiments_arguments(self):
        args = build_parser().parse_args(["experiments", "table4", "--scale", "tiny"])
        assert args.name == "table4"
        assert args.scale == "tiny"

    def test_experiments_run_arguments(self):
        args = build_parser().parse_args(
            [
                "experiments", "run", "--db", "x.sqlite", "--k", "1", "3",
                "--backends", "bitset",
                "--workers", "1", "2", "--max-cells", "5", "--no-resume",
            ]
        )
        assert args.name == "run"
        assert args.db == "x.sqlite"
        assert args.k == [1, 3]
        assert args.backends == ["bitset"]
        assert args.workers == [1, 2]
        assert args.max_cells == 5
        assert args.no_resume

    def test_experiments_export_arguments(self):
        args = build_parser().parse_args(["experiments", "export", "--run", "2"])
        assert args.name == "export"
        assert args.run == 2

    def test_time_limit_offered_only_to_experiments_that_search(self, capsys):
        """Table 4 only prepares, so ``--time-limit`` is an argparse error
        (exit 2), not a TypeError from ``table4()``."""
        args = build_parser().parse_args(["experiments", "table5", "--time-limit", "1"])
        assert args.time_limit == 1.0
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "table4", "--time-limit", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --time-limit" in capsys.readouterr().err

    def test_experiments_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-concurrency", "2", "--backend", "bitset"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_concurrency == 2
        assert args.backend == "bitset"
        assert args.host == "127.0.0.1"
        assert args.preload == []

    @pytest.mark.parametrize("argv", [
        ["serve", "--engine", "trail"],
        ["experiments", "run", "--engines", "trail"],
    ])
    def test_engine_flags_rejected(self, argv, capsys):
        """The bitset backend has a single engine, so no command selects one."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_solve(self, clique_file, capsys):
        code = main(["solve", clique_file, "-k", "1", "--show-vertices"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|C|=5" in out
        assert "vertices:" in out

    def test_solve_with_baseline(self, clique_file, capsys):
        assert main(["solve", clique_file, "-k", "0", "--algorithm", "MADEC"]) == 0
        assert "MADEC" in capsys.readouterr().out

    def test_stats(self, clique_file, capsys):
        assert main(["stats", clique_file]) == 0
        out = capsys.readouterr().out
        assert "num_vertices: 5" in out
        assert "degeneracy: 4" in out

    def test_gamma(self, capsys):
        assert main(["gamma", "--max-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "gamma_k" in out
        assert out.count("\n") >= 5

    def test_generate(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["generate", "dimacs_snap_like", str(out_dir), "--scale", "tiny"]) == 0
        files = os.listdir(out_dir)
        assert files
        assert all(name.endswith(".edges") for name in files)

    def test_experiments_table4(self, capsys):
        assert main(["experiments", "table4", "--scale", "tiny"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_experiments_table2_prints_shape_verdicts(self, capsys):
        assert main(["experiments", "table2", "--time-limit", "0.05"]) == 0
        out = capsys.readouterr().out
        table, _, verdicts = out.partition("Shape against the paper's Table 2:")
        assert "Table 2" in table
        lines = verdicts.strip().splitlines()
        assert all(line.startswith(("[OK ] ", "[DIFF] ")) for line in lines)
        # one ordering verdict per collection and default k
        assert sum(" ordering: " in line for line in lines) == 3 * 4

    def test_compare(self, clique_file, capsys):
        assert main(["compare", clique_file, "-k", "1", "--algorithms", "kDC", "MADEC"]) == 0
        out = capsys.readouterr().out
        assert "kDC" in out and "MADEC" in out
        assert "algorithm" in out

    def test_top_r(self, clique_file, capsys):
        assert main(["top-r", clique_file, "-k", "0", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "#1 (size 5)" in out

    def test_top_r_diversified(self, clique_file, capsys):
        assert main(["top-r", clique_file, "-k", "1", "-r", "2", "--diversified"]) == 0
        assert "#1" in capsys.readouterr().out

    def test_properties(self, clique_file, capsys):
        assert main(["properties", clique_file, "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "maximum clique size:              5" in out
        assert "size ratio" in out


class TestErrorHandling:
    """Library failures exit with a one-line error, never a traceback."""

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("only-one-token-on-this-line\n")
        code = main(["solve", str(path), "-k", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "expected two vertex ids" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.edges"), "-k", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_integer_dimacs_token_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.clq"
        path.write_text("c bad count\np edge abc 3\n")
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: vertex count must be an integer, got 'abc'\n"

    def test_unknown_format_extension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "graph.mystery"
        path.write_text("0 1\n")
        assert main(["solve", str(path), "-k", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, clique_file, capsys, monkeypatch):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "solve", interrupted)
        code = main(["solve", clique_file, "-k", "1"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
