"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.dataset == "sift"
        assert args.graph == "hnsw"
        assert args.scenario == "memory"

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--graph", "delaunay"])

    def test_experiment_choices(self, capsys):
        args = build_parser().parse_args(["experiment", "paper", "table2"])
        assert (args.name, args.id) == ("paper", "table2")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "paper", "fig99"])
        assert exc.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["experiment", "paper", "--help"])
        assert "fig7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "paper", "fig4", "--rates", "5,10"],
            ["experiment", "paper", "fig4", "--connect", "nowhere:1"],
            ["experiment", "batch", "--mix", "bogus:1:1:1"],
            ["experiment", "build", "--shards", "2"],
            ["experiment", "serve", "--arrival", "bursty"],
            ["experiment", "table2"],
        ],
    )
    def test_a_flag_lives_on_the_verb_that_reads_it(self, argv, capsys):
        # One parser used to take all 20 flags whatever the experiment,
        # and `fig4 --rates 5,10 --connect nowhere:1` exited 0.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["paper", "batch", "build", "serve", "load"])
    def test_help_names_no_other_verb(self, verb, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", verb, "--help"])
        assert "' experiment" not in capsys.readouterr().out

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--shards", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "serve", "--shards", "-2"])

    def test_shard_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--shard-backend", "rpc"])

    def test_shard_backend_requires_shards(self, capsys):
        # The flag would otherwise be silently ignored on an unsharded
        # index — fail loudly instead, before any expensive work.
        assert main(["demo", "--shard-backend", "process"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert (
            main(["experiment", "serve", "--shard-backend", "process"]) == 2
        )
        assert "--shards" in capsys.readouterr().err


class TestCommands:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("sift", "deep", "gist", "ukbench", "bigann"):
            assert name in out

    def test_profiles_with_lid(self, capsys):
        assert main(["profiles", "--measure-lid", "--n-base", "400"]) == 0
        assert "measured LID" in capsys.readouterr().out

    def test_demo_memory(self, capsys):
        code = main(
            [
                "demo",
                "--dataset", "ukbench",
                "--n-base", "300",
                "--n-queries", "6",
                "--chunks", "4",
                "--codewords", "8",
                "--epochs", "1",
                "--beam", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RPQ" in out and "PQ" in out

    def test_demo_hybrid(self, capsys):
        code = main(
            [
                "demo",
                "--dataset", "ukbench",
                "--scenario", "hybrid",
                "--graph", "vamana",
                "--n-base", "300",
                "--n-queries", "6",
                "--chunks", "4",
                "--codewords", "8",
                "--epochs", "1",
                "--beam", "16",
            ]
        )
        assert code == 0
        assert "hybrid scenario" in capsys.readouterr().out

    def test_demo_seeds_every_graph_kind(self, monkeypatch, capsys):
        # The demo's own builder table used to drop --seed for NSG.
        import repro.graphs

        seeds = []
        real = repro.graphs.build_nsg

        def spy(x, **kwargs):
            seeds.append(kwargs.get("seed"))
            return real(x, **kwargs)

        monkeypatch.setattr(repro.graphs, "build_nsg", spy)
        code = main(
            [
                "demo", "--graph", "nsg", "--seed", "3",
                "--dataset", "ukbench", "--n-base", "200", "--n-queries", "4",
                "--chunks", "4", "--codewords", "8", "--epochs", "1",
                "--beam", "16",
            ]
        )
        assert code == 0
        assert seeds == [3]

    def test_experiment_fig4(self, capsys, monkeypatch):
        from repro.eval.paper import PAPER

        from .helpers import shrunk

        monkeypatch.setitem(
            PAPER, "fig4", shrunk(PAPER["fig4"], ("sift",), 300, 8)
        )
        assert main(["experiment", "paper", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "imbalance before" in out and "deep" not in out

    def test_experiment_serve(self, capsys):
        code = main(
            [
                "experiment",
                "serve",
                "--n-base",
                "300",
                "--batch-size",
                "16",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Dynamic-batching serving" in out
        assert "speedup over per-query serving" in out


class TestIndexCommand:
    def test_build_describe_search_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx")
        code = main(
            [
                "index", "build", "--out", out_dir,
                "--n-base", "250", "--n-queries", "6",
                "--codewords", "16",
            ]
        )
        assert code == 0
        assert "built scenario=memory" in capsys.readouterr().out

        assert main(["index", "describe", "--dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "scenario: memory" in out
        assert "format_version" in out or "spec:" in out

        assert main(
            ["index", "search", "--dir", out_dir, "--k", "5"]
        ) == 0
        assert "recall@5" in capsys.readouterr().out

    @pytest.mark.slow
    def test_sharded_search_with_process_backend(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx")
        code = main(
            [
                "index", "build", "--out", out_dir,
                "--n-base", "250", "--n-queries", "6",
                "--codewords", "16", "--shards", "2",
            ]
        )
        assert code == 0
        assert "shards=2" in capsys.readouterr().out
        assert main(
            [
                "index", "search", "--dir", out_dir,
                "--k", "5", "--shard-backend", "process",
            ]
        ) == 0
        assert "recall@5" in capsys.readouterr().out

    def test_shard_backend_flag_rejects_unsharded_dir(
        self, tmp_path, capsys
    ):
        import numpy as np

        from repro.api import save_index
        from repro.graphs import build_vamana
        from repro.index import MemoryIndex
        from repro.quantization import ProductQuantizer

        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 16))
        quantizer = ProductQuantizer(4, 8, seed=0).fit(x)
        graph = build_vamana(x, r=4, search_l=8, seed=0)
        out_dir = str(tmp_path / "idx")
        save_index(MemoryIndex(graph, quantizer, x), out_dir)
        code = main(
            [
                "index", "search", "--dir", out_dir,
                "--shard-backend", "process",
            ]
        )
        assert code == 2
        assert "unsharded" in capsys.readouterr().err

    def test_build_refuses_unpersistable_catalyst(self, tmp_path, capsys):
        code = main(
            [
                "index", "build",
                "--out", str(tmp_path / "idx"),
                "--quantizer", "catalyst",
                "--n-base", "250",
            ]
        )
        assert code == 2
        assert "cannot be persisted" in capsys.readouterr().err

    def test_search_refuses_mismatched_dataset(self, tmp_path, capsys):
        import numpy as np

        from repro.api import IndexSpec, build, save_index
        from repro.datasets import load

        # Built from explicit data: the default spec's dataset section
        # (n_base=2000) does not describe these 250 rows.
        data = load("sift", n_base=250, n_queries=4, seed=0)
        index = build(
            IndexSpec(), data=data.base,
            graph=None, quantizer=None,
        )
        assert np.asarray(index.codes).shape[0] == 250
        out_dir = str(tmp_path / "idx")
        save_index(index, out_dir)
        assert main(["index", "search", "--dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert "refusing to evaluate" in err
