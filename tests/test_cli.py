"""Tests for the command-line interface."""

import json
import shlex

import pytest

from repro.cli import _GRID_FLAGS, _build_sweep, _grid_flags, build_parser, main

TINY_SWEEP_ARGS = [
    "--exp", "fig3", "--panel", "0", "--methods", "script-fair", "fedavg",
    "--rounds", "1", "--clients", "4", "--samples", "20",
]

# `repro sweep` arguments and the `repro report` hint printed for them,
# captured before the flags were declared in one table: they pin the hint
# byte for byte.
HINT_GOLDENS = [
    (["--exp", "fig3", "--panel", "2", "--runs-dir", "d", "--seeds", "0", "1",
      "--methods", "fedavg", "script-fair", "--rounds", "3", "--clients", "6",
      "--samples", "20", "--novel", "4", "--embed-clients", "3",
      "--embed-samples", "5", "--tsne-iterations", "50"],
     "--exp fig3 --runs-dir d --panel 2 --seeds 0 1 --methods fedavg "
     "script-fair --rounds 3 --clients 6 --samples 20 --embed-clients 3 "
     "--embed-samples 5 --tsne-iterations 50"),
    (["--exp", "fig4", "--runs-dir", "d", "--novel", "3"],
     "--exp fig4 --runs-dir d --panel 0 --novel 3"),
    (["--exp", "fig5", "--runs-dir", "d", "--embed-clients", "3",
      "--embed-samples", "5", "--tsne-iterations", "50"],
     "--exp fig5 --runs-dir d --embed-clients 3 --embed-samples 5 "
     "--tsne-iterations 50"),
    (["--exp", "table1", "--runs-dir", "d"], "--exp table1 --runs-dir d"),
]


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_accepts_repeated_methods(self):
        args = build_parser().parse_args(
            ["run", "--method", "fedavg", "--method", "script-fair"]
        )
        assert args.method == ["fedavg", "script-fair"]

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "fedavg", "--backend", "thread"],
        ["sweep", "--exp", "table1", "--scheduler", "thread"],
    ])
    def test_thread_backend_choice_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_fig3_panel_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--panel", "9"])


class TestMain:
    def test_list_prints_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "calibre-simclr" in out
        assert "fig3 panels:" in out

    def test_run_rejects_unknown_method(self, capsys):
        assert main(["run", "--method", "bogus"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["run", "--method", "fedavg", "--workers", "0"],
         "--workers must be >= 1"),
        (["run", "--method", "pfl-simclr", "--samples", "2"],
         "samples_per_client must be >= 4"),
        (["run", "--method", "pfl-simclr", "--clients", "0"],
         "num_clients must be >= 1"),
        (["sweep", "--exp", "table1", "--samples", "2"],
         "samples_per_client must be >= 4"),
        (["report", "--exp", "table1", "--samples", "2"],
         "samples_per_client must be >= 4"),
        (["sweep", "--exp", "table1", "--jobs", "0"],
         "--jobs must be >= 1, got 0"),
        (["sweep", "--exp", "table1", "--max-cells", "-1"],
         "--max-cells must be >= 0, got -1"),
        (["profile", "--top", "-1"], "--top must be >= 0, got -1"),
        (["sweep", "--exp", "fig3", "--methods", "bogus"],
         "unknown methods: ['bogus']"),
        (["sweep", "--exp", "fig3", "--panel", "9"],
         "--panel: panel_index must be in [0, 3]"),
        (["report", "--exp", "fig4", "--panel", "7"],
         "--panel: panel_index must be in [0, 1]"),
    ])
    def test_usage_errors_exit_2_with_one_line(self, capsys, tmp_path,
                                               argv, message):
        if argv[0] == "profile":
            argv = argv + [str(tmp_path)]
        elif argv[0] != "run":
            argv = argv + ["--runs-dir", str(tmp_path / "store")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize("argv,golden", HINT_GOLDENS,
                             ids=["fig3-every-flag", "fig4-population",
                                  "fig5-embedding", "table1"])
    def test_report_hint_rebuilds_the_swept_grid(self, argv, golden):
        args = build_parser().parse_args(["sweep"] + argv)
        hint = _grid_flags(args)
        assert hint == golden
        again = build_parser().parse_args(["report"] + shlex.split(hint))
        assert ([key.fingerprint for key in _build_sweep(again).cells()]
                == [key.fingerprint for key in _build_sweep(args).cells()])

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "fedavg", "--availability", "0.5"],
        ["run", "--method", "fedavg", "--aggregation", "buffered"],
        ["sweep", "--exp", "table1", "--runs-dir", "d", "--dropout", "0.1"],
    ])
    def test_retired_population_flags_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_report_hint_goldens_set_every_grid_flag(self):
        # A grid flag added to the table must be set in a golden above, so
        # that the round trip proves the hint repeats it.
        swept = {arg for argv, _ in HINT_GOLDENS for arg in argv}
        assert {flag.options[0] for flag in _GRID_FLAGS} <= swept

    def test_run_tiny_experiment(self, capsys):
        code = main([
            "run", "--method", "script-fair", "--dataset", "cifar10",
            "--setting", "dirichlet", "--param", "0.5", "--samples", "20",
            "--rounds", "1", "--clients", "4", "--seed", "0",
            "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "script-fair" in out
        assert "method,mean_accuracy,accuracy_variance" in out

    def test_run_out_persists_outcome(self, capsys, tmp_path):
        out_path = tmp_path / "outcome.json"
        code = main([
            "run", "--method", "script-fair", "--setting", "dirichlet",
            "--param", "0.5", "--samples", "20", "--rounds", "1",
            "--clients", "4", "--out", str(out_path),
        ])
        assert code == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert set(payload["results"]) == {"script-fair"}
        # The numeric stamp sits beside the outcome, never inside it.
        assert payload["numerics"]["blas_threads"] in (1, None)
        assert payload["numerics"]["numpy"]
        assert "numerics" not in json.dumps(
            [payload["spec"], payload["results"], payload["reports"]])
        from repro.runs import load_outcome

        outcome = load_outcome(out_path)
        assert outcome.reports["script-fair"].num_clients == 4

        # An outcome computed under async aggregation cannot be reproduced
        # any more: loading it fails with one line naming the field.
        payload["spec"]["config"]["aggregation"] = "buffered"
        out_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as error:
            load_outcome(out_path)
        assert len(str(error.value).splitlines()) == 1
        assert "retired or unknown field(s) aggregation" in str(error.value)


class TestSweepCommands:
    def test_interrupted_sweep_resumes_and_reports(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir] + TINY_SWEEP_ARGS

        # "kill" after one cell via the cell budget, then relaunch
        assert main(["sweep", "--quiet", "--max-cells", "1"] + base) == 0
        first = capsys.readouterr().out
        assert "executed=1 skipped=0 deferred=1 total=2" in first

        assert main(["sweep", "--quiet"] + base) == 0
        second = capsys.readouterr().out
        assert "executed=1 skipped=1 deferred=0 total=2" in second

        assert main(["sweep", "--quiet"] + base) == 0
        third = capsys.readouterr().out
        assert "executed=0 skipped=2 deferred=0 total=2" in third

        # the report renders purely from the store
        assert main(["report", "--csv"] + base) == 0
        report = capsys.readouterr().out
        assert "script-fair" in report and "fedavg" in report
        assert "method,mean_accuracy,accuracy_variance" in report

    def test_report_names_missing_cells(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "empty")
        assert main(["sweep", "--quiet", "--max-cells", "0",
                     "--runs-dir", runs_dir] + TINY_SWEEP_ARGS) == 0
        capsys.readouterr()
        assert main(["report", "--runs-dir", runs_dir] + TINY_SWEEP_ARGS) == 1
        err = capsys.readouterr().err
        assert "2 of 2 cells missing" in err
        assert "script-fair" in err

    def test_report_requires_existing_store(self, capsys, tmp_path):
        code = main(["report", "--runs-dir", str(tmp_path / "nope")]
                    + TINY_SWEEP_ARGS)
        assert code == 1
        assert "no run store" in capsys.readouterr().err

    def test_report_across_seeds_and_timings(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir, "--seeds", "0", "1"] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet", "--round-checkpoints"] + base) == 0
        capsys.readouterr()

        assert main(["report", "--across-seeds", "--timings"] + base) == 0
        out = capsys.readouterr().out
        assert "[across seeds 0 1]" in out
        # One aggregated table row, not one table per seed (the other two
        # mentions are the per-seed timing rows).
        assert out.count("script-fair") == 3
        assert "±std" in out
        assert "cell timings" in out
        assert "s/cell" in out

        # Aggregation is a pure store read: byte-stable across invocations.
        assert main(["report", "--across-seeds"] + base) == 0
        first = capsys.readouterr().out
        assert main(["report", "--across-seeds"] + base) == 0
        assert capsys.readouterr().out == first

    def test_sweep_stamps_index_and_telemetry(self, capsys, tmp_path):
        runs_dir = tmp_path / "store"
        assert main(["sweep", "--quiet", "--runs-dir", str(runs_dir)]
                    + TINY_SWEEP_ARGS) == 0
        capsys.readouterr()
        entries = [json.loads(line) for line in
                   (runs_dir / "index.jsonl").read_text().splitlines()]
        metas = [json.loads(path.read_text().splitlines()[0])
                 for path in sorted((runs_dir / "telemetry").glob("*.jsonl"))]
        assert len(entries) == len(metas) == 2
        for stamped in entries + metas:
            assert stamped["numerics"]["blas_threads"] in (1, None)
            assert stamped["numerics"]["numpy"]
        for path in (runs_dir / "cells").glob("*.json"):
            assert "numerics" not in path.read_text()

    def test_report_warns_on_mixed_numerics_on_stderr_only(self, capsys, tmp_path):
        runs_dir = tmp_path / "store"
        base = ["--runs-dir", str(runs_dir)] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()

        assert main(["report"] + base) == 0
        uniform = capsys.readouterr()
        assert uniform.err == ""

        index = runs_dir / "index.jsonl"
        first, second = [json.loads(line) for line in index.read_text().splitlines()]
        del first["numerics"]  # a cell computed before stamping existed
        index.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        assert main(["report"] + base) == 0
        mixed = capsys.readouterr()
        assert mixed.out == uniform.out
        assert len(mixed.err.splitlines()) == 1
        assert "1 cell(s) unstamped" in mixed.err
        assert "1 cell(s) {" in mixed.err

        second["numerics"]["blas_threads"] = 4
        first["numerics"] = dict(second["numerics"], blas_threads=1)
        index.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        assert main(["report"] + base) == 0
        mixed = capsys.readouterr()
        assert mixed.out == uniform.out
        assert '"blas_threads": 1' in mixed.err
        assert '"blas_threads": 4' in mixed.err
        assert "unstamped" not in mixed.err

    @pytest.mark.parametrize("argv", [
        ["report"], ["sweep", "--quiet"],
        ["figures", "fig3", "--out", "unused.svg"],
    ], ids=["report", "sweep", "figures"])
    def test_truncated_cell_record_is_one_line(self, capsys, tmp_path, argv):
        runs_dir = tmp_path / "store"
        base = ["--runs-dir", str(runs_dir)] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        cell = sorted((runs_dir / "cells").glob("*.json"))[0]
        cell.write_text(cell.read_text()[:40])

        if argv[0] == "figures":
            base = [arg for arg in base if arg not in ("--exp", "fig3")]
        assert main(argv + base) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(cell) in err
        assert "delete it and re-run `repro sweep`" in err

    def test_run_resume_requires_checkpoints(self, capsys):
        assert main(["run", "--method", "script-fair", "--resume"]) == 2
        assert "--resume requires --checkpoints" in capsys.readouterr().err

    def test_run_checkpoint_and_resume_round_trip(self, capsys, tmp_path):
        checkpoints = str(tmp_path / "ckpts")
        base = ["run", "--method", "fedavg", "--setting", "dirichlet",
                "--param", "0.5", "--samples", "20", "--rounds", "2",
                "--clients", "4", "--checkpoints", checkpoints]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "[resume] fedavg at round 2/2" in second
        # The resumed run skips training but lands on the same table.
        assert first.splitlines()[-1] == second.splitlines()[-1]


TINY_FIGURE_ARGS = [
    "--methods", "script-fair", "--rounds", "1", "--clients", "4",
    "--samples", "20", "--embed-clients", "3", "--embed-samples", "8",
    "--tsne-iterations", "30",
]


class TestFiguresCommands:
    def test_figures_requires_known_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig9", "--store", "x"])

    def test_grid_is_an_exp_alias(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "fig1", "--runs-dir", "x"])
        assert args.exp == "fig1"

    def test_store_is_a_runs_dir_alias(self):
        args = build_parser().parse_args(
            ["figures", "fig5", "--store", "somewhere"])
        assert args.runs_dir == "somewhere"

    def test_figure_sweep_then_render_from_store(self, capsys, tmp_path):
        from xml.etree import ElementTree

        runs_dir = str(tmp_path / "store")
        out_path = tmp_path / "fig1.svg"
        base = ["--runs-dir", runs_dir] + TINY_FIGURE_ARGS

        assert main(["sweep", "--quiet", "--grid", "fig1"] + base) == 0
        sweep_out = capsys.readouterr().out
        assert "executed=1" in sweep_out
        assert "repro figures fig1" in sweep_out  # the render hint

        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        render_out = capsys.readouterr().out
        assert "fig1 silhouettes" in render_out
        assert f"wrote {out_path}" in render_out
        svg = out_path.read_text()
        ElementTree.fromstring(svg)  # well-formed
        assert "script-fair" in svg

        # Rendering is a pure store read: byte-stable across invocations.
        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        capsys.readouterr()
        assert out_path.read_text() == svg

        # fig2 renders from the very same records (per-client views).
        fig2_path = tmp_path / "fig2.svg"
        assert main(["figures", "fig2", "--out", str(fig2_path)] + base) == 0
        capsys.readouterr()
        ElementTree.fromstring(fig2_path.read_text())

        # and the report renders the silhouette table from the store.
        assert main(["report", "--grid", "fig1"] + base) == 0
        report = capsys.readouterr().out
        assert "tsne_sil" in report and "script-fair" in report

    def test_figures_names_missing_cells(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "empty")
        assert main(["sweep", "--quiet", "--grid", "fig1", "--max-cells", "0",
                     "--runs-dir", runs_dir] + TINY_FIGURE_ARGS) == 0
        capsys.readouterr()
        assert main(["figures", "fig1", "--runs-dir", runs_dir]
                    + TINY_FIGURE_ARGS) == 1
        err = capsys.readouterr().err
        assert "1 of 1 cells missing" in err
        assert "script-fair" in err

    def test_figures_requires_existing_store(self, capsys, tmp_path):
        code = main(["figures", "fig1", "--store", str(tmp_path / "nope")]
                    + TINY_FIGURE_ARGS)
        assert code == 1
        assert "no run store" in capsys.readouterr().err

    def test_fig3_figure_renders_accuracy_fairness(self, capsys, tmp_path):
        from xml.etree import ElementTree

        runs_dir = str(tmp_path / "store")
        out_path = tmp_path / "fig3.svg"
        base = ["--runs-dir", runs_dir] + TINY_SWEEP_ARGS
        assert main(["sweep", "--quiet"] + base) == 0
        capsys.readouterr()
        assert main(["figures", "fig3", "--panel", "0", "--out", str(out_path),
                     "--runs-dir", runs_dir] + TINY_SWEEP_ARGS[2:]) == 0
        capsys.readouterr()
        svg = out_path.read_text()
        ElementTree.fromstring(svg)
        assert "mean accuracy" in svg
        assert "script-fair" in svg and "fedavg" in svg

    def test_figures_follows_the_sweep_hint_for_nonzero_seeds(self, capsys,
                                                              tmp_path):
        # The sweep hint echoes --seeds 1; the hinted figures command must
        # find the records without an explicit --seed (regression: --seed's
        # old default of 0 silently clobbered the grid's seed axis).
        runs_dir = str(tmp_path / "store")
        base = ["--runs-dir", runs_dir, "--seeds", "1"] + TINY_FIGURE_ARGS
        assert main(["sweep", "--quiet", "--grid", "fig1"] + base) == 0
        capsys.readouterr()
        out_path = tmp_path / "fig1.svg"
        assert main(["figures", "fig1", "--out", str(out_path)] + base) == 0
        capsys.readouterr()
        assert out_path.is_file()
        # --seed alone (grid seeds left at default) follows the seed too
        assert main(["figures", "fig1", "--seed", "1", "--out", str(out_path),
                     "--runs-dir", runs_dir] + TINY_FIGURE_ARGS) == 0
        capsys.readouterr()
        # a contradictory --seed fails loudly instead of looking up the
        # wrong fingerprints
        assert main(["figures", "fig1", "--seed", "2"] + base) == 2
        assert "not in the swept grid" in capsys.readouterr().err
        # several seeds without a pick is ambiguous
        assert main(["figures", "fig1", "--runs-dir", runs_dir, "--seeds",
                     "0", "1"] + TINY_FIGURE_ARGS) == 2
        assert "pick one" in capsys.readouterr().err
