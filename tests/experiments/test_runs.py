"""Smoke tests: every experiment runs on a reduced grid and produces a
well-formed table with the expected qualitative shape.

The full-size sweeps live in ``benchmarks/``; these tests keep the
experiment code itself under unit-test coverage with second-scale
runtimes.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    e1_disjointness_scaling,
    e2_and_information,
    e3_good_transcripts,
    e4_omega_k,
    e5_gap,
    e6_amortized,
    e7_sampling_cost,
    e8_figure1,
    e9_product_tightness,
    e10_divergence_decomposition,
    e11_pointwise_or,
)


class TestReducedRuns:
    def test_e1(self):
        table = e1_disjointness_scaling.run(
            grid=[(64, 4), (256, 4)], check_random_instances=True
        )
        assert len(table.rows) == 2
        assert all(row[5] <= 2.0 for row in table.rows)

    def test_e2(self):
        table = e2_and_information.run(ks=(2, 4, 8))
        cics = [row[2] for row in table.rows]
        assert cics == sorted(cics)

    def test_e3(self):
        table = e3_good_transcripts.run(ks=(3, 4))
        assert all(row[1] > 0.9 for row in table.rows)

    def test_e4(self):
        table = e4_omega_k.run(ks=(8,), budget_fractions=(0.0, 0.5, 1.0))
        assert len(table.rows) == 3

    def test_e5(self):
        table = e5_gap.run(ks=(2, 4))
        assert table.rows[0][3] == 2  # CC = k

    def test_e6(self):
        table = e6_amortized.run(
            copies_schedule=(1, 16), k=3, repetitions=3
        )
        per_copy = [row[1] for row in table.rows]
        assert per_copy[1] < per_copy[0]

    def test_e6_noisy_variant(self):
        table = e6_amortized.run(
            copies_schedule=(4,), k=3, repetitions=2, noisy=True
        )
        assert len(table.rows) == 1

    def test_e7(self):
        table = e7_sampling_cost.run(spreads=(2.0, 6.0), trials=100)
        assert table.rows[1][0] > table.rows[0][0]  # divergence ordering

    def test_e8(self):
        table = e8_figure1.run(replicas=20)
        fields = {row[0]: row[1] for row in table.rows}
        assert fields["receiver correct"] == "yes"

    def test_e9(self):
        table = e9_product_tightness.run(copies=(2,))
        assert all(row[5] == "yes" for row in table.rows)

    def test_e10(self):
        table = e10_divergence_decomposition.run(ks=(3, 4))
        assert len(table.rows) == 2

    def test_e11(self):
        table = e11_pointwise_or.run(grid=[(256, 4)])
        assert table.rows[0][3] <= 2.0

    def test_e12(self):
        from repro.experiments import e12_streaming_space

        table = e12_streaming_space.run(grid=[(64, 4)])
        _n, _k, space, _bits, bound, _ratio = table.rows[0]
        assert space >= bound

    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            f"E{i}" for i in range(1, 17)
        }


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E11" in out

    def test_run_one(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["E8", "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[E8]" in out
        assert (tmp_path / "E8.txt").exists()

    def test_unknown_id(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["E99"])

    def test_help_id_range_tracks_registry(self):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.__main__ import _id_range

        assert _id_range() == f"E1..E{len(ALL_EXPERIMENTS)}"

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        from repro.obs import NullTracer, get_tracer, read_trace

        path = tmp_path / "trace.jsonl"
        assert main(["E8", "--trace", str(path)]) == 0
        events = read_trace(str(path))
        names = {e.name for e in events}
        assert "experiment_start" in names
        assert "experiment_finish" in names
        assert "sampler_round" in names  # E8 plays the dart protocol
        # The global tracer is uninstalled again after the run.
        assert isinstance(get_tracer(), NullTracer)

    def test_metrics_flag_prints_counters(self, capsys):
        from repro.experiments.__main__ import main
        from repro.obs import REGISTRY

        assert main(["E8", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "[E8 metrics]" in out
        assert "sampler_darts_rejected" in out
        assert "experiment_seconds" in out
        assert not REGISTRY.enabled  # collection turned back off

    def test_progress_without_metrics_prints_no_metrics_table(
        self, capsys, tmp_path
    ):
        from repro.experiments.__main__ import main
        from repro.obs import REGISTRY, get_telemetry, read_telemetry

        path = tmp_path / "t.jsonl"
        argv = ["E14", "--quick", "--progress"]
        assert main(argv + ["--telemetry", str(path)]) == 0
        captured = capsys.readouterr()
        assert "[E14]" in captured.out
        assert "metrics]" not in captured.out
        assert "counters" not in captured.out
        assert "1/1 cells" in captured.err  # the live line drew
        final = read_telemetry(str(path))[-1]
        assert final["final"] and final["cells_done"] == 1
        assert not REGISTRY.enabled and get_telemetry() is None


class TestE13:
    def test_reduced_run(self):
        from repro.experiments import e13_optimal_frontier

        table = e13_optimal_frontier.run(ks=(4,))
        assert all(row[4] == "yes" for row in table.rows)


class TestE14:
    def test_reduced_run(self):
        from repro.experiments import e14_optimal_information

        table = e14_optimal_information.run(ks=(2, 4))
        assert all(row[3] == "yes" for row in table.rows)


class TestE15:
    def test_reduced_run(self):
        from repro.experiments import e15_promise

        table = e15_promise.run(grid=[(256, 8)])
        for row in table.rows:
            assert row[5] > 1.0  # promise protocol always cheaper here


class TestQuickGrid:
    """E1's ``quick`` flag selects the classic pre-extension grid."""

    def test_default_grid_extends_classic(self):
        classic = e1_disjointness_scaling.CLASSIC_GRID
        default = e1_disjointness_scaling.DEFAULT_GRID
        assert tuple(default[: len(classic)]) == tuple(classic)
        assert len(default) > len(classic)

    def test_quick_equals_classic_grid(self):
        quick = e1_disjointness_scaling.run(quick=True)
        classic = e1_disjointness_scaling.run(
            grid=e1_disjointness_scaling.CLASSIC_GRID
        )
        assert quick.render() == classic.render()
        assert len(quick.rows) == len(e1_disjointness_scaling.CLASSIC_GRID)

    def test_explicit_grid_wins_over_quick(self):
        table = e1_disjointness_scaling.run(grid=[(64, 4)], quick=True)
        assert len(table.rows) == 1


class TestDeterminism:
    def test_same_seed_same_table(self):
        """Monte-Carlo experiments are reproducible from their seed."""
        from repro.experiments import e6_amortized

        a = e6_amortized.run(copies_schedule=(4, 8), k=3,
                             repetitions=2, seed=11)
        b = e6_amortized.run(copies_schedule=(4, 8), k=3,
                             repetitions=2, seed=11)
        assert a.rows == b.rows

    def test_different_seed_differs(self):
        from repro.experiments import e6_amortized

        a = e6_amortized.run(copies_schedule=(4,), k=3,
                             repetitions=2, seed=1)
        b = e6_amortized.run(copies_schedule=(4,), k=3,
                             repetitions=2, seed=2)
        assert a.rows != b.rows
