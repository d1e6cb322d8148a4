"""Experiments read what the fabric warms.

Each store-backed experiment declares its grids once
(:class:`repro.store.sweep.SweepGrid`); :func:`repro.fabric.cells.
sweep_keys` rebuilds their addresses.  A loopback fabric warm-up over
the quick keys must leave every cell the experiment's quick run reads
already in the store, and ``python -m repro.experiments --fabric N``
— warm first, then render from the store — must print the storeless
table byte-for-byte.  ``--quick`` means the same quick grid to the
renderer and to the warm-up, for every store-backed experiment.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import main
from repro.experiments.e2_and_information import DEFAULT_KS as E2_KS
from repro.fabric.cells import SWEEPABLE_EXPERIMENTS, sweep_keys
from repro.fabric.sweep import fabric_sweep
from repro.obs import REGISTRY
from repro.store.store import ResultStore

#: The quick runs the repo benchmark renders (perfbench ``QUICK_RUNS``).
QUICK_RUNS = {
    "E1": {"quick": True},
    "E2": {"ks": tuple(k for k in E2_KS if k <= 16)},
    "E4": {"ks": (16, 64)},
    "E14": {"ks": (2, 3, 4, 6, 8)},
    "E16": {"quick": True},
}


@pytest.mark.parametrize("experiment", SWEEPABLE_EXPERIMENTS)
def test_quick_run_reads_only_warm_cells(tmp_path, experiment):
    runner = ALL_EXPERIMENTS[experiment]
    kwargs = QUICK_RUNS[experiment]
    store = ResultStore(str(tmp_path / "store"))
    fabric_sweep(
        sweep_keys(experiment, quick=True),
        store=store,
        workers=2,
        transport="loopback",
    )
    entries = store.stats().entries
    warm = runner(**kwargs, store=store).render()
    assert store.stats().entries == entries
    assert warm == runner(**kwargs).render()


class TestFabricFlag:
    def test_cold_fabric_run_renders_the_storeless_table(
        self, tmp_path, capsys
    ):
        assert main(
            ["E1", "--quick", "--no-store", "--save", str(tmp_path / "a")]
        ) == 0
        store = tmp_path / "store"
        assert main([
            "E1", "--quick", "--fabric", "2",
            "--fabric-transport", "loopback",
            "--store", str(store), "--save", str(tmp_path / "b"),
        ]) == 0
        assert (tmp_path / "b" / "E1.txt").read_bytes() == (
            tmp_path / "a" / "E1.txt"
        ).read_bytes()
        assert ResultStore(str(store)).stats().entries == len(
            sweep_keys("E1", quick=True)
        )

    @pytest.mark.parametrize("experiment", SWEEPABLE_EXPERIMENTS)
    def test_quick_flag_renders_the_quick_grid(
        self, tmp_path, capsys, experiment
    ):
        assert main([
            experiment, "--quick", "--no-store",
            "--save", str(tmp_path / "cli"),
        ]) == 0
        ALL_EXPERIMENTS[experiment](**QUICK_RUNS[experiment]).save(
            str(tmp_path / "direct")
        )
        name = f"{experiment}.txt"
        assert (tmp_path / "cli" / name).read_bytes() == (
            tmp_path / "direct" / name
        ).read_bytes()

    @pytest.mark.parametrize("experiment", SWEEPABLE_EXPERIMENTS)
    def test_quick_fabric_render_has_no_store_miss(
        self, tmp_path, monkeypatch, capsys, experiment
    ):
        def warm_then_reset(*args, **kwargs):
            result = fabric_sweep(*args, **kwargs)
            REGISTRY.reset()  # count only the render's store reads
            return result

        monkeypatch.setattr(
            "repro.fabric.sweep.fabric_sweep", warm_then_reset
        )
        assert main([
            experiment, "--quick", "--fabric", "2",
            "--fabric-transport", "loopback",
            "--store", str(tmp_path / "store"), "--metrics",
        ]) == 0
        assert REGISTRY.counter("store_misses").total() == 0
        assert REGISTRY.counter("store_hits").total() == len(
            sweep_keys(experiment, quick=True)
        )

    @pytest.mark.parametrize("no_store_flag", [False, True])
    def test_requires_a_store(self, tmp_path, monkeypatch, capsys,
                              no_store_flag):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        argv = ["E1", "--quick", "--fabric", "2"]
        if no_store_flag:
            argv += ["--store", str(tmp_path), "--no-store"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "requires a result store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--transport", "loopback"],
            ["--fault-seed", "7"],
        ],
        ids=["transport", "fault-seed"],
    )
    def test_rejects_flags_fabric_workers_ignore(
        self, tmp_path, capsys, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "E14", "--fabric", "2", "--store", str(tmp_path), *flag,
            ])
        assert exit_info.value.code == 2
        assert f"cannot be combined with {flag[0]}" in (
            capsys.readouterr().err
        )
