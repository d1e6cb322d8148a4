"""E1 over the wire: ``--transport loopback`` must not change a byte.

The acceptance bar for the networked runtime is that it is invisible to
the science: the E1 scaling table rendered from loopback-transported
measurements is *byte-identical* to the in-memory one.  A small grid
keeps this inside the CI smoke budget; the bit-identity sweeps in
``test_registry_coverage.py`` cover the breadth.
"""

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.e1_disjointness_scaling import (
    E1_TRANSPORTS,
    measure_point,
    run,
)
from repro.net import TRANSPORTS

#: Small enough for a smoke test, large enough to hit both the batch
#: phase (n >= k^2) and the endgame-only regime.
SMALL_GRID = ((8, 2), (16, 4), (32, 4))


class TestTableIdentity:
    def test_loopback_table_is_byte_identical(self):
        memory = run(SMALL_GRID, check_random_instances=False)
        loopback = run(
            SMALL_GRID, check_random_instances=False, transport="loopback"
        )
        assert loopback.render() == memory.render()

    def test_measure_point_matches_per_backend(self):
        for n, k in SMALL_GRID:
            assert measure_point(n, k, transport="loopback") == measure_point(
                n, k
            )

    def test_unknown_transport_rejected(self):
        assert E1_TRANSPORTS == ("memory",) + TRANSPORTS
        with pytest.raises(ValueError, match="unknown transport"):
            measure_point(8, 2, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport"):
            run(SMALL_GRID, transport="carrier-pigeon")


class TestCliFlag:
    def test_transport_flag_accepted(self, capsys, tmp_path):
        # E1's default grid is too slow for a smoke test, so just check
        # the flag parses and is forwarded only to experiments that
        # declare a ``transport`` kwarg (E4 does not — it must not blow
        # up when the flag is set globally).
        from repro.experiments.__main__ import _supports_kwarg
        from repro.experiments import ALL_EXPERIMENTS

        assert _supports_kwarg(ALL_EXPERIMENTS["E1"], "transport")

    def test_transport_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["E1", "--transport", "avian"])
        assert "invalid choice" in capsys.readouterr().err
