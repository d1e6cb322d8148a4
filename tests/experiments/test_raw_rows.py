"""Raw-row pins for the exact-analyzer experiments.

Rendered tables print floats at ``.4g``, so a table digest cannot see a
change in the last digits of an exact value.  These pins hash ``repr``
of every row on the default grid, which shows any float that moved.
"""

import hashlib

import pytest

from repro.experiments import ALL_EXPERIMENTS

RAW_ROW_SHA256 = {
    "E5": "37ec7ccf70459887b0b48d44357460b948a5c1ae2769d26d9775bfb928f92c8f",
    "E10": "0c366beead9b6c8d8d5089ded9eb32b7b642cfcce50dd771c539557ac68a7350",
    "E16": "c768247ead30e92742887a35974b8acf30f2996a77aa3fb545cce157e61fa987",
}


@pytest.mark.parametrize("experiment_id", sorted(RAW_ROW_SHA256))
def test_default_grid_rows_are_pinned(experiment_id):
    rows = ALL_EXPERIMENTS[experiment_id]().rows
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == RAW_ROW_SHA256[experiment_id]
