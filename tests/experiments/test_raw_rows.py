"""Raw-row pins for the default tables.

Rendered tables print floats at ``.4g``, so a table digest cannot see a
change in the last digits of a value.  These pins hash ``repr`` of
every row on the default grid, which shows any float that moved.  Every
default table is pinned; E2 on its default ``k`` up to 32, which covers
both its full-support and its truncated cells.  Its k = 48 and k = 64
cells take most of its time and stay covered only by the perfbench
digest and CI's all-tables step.  No table's rows hold a wall-clock
reading, so each digest is the same on every run.
"""

import hashlib

import pytest

from repro.experiments import ALL_EXPERIMENTS

RAW_ROW_SHA256 = {
    "E1": "7219daed0f56a578b6137eb728ab077208c2d9b0dfd44b171b4981308cf20439",
    "E3": "1b6410b1fd299c505573b64147a028b3bcb77e7e462c623ec5ce3471a079fa81",
    "E4": "cb7eedc1ee0a6ad677a2d9d4b059e60be1556393842d187164be0f018089846d",
    "E5": "37ec7ccf70459887b0b48d44357460b948a5c1ae2769d26d9775bfb928f92c8f",
    "E6": "28c962567d75963892bf58604ff7646d788ca90a4aa0039e9a0923faa49a1449",
    "E7": "477bda94405ec7347f6f02f8b4f3fbd3e990634a1fb2cf75a7bd444327c7cdab",
    "E8": "a38c5c508236c5ee3a5ee301081dc25c409c7334822fc61a1ef935e406ba9b73",
    "E9": "34f9de293d72e7edd7c94d359d3accb94a485fc12587b3edf33a85baed41272e",
    "E10": "0c366beead9b6c8d8d5089ded9eb32b7b642cfcce50dd771c539557ac68a7350",
    "E11": "3837616a89d88dafdfaf9a690377b34eaf9083d006ad620f08298bcdb6025e2b",
    "E12": "caa5b9591a1469bb1b976fb16e920419b39bfd707fee7713200686d77d20eb9b",
    "E13": "cf57519574a2292949c24e2a40604fb8100c508bbf1c9f7dabdc66c03b27243b",
    "E14": "a49cd3b49eed2ff1265a621d4c832850679963bfbd717a239b5eaecd4ab0daba",
    "E15": "7156b9b46ddac3403b831408329a23cc721608a827b7a4ace98772eb448805d8",
    "E16": "c768247ead30e92742887a35974b8acf30f2996a77aa3fb545cce157e61fa987",
}


@pytest.mark.parametrize("experiment_id", sorted(RAW_ROW_SHA256))
def test_default_grid_rows_are_pinned(experiment_id):
    rows = ALL_EXPERIMENTS[experiment_id]().rows
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == RAW_ROW_SHA256[experiment_id]


#: E2's default ``k`` up to 32.
E2_KS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
E2_RAW_ROW_SHA256 = (
    "7e3177c22ea09b032f975f582cb051177baf9ba335c33407d6b1161498504912"
)


def test_e2_rows_are_pinned_to_k32():
    rows = ALL_EXPERIMENTS["E2"](ks=E2_KS).rows
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == E2_RAW_ROW_SHA256
