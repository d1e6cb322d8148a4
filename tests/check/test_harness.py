"""The fuzz driver end to end: suite runs, shrinking, bundles, CLI.

The failure path is exercised with a deliberately broken oracle — an
``InvariantsOracle`` whose clean comparison is routed through the
``drop-last-round`` planted bug — so that shrinking and bundle writing
run against real failures while the production oracles stay correct.
"""

import json

import pytest

from repro.check import (
    ALL_ORACLES,
    InvariantsOracle,
    generate_case,
    load_bundle,
    replay_bundle,
    run_case,
    run_suite,
    shrink_case,
)
from repro.check.__main__ import main
from repro.check.bundle import BUNDLE_FORMAT


class BuggyChainOracle(InvariantsOracle):
    """Pretends the chain-rule reference drops its last round."""

    def check(self, case, bug=None):
        return super().check(case, bug=bug or "drop-last-round")


def _first_failing_case(oracle, limit=20):
    for index in range(limit):
        case = generate_case(0, index)
        if not run_case(case, oracles=[oracle]).ok:
            return case
    raise AssertionError("buggy oracle never fired")


class TestRunSuite:
    def test_clean_smoke(self):
        report = run_suite(0, 10)
        assert report.ok
        assert report.cases_run == 10
        assert not report.budget_exhausted
        assert not report.bundle_paths

    def test_wall_clock_budget_stops_cleanly(self):
        report = run_suite(0, 10_000, max_seconds=0.0)
        assert report.budget_exhausted
        assert report.cases_run < 10_000
        assert report.ok  # stopping early is not a failure

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_suite(0, 5, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_failures_are_shrunk_and_bundled(self, tmp_path):
        oracle = BuggyChainOracle()
        report = run_suite(
            0, 4, oracles=[oracle], bundle_dir=str(tmp_path)
        )
        assert not report.ok
        assert report.failures
        assert len(report.bundle_paths) == len(report.failures)
        for path in report.bundle_paths:
            bundle = load_bundle(path)
            assert bundle.failing_oracles == [oracle.name]
            assert (
                bundle.shrunk_spec.complexity() <= bundle.spec.complexity()
            )
            # The shrunk witness still trips the buggy oracle ...
            assert any(
                not r.ok
                for r in replay_bundle(path, oracles=[oracle])
            )
            # ... and the production oracle, replayed honestly from the
            # bundle's own failing-oracle names, passes: the planted bug
            # lives in the reference copy, not the production code.
            assert all(r.ok for r in replay_bundle(path))


class TestShrinking:
    def test_shrink_reaches_a_local_minimum(self):
        oracle = BuggyChainOracle()
        case = _first_failing_case(oracle)

        def still_fails(candidate):
            return not run_case(candidate, oracles=[oracle]).ok

        shrunk = shrink_case(case, still_fails)
        assert shrunk.spec.complexity() <= case.spec.complexity()
        assert still_fails(shrunk)

    def test_exceptions_count_as_still_failing(self):
        case = generate_case(0, 0)

        def exploding(candidate):
            raise RuntimeError("oracle crashed on the candidate")

        # The original case "fails" by hypothesis; every candidate
        # explodes, which must be treated as still-failing, so shrinking
        # walks toward the smallest candidate instead of giving up.
        shrunk = shrink_case(case, exploding)
        assert shrunk.spec.complexity() <= case.spec.complexity()


class TestCrashingOracle:
    def test_oracle_exception_is_a_failure_not_a_crash(self):
        class ExplodingOracle(InvariantsOracle):
            name = "exploding"

            def check(self, case, bug=None):
                raise RuntimeError("boom")

        report = run_case(generate_case(0, 0), oracles=[ExplodingOracle()])
        assert not report.ok
        assert "boom" in report.failures[0].details


class TestCli:
    def test_fuzz_smoke_exit_zero(self, tmp_path, capsys):
        rc = main(
            [
                "--seed", "0", "--cases", "5",
                "--bundle-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: 5/5 cases" in out

    def test_oracle_subset_and_unknown_name(self, tmp_path):
        rc = main(
            [
                "--seed", "0", "--cases", "3",
                "--oracles", "model-discipline,topology-discipline",
                "--bundle-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        with pytest.raises(SystemExit):
            main(["--cases", "1", "--oracles", "nonexistent"])

    def test_replay_round_trip(self, tmp_path, capsys):
        oracle = BuggyChainOracle()
        report = run_suite(0, 4, oracles=[oracle], bundle_dir=str(tmp_path))
        path = report.bundle_paths[0]
        with open(path) as handle:
            assert json.load(handle)["format"] == BUNDLE_FORMAT
        # Honest replay re-runs the production invariants oracle.
        rc = main(["--replay", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passes" in out or "ok" in out.lower()

    def test_replay_of_an_unknown_oracle_exits_2(self, tmp_path, capsys):
        report = run_suite(
            0, 4, oracles=[BuggyChainOracle()], bundle_dir=str(tmp_path)
        )
        path = report.bundle_paths[0]
        with open(path) as handle:
            payload = json.load(handle)
        for failure in payload["failures"]:
            failure["oracle"] = "batched-vs-legacy"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SystemExit) as exit_info:
            main(["--replay", path])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown oracle 'batched-vs-legacy'" in err
        assert "known: [" in err


def test_all_oracles_have_unique_names():
    names = [oracle.name for oracle in ALL_ORACLES]
    assert len(names) == len(set(names))
