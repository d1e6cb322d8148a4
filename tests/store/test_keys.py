"""repro.store.keys: canonical serialization and content addressing.

The cache contract rests on two properties tested here: equal specs
always serialize (and hash) identically regardless of how the caller
spelled them, and every field of a :class:`ResultKey` — version tag
included — perturbs the digest, so distinct specs can never share an
address.
"""

import hashlib
import math

import pytest

from repro.store import (
    CODE_VERSIONS,
    STORE_FORMAT,
    ResultKey,
    canonical_json,
    code_version,
)

KEY = ResultKey(
    experiment="E1",
    params={"n": 64, "k": 4},
    seed=11,
    version="e1-disjointness-worstcase/1",
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_tuples_and_lists_identified(self):
        assert canonical_json((1, (2, 3))) == canonical_json([1, [2, 3]])

    def test_no_whitespace_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == (
            '{"a":null,"b":[1,2]}'
        )

    def test_floats_round_trip_shortest_form(self):
        # json uses repr (shortest round-tripping form), so a float
        # survives serialize -> parse bit-exactly.
        import json

        for value in (0.1, 1 / 3, 2.0**-40, 1e300, -0.0):
            assert json.loads(canonical_json(value)) == value

    def test_non_ascii_escaped(self):
        assert canonical_json("π") == '"\\u03c0"'

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, {1: "non-string key"}, object(),
         {"x": [object()]}],
        ids=["nan", "inf", "-inf", "int-key", "object", "nested-object"],
    )
    def test_unserializable_values_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_json(bad)


class TestResultKey:
    def test_pinned_serialization_and_digest(self):
        # Frozen: if either of these drifts, every existing store entry
        # becomes unreachable — that must be a deliberate format bump
        # (STORE_FORMAT), never an accident.
        assert canonical_json(KEY.to_dict()) == (
            '{"experiment":"E1","format":"repro.store/1",'
            '"params":{"k":4,"n":64},"seed":11,'
            '"version":"e1-disjointness-worstcase/1"}'
        )
        assert KEY.digest == (
            "3bf0904d92070866d94a042faf6bc01ca894ef7fb4b8eaa295fc0d08383608b7"
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"k": 4, "n": 64},
            {
                "grid": ((64, 4), (256, 8)),
                "opts": {"b": [1.5, None], "a": True},
            },
            [3, "x", {"z": -0.0}],
        ],
    )
    def test_canonical_is_the_serialized_mapping(self, params):
        key = ResultKey(
            experiment="E1", params=params, seed=None, version="v"
        )
        payload, digest = key.canonical()
        assert payload == canonical_json(key.to_dict()).encode("ascii")
        assert digest == hashlib.sha256(payload).hexdigest()

    def test_bad_params_fail_alike_in_both_spellings(self):
        key = ResultKey(experiment="E1", params={"x": [math.nan]}, seed=None,
                        version="v")
        with pytest.raises(ValueError) as via_dict:
            key.to_dict()
        with pytest.raises(ValueError) as via_canonical:
            key.canonical()
        assert str(via_canonical.value) == str(via_dict.value)

    def test_format_tag_participates(self):
        assert KEY.to_dict()["format"] == STORE_FORMAT

    def test_param_spelling_does_not_change_address(self):
        respelled = ResultKey(
            experiment="E1",
            params={"k": 4, "n": 64},  # different insertion order
            seed=11,
            version="e1-disjointness-worstcase/1",
        )
        assert respelled.digest == KEY.digest

    @pytest.mark.parametrize(
        "field,value",
        [
            ("experiment", "E2"),
            ("params", {"n": 64, "k": 5}),
            ("seed", 12),
            ("seed", None),
            ("version", "e1-disjointness-worstcase/2"),
        ],
    )
    def test_every_field_perturbs_the_digest(self, field, value):
        from dataclasses import replace

        assert replace(KEY, **{field: value}).digest != KEY.digest

    def test_seed_none_distinct_from_zero(self):
        from dataclasses import replace

        assert replace(KEY, seed=None).digest != replace(KEY, seed=0).digest


class TestCodeVersions:
    def test_registered_kernels(self):
        for kernel in ("E1", "E2", "E4", "E14", "E14-external"):
            assert code_version(kernel) == CODE_VERSIONS[kernel]

    def test_unregistered_kernel_is_an_error(self):
        with pytest.raises(ValueError, match="no registered code version"):
            code_version("E999")

    def test_tags_are_unique(self):
        tags = list(CODE_VERSIONS.values())
        assert len(tags) == len(set(tags))
