"""The golden-file module: comparison messages, sectioned checks, and
byte-identical rewrites of every committed golden."""

import pathlib
import shutil

import pytest

from repro import goldens
from repro.harness.registry import REGISTRY

ROOT = pathlib.Path(goldens.ROOT)

#: Each committed exact-fingerprint file with its section (None for a
#: whole-file golden).
SECTIONS = {exp.golden[0]: exp.golden[1]
            for exp in REGISTRY.values() if exp.golden}
COMMITTED = sorted(SECTIONS.items()) + [
    (str(path.relative_to(ROOT)), None)
    for path in sorted((ROOT / "tests" / "goldens").glob("*.json"))]


class TestCompare:
    def test_equal_fingerprints_have_no_mismatches(self):
        assert goldens.compare({"a": 1, "b": {"c": 2}},
                               {"a": 1, "b": {"c": 2}}) == []

    def test_each_differing_leaf_is_named(self):
        fresh = {"committed": 69, "counters": {"hit": 503, "miss": 10}}
        pinned = {"committed": 69, "counters": {"hit": 781, "miss": 10}}
        assert goldens.compare(fresh, pinned) == [
            "counters.hit = 503, golden 781"]

    def test_fields_missing_on_either_side_are_reported(self):
        assert goldens.compare({"a": 1, "new": 2}, {"a": 1, "old": 3}) == [
            "new = 2, golden None", "old = None, golden 3"]


class TestCheck:
    def test_missing_file(self, tmp_path):
        (failure,) = goldens.check(tmp_path / "absent.json", {"a": 1})
        assert failure.startswith("no golden file at")

    def test_sectioned_check_covers_only_the_entries_that_ran(self, tmp_path):
        path = tmp_path / "suite.json"
        goldens.update(path, {"0": {"x": 1}, "1": {"x": 2}}, "seeds")
        assert goldens.check(path, {"1": {"x": 2}}, "seeds") == []
        assert goldens.check(path, {"1": {"x": 5}, "7": {"x": 0}},
                             "seeds") == ["1: x = 5, golden 2",
                                          "7: no golden entry"]

    def test_sectioned_update_merges_over_pinned_entries(self, tmp_path):
        path = tmp_path / "suite.json"
        goldens.update(path, {"0": {"x": 1}, "1": {"x": 2}}, "seeds")
        goldens.update(path, {"1": {"x": 9}}, "seeds")
        assert goldens.load(path) == {"seeds": {"0": {"x": 1},
                                                "1": {"x": 9}}}

    def test_check_with_update_writes_instead(self, tmp_path):
        path = tmp_path / "whole.json"
        assert goldens.check(path, {"b": 1, "a": 2},
                             update_golden=True) == []
        # Whole-file goldens keep the producer's field order.
        assert path.read_text() == '{\n  "b": 1,\n  "a": 2\n}\n'
        assert goldens.check(path, {"b": 1, "a": 3}) == [
            "a = 3, golden 2"]

    def test_update_env_var_rewrites_instead(self, tmp_path, monkeypatch):
        path = tmp_path / "whole.json"
        goldens.update(path, {"a": 1})
        monkeypatch.setenv("REPRO_UPDATE_GOLDENS", "1")
        assert goldens.check(path, {"a": 2}) == []
        assert goldens.load(path) == {"a": 2}
        monkeypatch.setenv("REPRO_UPDATE_GOLDENS", "0")
        assert goldens.check(path, {"a": 3}) == ["a = 3, golden 2"]

    @pytest.mark.parametrize("name,section", COMMITTED)
    def test_rewrite_of_committed_golden_is_byte_identical(
            self, tmp_path, name, section):
        doc = goldens.load(name)
        copy = tmp_path / "copy.json"
        goldens.update(copy, doc if section is None else doc[section],
                       section)
        assert copy.read_bytes() == (ROOT / name).read_bytes()
        # Merging the same entries over the committed file is a no-op.
        shutil.copy(ROOT / name, copy)
        goldens.update(copy, doc if section is None else doc[section],
                       section)
        assert copy.read_bytes() == (ROOT / name).read_bytes()
