"""One cache directory shared between runs: the disk tier's contract.

Any ``--cache-dir`` is the store that separate batch runs, sessions and
daemon replicas share, so these checks pin what every sharer relies on:
hits carry tier ``disk``, failures and stale or torn entries never hit,
and the LRU cap bounds the directory.  Cross-process sharing itself is
exercised in :mod:`tests.engine.test_cache`.
"""

import json

import pytest

from repro.cli import main
from repro.engine import CACHE_SCHEMA_VERSION, CheckResult, ResultCache


def make_result(name="unit.c", key="k" * 64):
    return CheckResult(name=name, cache_key=key, unification_steps=7)


class TestRoundTrip:
    def test_miss_on_empty_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        assert store.load("a" * 64) is None
        assert store.stats()["misses"] == 1

    def test_store_then_load_marks_the_tier(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        store.store("a" * 64, make_result())
        # a second handle on the same directory stands in for another sharer
        loaded = ResultCache(tmp_path / "store").load("a" * 64)
        assert loaded is not None
        assert loaded.from_cache is True
        assert loaded.cache_tier == "disk"
        assert loaded.unification_steps == 7

    def test_failure_results_are_never_stored(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        failed = make_result()
        failed.failure = "worker exploded"
        store.store("a" * 64, failed)
        assert store.load("a" * 64) is None
        assert len(store) == 0

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = "a" * 64
        store.store(key, make_result())
        path = tmp_path / "store" / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = CACHE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        assert store.load(key) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = "a" * 64
        store.store(key, make_result())
        path = tmp_path / "store" / f"{key}.json"
        path.write_text("{torn write")
        assert store.load(key) is None

    def test_clear_empties_the_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        for index in range(3):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0


class TestEviction:
    def test_lru_cap_is_enforced(self, tmp_path):
        store = ResultCache(tmp_path / "store", max_entries=2)
        for index in range(4):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) <= 2
        assert store.evictions >= 2

    def test_uncapped_store_keeps_everything(self, tmp_path):
        store = ResultCache(tmp_path / "store", max_entries=None)
        for index in range(5):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) == 5


class TestWiring:
    """``--cache-dir`` is how a batch run joins a shared store."""

    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "unit.c").write_text("int helper(void) { return 0; }\n")
        return root

    def test_batch_cli_flag_round_trips(self, tree, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = ["batch", str(tree), "--cache-dir", store_dir, "--format", "json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cache"]["hits"] == 1
        assert data["units"][0]["cache_tier"] == "disk"
