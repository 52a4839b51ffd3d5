"""Tests for the persistent cross-run service-time store."""

import pickle

import pytest

from repro.core import kernels
from repro.perf import service_store
from repro.perf.service_store import (
    STORE_DIR_ENV,
    STORE_FILENAME,
    ServiceTimeStore,
    batch_key_digest,
    default_store_path,
    resolve_service_store,
    stable_fingerprint,
)

CONFIG = "config-fingerprint"
KEY = ("deadbeef", "cafebabe")


class TestStableFingerprint:
    def test_deterministic_and_content_sensitive(self):
        value = {"b": 2, "a": [1, (2, 3)]}
        assert stable_fingerprint(value) == stable_fingerprint(
            {"a": [1, (2, 3)], "b": 2})
        assert stable_fingerprint(value) != stable_fingerprint(
            {"a": [1, (2, 4)], "b": 2})

    def test_callables_render_without_addresses(self):
        # Two lookups of the same module-level function must agree even
        # though the default repr embeds a memory address.
        assert stable_fingerprint(default_store_path) == \
            stable_fingerprint(default_store_path)
        assert "<callable" in service_store._stable_repr(default_store_path)

    def test_bound_methods_carry_their_type(self, tmp_path):
        store = ServiceTimeStore(tmp_path / "store.sqlite")
        text = service_store._stable_repr(store.stats)
        assert "ServiceTimeStore" in text
        store.close()

    def test_batch_key_digest_is_stable(self):
        assert batch_key_digest(KEY) == batch_key_digest(("deadbeef",
                                                          "cafebabe"))
        assert batch_key_digest(KEY) != batch_key_digest(KEY + ("00",))


class TestDefaultPath:
    def test_env_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "cache"))
        assert default_store_path() == tmp_path / "cache" / STORE_FILENAME

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_path() == \
            tmp_path / "xdg" / "repro" / STORE_FILENAME


class TestServiceTimeStore:
    def test_round_trip_and_counters(self, tmp_path):
        with ServiceTimeStore(tmp_path / "store.sqlite") as store:
            assert store.get(CONFIG, KEY) is None          # miss
            store.put_many(CONFIG, [(KEY, 123.5)])
            assert store.get(CONFIG, KEY) == 123.5         # hit
            assert len(store) == 1
            stats = store.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["puts"] == 1

    def test_entries_survive_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ServiceTimeStore(path) as store:
            store.put_many(CONFIG, [(KEY, 7.0)])
        with ServiceTimeStore(path) as store:
            assert store.get(CONFIG, KEY) == 7.0

    def test_config_namespaces_are_disjoint(self, tmp_path):
        with ServiceTimeStore(tmp_path / "store.sqlite") as store:
            store.put_many("config-a", [(KEY, 1.0)])
            assert store.get("config-b", KEY) is None
            store.invalidate("config-b")
            assert store.get("config-a", KEY) == 1.0
            store.invalidate("config-a")
            assert store.get("config-a", KEY) is None

    def test_kernel_flavor_is_part_of_the_key(self, tmp_path):
        with ServiceTimeStore(tmp_path / "store.sqlite") as store:
            store.put_many(CONFIG, [(KEY, 5.0)])
            with kernels.force_flavor("flat-python"):
                # A different command-issue kernel flavour must miss.
                assert store.get(CONFIG, KEY) is None
                store.put_many(CONFIG, [(KEY, 6.0)])
            assert store.get(CONFIG, KEY) == 5.0
            assert len(store) == 2

    def test_invalidate_all(self, tmp_path):
        with ServiceTimeStore(tmp_path / "store.sqlite") as store:
            store.put_many(CONFIG, [(KEY, 1.0), (("aa",), 2.0)])
            assert len(store) == 2
            store.invalidate()
            assert len(store) == 0

    def test_schema_version_bump_drops_entries(self, tmp_path,
                                               monkeypatch):
        path = tmp_path / "store.sqlite"
        with ServiceTimeStore(path) as store:
            store.put_many(CONFIG, [(KEY, 9.0)])
        monkeypatch.setattr(service_store, "SCHEMA_VERSION", 999)
        with ServiceTimeStore(path) as store:
            assert len(store) == 0
            assert store.get(CONFIG, KEY) is None

    def test_broken_store_degrades_to_miss(self, tmp_path):
        # A directory is not a database: the store must come up broken
        # and every operation must be a quiet no-op / miss.
        store = ServiceTimeStore(tmp_path)
        assert store.get(CONFIG, KEY) is None
        store.put_many(CONFIG, [(KEY, 1.0)])
        store.invalidate()
        assert len(store) == 0
        assert "broken" in store.describe()
        store.close()

    def test_closed_store_is_a_miss(self, tmp_path):
        store = ServiceTimeStore(tmp_path / "store.sqlite")
        store.put_many(CONFIG, [(KEY, 1.0)])
        store.close()
        assert store.get(CONFIG, KEY) is None

    def test_pickles_as_path(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ServiceTimeStore(path) as store:
            store.put_many(CONFIG, [(KEY, 3.0)])
            clone = pickle.loads(pickle.dumps(store))
        # The clone reopened its own connection from the path and sees
        # the original's entries, but starts with fresh counters.
        assert clone.path == path
        assert clone.get(CONFIG, KEY) == 3.0
        assert clone.stats()["hits"] == 1
        clone.close()

    def test_merge_counters(self, tmp_path):
        with ServiceTimeStore(tmp_path / "store.sqlite") as store:
            store.merge_counters(hits=2, misses=3, puts=4)
            stats = store.stats()
            assert (stats["hits"], stats["misses"], stats["puts"]) == \
                (2, 3, 4)


class TestResolveServiceStore:
    def test_none_disables(self):
        assert resolve_service_store(None) is None

    def test_instance_passes_through(self, tmp_path):
        store = ServiceTimeStore(tmp_path / "store.sqlite")
        assert resolve_service_store(store) is store
        store.close()

    def test_default_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "cache"))
        for spec in (True, "default"):
            store = resolve_service_store(spec)
            assert store.path == tmp_path / "cache" / STORE_FILENAME
            store.close()

    def test_path_opens_there(self, tmp_path):
        store = resolve_service_store(tmp_path / "elsewhere.sqlite")
        assert store.path == tmp_path / "elsewhere.sqlite"
        store.close()

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_service_store(123)
