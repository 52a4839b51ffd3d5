"""Persistent cross-run service-time store (the disk tier under the LRU).

The serving cluster memoises batch service times in a bounded in-memory
LRU, so a QPS sweep only simulates new batch *compositions* -- but every
process start begins cold, and a re-run of ``bench_slo_admission.py`` or
a repeated CLI ``serve`` pays the full set of exact cycle simulations
again.  :class:`ServiceTimeStore` removes that: a small sqlite database
(one file, stdlib only) keyed by

``(cluster/system config fingerprint, kernel flavor, batch content
fingerprint)``

so a warm store answers a repeated run with *zero* exact simulations.
The config fingerprint covers everything that changes a batch's service
time -- node system, node count, build overrides, sharder placement --
and the kernel flavor is part of the key because different command-issue
kernels are only bit-identical within a repo version; a flavor or config
mismatch is therefore a plain miss, never a wrong answer.  A schema or
repo-version bump drops the stored entries wholesale (explicit
invalidation), and every consumer exposes an escape hatch
(``service_store=None`` / CLI ``--no-service-store``).

Store failures are deliberately non-fatal: a corrupt or unwritable store
degrades to a miss (and stops being written), never crashes a run --
this is a cache tier, not a source of truth.
"""

import hashlib
import os
import sqlite3
from pathlib import Path

#: Bump to invalidate every stored service time (e.g. when simulator
#: semantics change in a way that is not captured by the config/flavor
#: key).  Stored under the ``meta`` table; a mismatch drops the entries.
SCHEMA_VERSION = 1

#: Environment variable naming the directory the default store lives in.
STORE_DIR_ENV = "REPRO_SERVICE_STORE_DIR"

#: Filename of the default store inside the resolved cache directory.
STORE_FILENAME = "service_times.sqlite"


def default_store_path():
    """The default on-disk location of the service-time store.

    ``$REPRO_SERVICE_STORE_DIR/service_times.sqlite`` when the variable
    is set, else the conventional per-user cache directory
    (``$XDG_CACHE_HOME`` or ``~/.cache``) under ``repro/``.
    """
    env_dir = os.environ.get(STORE_DIR_ENV)
    if env_dir:
        return Path(env_dir) / STORE_FILENAME
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / STORE_FILENAME


def stable_fingerprint(value):
    """Content-stable digest of a (nested) configuration value.

    ``repr`` alone is unsafe for callables -- the default function repr
    embeds a memory address that changes every run -- so callables are
    rendered as ``module.qualname`` (stable for module-level functions
    and bound methods, which is what the picklable-config contract of
    the process backends already requires).  Dicts render in sorted key
    order so construction order never changes the key.
    """
    return hashlib.sha1(_stable_repr(value).encode()).hexdigest()


def _stable_repr(value):
    if callable(value):
        self_obj = getattr(value, "__self__", None)
        prefix = "" if self_obj is None else \
            "%s." % _stable_repr(type(self_obj))
        return "<callable %s%s.%s>" % (
            prefix, getattr(value, "__module__", "?"),
            getattr(value, "__qualname__", type(value).__name__))
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (_stable_repr(k), _stable_repr(value[k]))
            for k in sorted(value, key=_stable_repr))
    if isinstance(value, (list, tuple)):
        body = ", ".join(_stable_repr(v) for v in value)
        return "[%s]" % body if isinstance(value, list) \
            else "(%s)" % body
    # repro-lint: allow-fingerprint-hygiene (scalar-leaf fallback: str, int, float, bool and None all have content-stable reprs)
    return repr(value)


def batch_key_digest(batch_key):
    """Stable digest of a cluster service-cache key.

    The cluster's in-memory key is a tuple of per-query content
    fingerprints (hex strings), optionally paired with the per-request
    node assignment for stateful sharders -- both repr-stable -- so one
    sha1 over the repr is a safe fixed-size column value.
    """
    # repro-lint: allow-fingerprint-hygiene (keys are tuples of hex-string fingerprints and ints, repr-stable by construction)
    return hashlib.sha1(repr(batch_key).encode()).hexdigest()


class ServiceTimeStore:
    """Sqlite-backed persistent map of batch service times.

    Parameters
    ----------
    path:
        Database file location; parent directories are created.  ``None``
        resolves :func:`default_store_path`.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else default_store_path()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._connection = None
        self._broken = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._connection = sqlite3.connect(
                str(self.path), timeout=30.0, isolation_level=None)
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA busy_timeout=30000")
            self._ensure_schema()
        except Exception:  # repro-lint: allow-broad-except-audit (an unusable store degrades to a permanent miss, never a crash)
            self._broken = True
            if self._connection is not None:
                try:
                    self._connection.close()
                except Exception:  # repro-lint: allow-broad-except-audit (best-effort close of a connection already known to be broken)
                    pass
                self._connection = None

    # ------------------------------------------------------------------ #
    def _ensure_schema(self):
        con = self._connection
        con.execute("CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT)")
        row = con.execute("SELECT value FROM meta WHERE key = "
                          "'schema_version'").fetchone()
        if row is not None and int(row[0]) != SCHEMA_VERSION:
            # Version bump: the stored entries are stale.
            con.execute("DROP TABLE IF EXISTS service_times")
        con.execute(
            "CREATE TABLE IF NOT EXISTS service_times ("
            " config TEXT NOT NULL,"
            " flavor TEXT NOT NULL,"
            " batch TEXT NOT NULL,"
            " service_us REAL NOT NULL,"
            " PRIMARY KEY (config, flavor, batch))")
        con.execute("INSERT OR REPLACE INTO meta VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),))

    def _flavor(self):
        from repro.core import kernels

        return kernels.active_flavor()

    # ------------------------------------------------------------------ #
    def get(self, config_fingerprint, batch_key):
        """Stored service time for a batch, or ``None`` on a miss."""
        if self._broken:
            self._misses += 1
            return None
        try:
            row = self._connection.execute(
                "SELECT service_us FROM service_times WHERE config = ? "
                "AND flavor = ? AND batch = ?",
                (config_fingerprint, self._flavor(),
                 batch_key_digest(batch_key))).fetchone()
        except Exception:  # repro-lint: allow-broad-except-audit (a failing read degrades to a miss and marks the store broken)
            self._broken = True
            row = None
        if row is None:
            self._misses += 1
            return None
        self._hits += 1
        return float(row[0])

    def put_many(self, config_fingerprint, pairs):
        """Record ``(batch_key, service_us)`` pairs in one transaction."""
        if self._broken:
            return
        rows = [(config_fingerprint, self._flavor(),
                 batch_key_digest(batch_key), float(service_us))
                for batch_key, service_us in pairs]
        if not rows:
            return
        try:
            self._connection.executemany(
                "INSERT OR REPLACE INTO service_times VALUES (?, ?, ?, ?)",
                rows)
        except Exception:  # repro-lint: allow-broad-except-audit (a failing write is dropped and marks the store broken; callers never crash a run over the cache)
            self._broken = True
            return
        self._puts += len(rows)

    def merge_counters(self, hits=0, misses=0, puts=0):
        """Fold a sweep worker's hit/miss/put deltas into this store.

        Workers open their own connection at the same path, so their
        *entries* are already visible here; only the counters need to
        travel back for the parent's reported statistics to cover the
        whole run.
        """
        self._hits += int(hits)
        self._misses += int(misses)
        self._puts += int(puts)

    def invalidate(self, config_fingerprint=None):
        """Drop stored entries -- one configuration's, or all of them."""
        if self._broken:
            return
        try:
            if config_fingerprint is None:
                self._connection.execute("DELETE FROM service_times")
            else:
                self._connection.execute(
                    "DELETE FROM service_times WHERE config = ?",
                    (config_fingerprint,))
        except Exception:  # repro-lint: allow-broad-except-audit (a failing invalidate marks the store broken so stale entries can never be served)
            self._broken = True

    def __len__(self):
        if self._broken:
            return 0
        try:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM service_times").fetchone()
        except Exception:  # repro-lint: allow-broad-except-audit (a failing count reports an empty store and marks it broken)
            self._broken = True
            return 0
        return int(row[0])

    def stats(self):
        """``{"path", "entries", "hits", "misses", "puts"}`` snapshot."""
        return {"path": str(self.path),
                "entries": len(self),
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts}

    def close(self):
        """Release the database connection (idempotent)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:  # repro-lint: allow-broad-except-audit (close is best-effort; the store is marked broken either way)
                pass
            self._connection = None
            self._broken = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def describe(self):
        state = "broken" if self._broken and self._connection is None \
            else "open"
        return "service-store(%s, %s)" % (self.path, state)

    def __getstate__(self):
        """Pickle as the path alone: connections never cross processes.

        A sweep worker that receives a store reopens it from the path --
        sqlite's WAL journal and busy timeout make concurrent
        worker/parent access safe.
        """
        return {"path": str(self.path)}

    def __setstate__(self, state):
        self.__init__(state["path"])


def resolve_service_store(store):
    """Normalise a ``service_store=`` argument.

    ``None`` disables the disk tier (the escape hatch), a ready
    :class:`ServiceTimeStore` is used as-is, ``True``/``"default"``
    opens the default-path store, and a string or path opens a store at
    that file.
    """
    if store is None:
        return None
    if isinstance(store, ServiceTimeStore):
        return store
    if store is True or store == "default":
        return ServiceTimeStore()
    if isinstance(store, (str, Path)):
        return ServiceTimeStore(store)
    raise ValueError("unknown service store %r; pass None, a path, "
                     "'default', or a ServiceTimeStore instance" % (store,))
