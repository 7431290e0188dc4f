"""Thread-safe, bounded, signature-keyed LRU — the one warm-cache primitive.

Every expensive artifact the library keeps warm — compiled neighborhood
tables (:func:`repro.core.encoding.tables_for`), a sweep runner's
per-system engines and runners, and the serving tier's chains, verdicts,
parametric structures, experiment results and campaign-store reports —
lives in a :class:`SignatureLRU` keyed by a *canonical content
signature* (see :func:`repro.store.columnar.system_cache_key`), never by
object identity: ids are recycled by a long-lived interpreter,
signatures are not.

Builds are single-flight per key: when two threads race for the same
cold key, one builds and the other waits for and inherits the result,
while builds of *other* keys proceed concurrently.  A build that raises
caches nothing, so the next caller builds again.

The locks are re-created in a forked child (``os.register_at_fork``): a
fork taken while another thread held one would otherwise leave it locked
forever in the child.  The entries themselves survive the fork, which is
how forked campaign workers share their parent's compiled tables
copy-on-write.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Callable, TypeVar

__all__ = ["SignatureLRU"]

T = TypeVar("T")

_MISSING = object()

#: Every live cache, so a forked child can re-create their locks.
_LIVE: "weakref.WeakSet[SignatureLRU]" = weakref.WeakSet()


class SignatureLRU:
    """A bounded mapping ``signature → artifact`` with LRU eviction.

    ``maxsize`` bounds the entry count (``None`` disables eviction —
    only sensible for caches whose key space is statically bounded).
    ``get_or_build(key, build)`` is the only write path: it
    returns the cached artifact, refreshing recency, or invokes
    ``build()`` and caches its result.  Hit/miss/eviction counters feed
    ``stats()``.
    """

    def __init__(self, name: str, maxsize: int | None = 32) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(
                f"maxsize must be >= 1 or None, got {maxsize}"
            )
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._after_fork()
        _LIVE.add(self)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        # key → lock held by the thread currently building that key.
        self._flights: dict[object, threading.Lock] = {}

    def _lookup(self, key: object) -> object:
        """Cached artifact (counted as a hit) or ``_MISSING``; call
        under the lock."""
        found = self._entries.get(key, _MISSING)
        if found is not _MISSING:
            self.hits += 1
            self._entries.move_to_end(key)
        return found

    def get_or_build(self, key: object, build: Callable[[], T]) -> T:
        """The cached artifact for ``key``, building it on first use."""
        with self._lock:
            found = self._lookup(key)
            if found is not _MISSING:
                return found  # type: ignore[return-value]
            flight = self._flights.setdefault(key, threading.Lock())
        with flight:
            with self._lock:
                found = self._lookup(key)
                if found is not _MISSING:
                    return found  # type: ignore[return-value]
                self.misses += 1
            try:
                artifact = build()
            except BaseException:
                with self._lock:
                    self._land(key, flight)
                raise
            with self._lock:
                self._land(key, flight)
                self._insert(key, artifact)
            return artifact

    def _land(self, key: object, flight: threading.Lock) -> None:
        """Retire ``key``'s flight (unless a fork already replaced it)."""
        if self._flights.get(key) is flight:
            del self._flights[key]

    def _insert(self, key: object, artifact: object) -> None:
        self._entries[key] = artifact
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (counters survive; they are cumulative)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, object]:
        """Counter snapshot for the stats endpoint."""
        with self._lock:
            return {
                "name": self.name,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _reinit_after_fork() -> None:
    for cache in list(_LIVE):
        cache._after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)
