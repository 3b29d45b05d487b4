"""Single-flight request coalescing + the durable result journal.

Two layers of "never compute the same verdict twice" sit in front of
the daemon's compute path:

* :class:`SingleFlight` — concurrent requests whose inputs share a
  manifest fingerprint coalesce onto one in-flight computation: the
  first claimant becomes the *leader* and computes; followers await
  the leader's future.  The map never leaks: the leader's resolve (or
  failure) removes the key, so a later identical request either hits
  the result cache or starts fresh.

* :class:`ResultJournal` — a durable key → response cache over the
  same CRC-framed WAL the checkpoint stack uses
  (:mod:`repro.persistence.journal`).  Fully *decided* responses are
  appended (fsynced) as they land and recovered at boot, so a
  restarted daemon serves warm answers immediately and "the same
  question twice" costs one disk append, ever.  UNKNOWN-bearing
  responses are deliberately never stored: a budget-exhausted
  non-verdict must be re-attempted, not cached (the same policy resume
  applies to journaled UNKNOWN cells).

Persistence failures are non-fatal here too: the journal degrades to
memory-only on the first ``OSError`` and says so through
:attr:`ResultJournal.degraded`, which the daemon's ``/healthz``
surfaces.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from pathlib import Path

from repro.persistence.journal import JournalWriter, recover_journal

#: in-memory result-cache entries kept (LRU beyond this)
DEFAULT_CACHE_LIMIT = 4096


def lru_put(cache: OrderedDict, key, value, limit: int) -> None:
    """Insert or refresh ``key`` as most recent; evict past ``limit``."""
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > limit:
        cache.popitem(last=False)


class SingleFlight:
    """Key-coalescing map of in-flight computations (asyncio-side)."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def claim(self, key: str) -> tuple[asyncio.Future, bool]:
        """Join the in-flight computation for ``key``.

        Returns ``(future, leader)``: the leader must eventually call
        :meth:`resolve` or :meth:`fail`; followers just await the
        future.  The returned future must not be cancelled by
        followers — it is shared (the service awaits it through
        :func:`asyncio.shield`).
        """
        future = self._inflight.get(key)
        if future is not None:
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return future, True

    def resolve(self, key: str, result) -> None:
        """Deliver the leader's result to every waiter; release the key."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def fail(self, key: str, error: BaseException) -> None:
        """Propagate the leader's failure to every waiter; release the key."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(error)

    def abort_all(self, error: BaseException) -> None:
        """Fail every in-flight key (drain that ran out of grace)."""
        for key in list(self._inflight):
            self.fail(key, error)


class ResultJournal:
    """Durable LRU of decided responses, keyed by request fingerprint.

    ``path=None`` runs memory-only (no checkpoint dir configured); the
    API is identical so the service never branches.
    """

    def __init__(
        self,
        path: str | Path | None,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        self._cache: OrderedDict[str, dict] = OrderedDict()
        #: entries kept in memory (the least recently used go first)
        self.limit = max(1, int(cache_limit))
        self._writer: JournalWriter | None = None
        self.degraded = False
        self.degraded_reason: str | None = None
        self.recovered = 0
        if path is None:
            return
        journal_path = Path(path)
        try:
            journal_path.parent.mkdir(parents=True, exist_ok=True)
            records, _ = recover_journal(journal_path)
            for record in records:
                if (
                    isinstance(record, dict)
                    and record.get("type") == "result"
                    and isinstance(record.get("key"), str)
                    and isinstance(record.get("response"), dict)
                ):
                    lru_put(
                        self._cache, record["key"], record["response"], self.limit
                    )
                    self.recovered += 1
            self._writer = JournalWriter(journal_path)
        except OSError as error:
            self._degrade(f"result journal unusable: {error}")

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, key: str) -> dict | None:
        """The cached response for ``key`` (LRU-refreshing), or None."""
        response = self._cache.get(key)
        if response is not None:
            self._cache.move_to_end(key)
        return response

    def put(self, key: str, response: dict) -> None:
        """Remember a decided response; journal it when durable."""
        lru_put(self._cache, key, response, self.limit)
        if self._writer is None or self.degraded:
            return
        try:
            self._writer.append(
                {"type": "result", "key": key, "response": response}
            )
        except OSError as error:
            self._degrade(f"result journal append failed: {error}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        self.degraded = True
        self.degraded_reason = reason
        self.close()

    def close(self) -> None:
        """Close the journal writer (idempotent; drain calls this)."""
        if self._writer is not None:
            try:
                self._writer.close()
            except OSError:
                pass
            self._writer = None

    def snapshot(self) -> dict:
        """JSON-ready accounting for ``/stats``."""
        return {
            "entries": len(self._cache),
            "recovered": self.recovered,
            "durable": self._writer is not None,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }
