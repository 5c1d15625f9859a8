"""Atomic lease files: task claims without a coordination service.

Independently launched ``repro-hetsim campaign --join`` processes --
possibly on different hosts sharing only the store filesystem -- must
agree on who runs each task without Raft, Redis, or any daemon.  The
content-addressed :class:`~repro.campaign.store.ResultStore` already
gives every task a stable identity (its SHA-256 spec hash) and an
atomic, last-writer-wins result slot.  Leases add the missing piece:
an advisory *claim* so peers usually avoid duplicating work.

Protocol (all plain POSIX, all safe on shared filesystems):

* **claim** -- ``open(..., O_CREAT | O_EXCL)`` of
  ``<store>/<model_version>/leases/<hash>.lease``.  Exactly one
  process wins; everyone else reads back the winner's record.
* **renew** -- the owner periodically rewrites the record with an
  incremented ``seq`` via mkstemp + ``os.replace`` (atomic; readers
  never observe a partial record).
* **staleness** -- *observer-side*: a peer watches ``(owner, seq)``
  per lease on its own monotonic clock and declares the lease stale
  only after the pair has not advanced for ``ttl_s``.  No cross-host
  clock synchronisation is required -- wall-clock fields in the
  record are informational only.
* **takeover** -- unlink the stale file, then claim via O_EXCL again.
  Two peers may race the takeover; O_EXCL picks exactly one winner.

Correctness does **not** depend on leases: tasks are deterministic
and the store write is atomic and content-addressed, so the worst
case of any race is duplicate execution producing byte-identical
payloads (last writer wins, same bytes).  Leases are purely a
throughput optimisation plus liveness signal -- which is why this
protocol can be this simple.

Malformed lease files (truncated writes from a crashed peer, say) are
quarantined to ``leases/quarantine/`` exactly like corrupt results,
counted, and treated as claimable.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..campaign.store import ResultStore

__all__ = ["Lease", "LeaseManager", "owner_fingerprint"]

#: Lease record schema version, stamped into every record.
LEASE_SCHEMA = 1


def owner_fingerprint() -> str:
    """A fingerprint unique to this worker process.

    Host + pid + a random component: pids recycle and two hosts can
    share a pid, so neither alone is safe as an identity.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class Lease:
    """One parsed lease record."""

    task_hash: str
    owner: str
    pid: int
    host: str
    seq: int
    claimed_unix: float
    renewed_unix: float
    ttl_s: float

    def payload(self) -> Dict[str, object]:
        return {
            "schema": LEASE_SCHEMA,
            "task_hash": self.task_hash,
            "owner": self.owner,
            "pid": self.pid,
            "host": self.host,
            "seq": self.seq,
            "claimed_unix": self.claimed_unix,
            "renewed_unix": self.renewed_unix,
            "ttl_s": self.ttl_s,
        }


_REQUIRED_FIELDS = (
    "task_hash",
    "owner",
    "seq",
    "ttl_s",
)


def _parse_lease(raw: bytes) -> Optional[Lease]:
    try:
        record = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    for field in _REQUIRED_FIELDS:
        if field not in record:
            return None
    try:
        return Lease(
            task_hash=str(record["task_hash"]),
            owner=str(record["owner"]),
            pid=int(record.get("pid", 0)),
            host=str(record.get("host", "")),
            seq=int(record["seq"]),
            claimed_unix=float(record.get("claimed_unix", 0.0)),
            renewed_unix=float(record.get("renewed_unix", 0.0)),
            ttl_s=float(record["ttl_s"]),
        )
    except (TypeError, ValueError):
        return None


class LeaseManager:
    """Claim, renew, observe, and take over task leases in one store.

    One manager per campaign worker process.  All lease lifecycle
    events are surfaced through
    :meth:`~repro.campaign.store.ResultStore.record_lease_event`, so
    they appear in ``repro_campaign_store_events_total`` alongside the
    store's hit/miss/write/corrupt counters and in the CLI campaign
    summary line.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        owner: Optional[str] = None,
        ttl_s: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.store = store
        self.owner = owner or owner_fingerprint()
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self.directory = (
            Path(store.directory) / store.model_version / "leases"
        )
        self.quarantine_dir = self.directory / "quarantine"
        # Observer-side staleness state: per task hash, the last
        # (owner, seq) we saw and when (our monotonic clock) we first
        # saw that exact pair.
        self._watch: Dict[str, Tuple[str, int, float]] = {}
        self._seq: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # paths

    def lease_path(self, task_hash: str) -> Path:
        return self.directory / f"{task_hash}.lease"

    # ------------------------------------------------------------------
    # owner-side lifecycle

    def claim(self, task_hash: str) -> bool:
        """Try to claim ``task_hash``; True when this process now owns it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(task_hash)
        record = self._record(task_hash, seq=0)
        try:
            fd = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, json.dumps(record.payload(), sort_keys=True).encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        self._seq[task_hash] = 0
        self.store.record_lease_event("claimed")
        return True

    def renew(self, task_hash: str) -> bool:
        """Heartbeat an owned lease; False when it was taken from us."""
        current = self.read(task_hash)
        if current is None or current.owner != self.owner:
            return False
        seq = self._seq.get(task_hash, current.seq) + 1
        self._seq[task_hash] = seq
        self._write_atomic(task_hash, self._record(task_hash, seq=seq))
        self.store.record_lease_event("renewed")
        return True

    def release(self, task_hash: str) -> None:
        """Drop an owned lease (task settled; result is in the store)."""
        current = self.read(task_hash)
        if current is not None and current.owner == self.owner:
            try:
                os.unlink(self.lease_path(task_hash))
            except FileNotFoundError:
                pass
            self.store.record_lease_event("released")
        self._seq.pop(task_hash, None)
        self._watch.pop(task_hash, None)

    # ------------------------------------------------------------------
    # observer-side lifecycle

    def read(self, task_hash: str) -> Optional[Lease]:
        """The current lease record, or None (absent or quarantined)."""
        path = self.lease_path(task_hash)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        lease = _parse_lease(raw)
        if lease is None:
            self._quarantine(path)
            return None
        return lease

    def is_stale(self, task_hash: str) -> bool:
        """Whether the lease's heartbeat has stopped, from *our* clock.

        Stale means: the same ``(owner, seq)`` pair has been visible
        for longer than the lease's advertised ttl without advancing.
        The first observation always starts a fresh watch window, so a
        caller must poll at least twice, ttl apart, before a takeover
        can trigger -- by construction, never on a single glance at a
        live peer.
        """
        lease = self.read(task_hash)
        if lease is None:
            self._watch.pop(task_hash, None)
            return False
        now = self._clock()
        seen = self._watch.get(task_hash)
        if seen is None or seen[0] != lease.owner or seen[1] != lease.seq:
            self._watch[task_hash] = (lease.owner, lease.seq, now)
            return False
        ttl = lease.ttl_s if lease.ttl_s > 0 else self.ttl_s
        return (now - seen[2]) > ttl

    def takeover(self, task_hash: str) -> bool:
        """Expire a stale lease and try to claim it ourselves.

        Returns True when this process now owns the lease.  Peers may
        race the reclaim; O_EXCL inside :meth:`claim` picks one winner
        and the losers simply go back to watching.
        """
        if not self.is_stale(task_hash):
            return False
        path = self.lease_path(task_hash)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        self._watch.pop(task_hash, None)
        self.store.record_lease_event("expired")
        if self.claim(task_hash):
            self.store.record_lease_event("stolen")
            return True
        return False

    def release_all(self) -> None:
        """Drop every lease this process still owns (shutdown path)."""
        for task_hash in list(self._seq):
            self.release(task_hash)

    # ------------------------------------------------------------------
    # internals

    def _record(self, task_hash: str, *, seq: int) -> Lease:
        now = time.time()
        return Lease(
            task_hash=task_hash,
            owner=self.owner,
            pid=os.getpid(),
            host=socket.gethostname(),
            seq=seq,
            claimed_unix=now if seq == 0 else 0.0,
            renewed_unix=now,
            ttl_s=self.ttl_s,
        )

    def _write_atomic(self, task_hash: str, lease: Lease) -> None:
        path = self.lease_path(task_hash)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.directory), prefix=".lease-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(
                    json.dumps(lease.payload(), sort_keys=True).encode()
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # A full disk must not leave a stray temp file per renewal.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Move a malformed lease aside; the slot becomes claimable."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / f"{path.name}.{uuid.uuid4().hex[:8]}"
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return
        self.store.record_lease_event("quarantined")
