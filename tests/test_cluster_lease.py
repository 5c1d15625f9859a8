"""Lease-file protocol for coordination-free campaign joins."""

import errno
import json
import os

import pytest

from repro.campaign.store import ResultStore
from repro.cluster.lease import Lease, LeaseManager, owner_fingerprint
from repro.obs.metrics import MetricsRegistry

HASH = "a" * 64


def _manager(tmp_path, **kwargs):
    registry = MetricsRegistry()
    store = ResultStore(directory=tmp_path, registry=registry)
    kwargs.setdefault("ttl_s", 10.0)
    return LeaseManager(store, **kwargs), store, registry


class TestClaim:
    def test_claim_creates_lease_file(self, tmp_path):
        manager, store, _ = _manager(tmp_path)
        assert manager.claim(HASH) is True
        path = manager.lease_path(HASH)
        assert path.exists()
        record = json.loads(path.read_text())
        assert record["task_hash"] == HASH
        assert record["owner"] == manager.owner
        assert record["seq"] == 0
        assert store.lease_stats() == {"claimed": 1}

    def test_second_claim_loses(self, tmp_path):
        first, _, _ = _manager(tmp_path)
        second, _, _ = _manager(tmp_path)
        assert first.claim(HASH) is True
        assert second.claim(HASH) is False
        assert first.read(HASH).owner == first.owner

    def test_owner_fingerprints_are_unique(self):
        assert owner_fingerprint() != owner_fingerprint()
        assert str(os.getpid()) in owner_fingerprint()


class TestRenewRelease:
    def test_renew_increments_seq(self, tmp_path):
        manager, store, _ = _manager(tmp_path)
        manager.claim(HASH)
        assert manager.renew(HASH) is True
        assert manager.renew(HASH) is True
        assert manager.read(HASH).seq == 2
        assert store.lease_stats()["renewed"] == 2

    def test_renew_refuses_foreign_lease(self, tmp_path):
        owner, _, _ = _manager(tmp_path)
        intruder, _, _ = _manager(tmp_path)
        owner.claim(HASH)
        assert intruder.renew(HASH) is False
        assert owner.read(HASH).seq == 0

    def test_release_removes_owned_lease_only(self, tmp_path):
        owner, store, _ = _manager(tmp_path)
        other, _, _ = _manager(tmp_path)
        owner.claim(HASH)
        other.release(HASH)  # not the owner: no-op
        assert owner.lease_path(HASH).exists()
        owner.release(HASH)
        assert not owner.lease_path(HASH).exists()
        assert store.lease_stats() == {"claimed": 1, "released": 1}

    def test_release_all(self, tmp_path):
        manager, _, _ = _manager(tmp_path)
        hashes = ["b" * 64, "c" * 64]
        for task_hash in hashes:
            manager.claim(task_hash)
        manager.release_all()
        for task_hash in hashes:
            assert not manager.lease_path(task_hash).exists()

    def test_failed_renew_leaves_no_temp_file(self, tmp_path, monkeypatch):
        manager, _, _ = _manager(tmp_path)
        manager.claim(HASH)

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError) as excinfo:
            manager.renew(HASH)
        assert excinfo.value.errno == errno.ENOSPC
        assert [p.name for p in manager.directory.iterdir()] == [
            f"{HASH}.lease"
        ]


class TestStaleness:
    def test_live_lease_is_never_stale_on_first_glance(self, tmp_path):
        clock = [0.0]
        owner, _, _ = _manager(tmp_path, ttl_s=1.0)
        observer, _, _ = _manager(
            tmp_path, ttl_s=1.0, clock=lambda: clock[0]
        )
        owner.claim(HASH)
        clock[0] = 100.0  # far beyond ttl, but first observation
        assert observer.is_stale(HASH) is False

    def test_unrenewed_lease_goes_stale(self, tmp_path):
        clock = [0.0]
        owner, _, _ = _manager(tmp_path, ttl_s=1.0)
        observer, _, _ = _manager(
            tmp_path, ttl_s=1.0, clock=lambda: clock[0]
        )
        owner.claim(HASH)
        assert observer.is_stale(HASH) is False  # starts the watch
        clock[0] = 0.5
        assert observer.is_stale(HASH) is False  # within ttl
        clock[0] = 1.5
        assert observer.is_stale(HASH) is True

    def test_heartbeat_resets_the_watch(self, tmp_path):
        clock = [0.0]
        owner, _, _ = _manager(tmp_path, ttl_s=1.0)
        observer, _, _ = _manager(
            tmp_path, ttl_s=1.0, clock=lambda: clock[0]
        )
        owner.claim(HASH)
        observer.is_stale(HASH)
        clock[0] = 0.9
        owner.renew(HASH)  # seq advances: fresh watch window
        clock[0] = 1.5
        assert observer.is_stale(HASH) is False
        clock[0] = 2.0
        assert observer.is_stale(HASH) is False  # 1.5 started new window
        clock[0] = 2.8
        assert observer.is_stale(HASH) is True

    def test_absent_lease_is_not_stale(self, tmp_path):
        observer, _, _ = _manager(tmp_path)
        assert observer.is_stale(HASH) is False


class TestTakeover:
    def test_takeover_of_stale_lease(self, tmp_path):
        clock = [0.0]
        owner, _, _ = _manager(tmp_path, ttl_s=1.0)
        observer, store, registry = _manager(
            tmp_path, ttl_s=1.0, clock=lambda: clock[0]
        )
        owner.claim(HASH)
        observer.is_stale(HASH)
        clock[0] = 2.0
        assert observer.takeover(HASH) is True
        assert observer.read(HASH).owner == observer.owner
        assert store.lease_stats() == {
            "claimed": 1, "expired": 1, "stolen": 1,
        }
        counter = registry.counter(
            "repro_campaign_store_events_total", ""
        )
        assert counter.value(result="lease_stolen") == 1.0

    def test_takeover_refuses_live_lease(self, tmp_path):
        owner, _, _ = _manager(tmp_path, ttl_s=60.0)
        observer, _, _ = _manager(tmp_path, ttl_s=60.0)
        owner.claim(HASH)
        observer.is_stale(HASH)
        assert observer.takeover(HASH) is False
        assert owner.read(HASH).owner == owner.owner

    def test_dispossessed_owner_notices_on_renew(self, tmp_path):
        clock = [0.0]
        owner, _, _ = _manager(tmp_path, ttl_s=1.0)
        observer, _, _ = _manager(
            tmp_path, ttl_s=1.0, clock=lambda: clock[0]
        )
        owner.claim(HASH)
        observer.is_stale(HASH)
        clock[0] = 2.0
        observer.takeover(HASH)
        assert owner.renew(HASH) is False


class TestMalformed:
    def test_malformed_lease_is_quarantined(self, tmp_path):
        manager, store, _ = _manager(tmp_path)
        manager.claim(HASH)
        manager.lease_path(HASH).write_bytes(b'{"truncated": ')
        assert manager.read(HASH) is None
        assert not manager.lease_path(HASH).exists()
        quarantined = list(manager.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert store.lease_stats()["quarantined"] == 1
        # The slot is claimable again.
        assert manager.claim(HASH) is True

    def test_missing_required_field_is_malformed(self, tmp_path):
        manager, _, _ = _manager(tmp_path)
        manager.directory.mkdir(parents=True, exist_ok=True)
        manager.lease_path(HASH).write_text(
            json.dumps({"task_hash": HASH, "owner": "x", "seq": 0})
        )  # no ttl_s
        assert manager.read(HASH) is None

    def test_lease_payload_round_trips(self):
        lease = Lease(
            task_hash=HASH, owner="me", pid=1, host="h", seq=3,
            claimed_unix=1.0, renewed_unix=2.0, ttl_s=5.0,
        )
        payload = lease.payload()
        assert payload["seq"] == 3 and payload["schema"] == 1

    def test_ttl_must_be_positive(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(directory=tmp_path, registry=registry)
        with pytest.raises(ValueError):
            LeaseManager(store, ttl_s=0.0)
