"""One store contract, checked on every backend.

Every store is the verified-object core over a byte backend (local
directory, transport) or a composition of the two (tiered), so every
one of them must honour the same contract.  Each test below runs
against:

* ``local`` — :class:`ArtifactStore` over a directory;
* ``remote`` — :class:`RemoteStore` over a loopback transport;
* ``tiered`` — :class:`TieredStore` over both, remote reachable;
* ``partitioned`` — :class:`TieredStore` whose remote sits behind a
  :class:`~repro.testing.FlakyTransport` that fails every operation
  with a connection error (writes degrade to the local tier plus the
  pending-upload journal).
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.store import (
    ArtifactStore,
    LoopbackTransport,
    RemoteStore,
    RetryPolicy,
    StoreCodecError,
    StoreIntegrityError,
    TieredStore,
    stable_key,
)
from repro.testing import FlakyTransport
from repro.testing.faults import FaultSchedule, FaultWindow

#: A retry policy with zero sleeps — determinism without test latency.
FAST_RETRY = RetryPolicy(attempts=3, base_s=0.0, token="test")

#: Every transport operation fails with a connection error.
PARTITION = FaultSchedule(windows=(FaultWindow(0, 10**9, "connect"),))

BACKENDS = ("local", "remote", "tiered", "partitioned")


class Harness:
    """A store under test plus the tier directories that hold its bytes."""

    def __init__(self, kind: str, root: Path):
        local, remote = root / "local", root / "remote"
        if kind == "local":
            self.store = ArtifactStore(local)
            self.tiers = [local]
        elif kind == "remote":
            self.store = RemoteStore(LoopbackTransport(remote),
                                     retry=FAST_RETRY)
            self.tiers = [remote]
        else:
            transport = LoopbackTransport(remote)
            if kind == "partitioned":
                transport = FlakyTransport(transport, PARTITION)
            self.store = TieredStore(local, RemoteStore(transport,
                                                        retry=FAST_RETRY))
            self.tiers = [local, remote]

    def objects(self, name: str) -> List[Path]:
        """``name``'s object file in every tier that holds it."""
        return [path for path in (tier / "objects" / name
                                  for tier in self.tiers) if path.exists()]

    def quarantined(self, name: str) -> List[Path]:
        return [path for path in (tier / "quarantine" / name
                                  for tier in self.tiers) if path.exists()]

    def corrupt(self, name: str) -> None:
        """Overwrite ``name``'s object behind the store's back."""
        objects = self.objects(name)
        assert objects
        for path in objects:
            path.write_bytes(b"torn garbage")


@pytest.fixture(params=BACKENDS)
def harness(request, tmp_path):
    return Harness(request.param, tmp_path)


def test_json_and_array_round_trip_preserves_dtype(harness):
    store = harness.store
    key = stable_key({"contract": "json"})
    assert key not in store
    with pytest.raises(KeyError):
        store.get_json(key)
    entry = store.put_json(key, {"value": 1.5, "names": ["a", "b"]},
                           kind="summary", meta={"campaign": "x"})
    assert entry.kind == "summary" and entry.meta == {"campaign": "x"}
    assert key in store and store.has(key)
    assert store.entry(key).digest == entry.digest
    assert store.get_json(key) == {"value": 1.5, "names": ["a", "b"]}

    akey = stable_key({"contract": "arrays"})
    arrays = {"f32": np.linspace(0, 1, 7, dtype=np.float32),
              "i64": np.arange(5, dtype=np.int64),
              "mat": np.random.default_rng(3).normal(size=(4, 6))}
    store.put_arrays(akey, arrays)
    for loaded in (store.get_arrays(akey), store.load_arrays(akey)):
        assert set(loaded) == set(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype
            assert np.array_equal(loaded[name], value)


def test_unsafe_keys_and_empty_payloads_are_rejected(harness):
    for bad in ("", "../escape", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            harness.store.put_json(bad, {})
    with pytest.raises(ValueError):
        harness.store.put_arrays(stable_key("empty"), {})


def test_corrupt_object_is_quarantined_then_a_clean_miss(harness):
    store = harness.store
    key = stable_key({"contract": "corrupt"})
    store.put_json(key, {"v": 1})
    harness.corrupt(f"{key}.json")
    with pytest.raises(StoreIntegrityError) as excinfo:
        store.get_json(key)
    assert key in str(excinfo.value)
    assert harness.quarantined(f"{key}.json")
    assert key not in store
    assert store.load_json(key) is None
    # Recomputing makes the key whole again.
    store.put_json(key, {"v": 1})
    assert store.get_json(key) == {"v": 1}


def test_torn_write_never_surfaces_as_a_hit(harness):
    """A crash between the object and its manifest entry (and any
    leftover temp file) leaves a miss, never a corrupt hit."""
    store = harness.store
    key = stable_key({"contract": "torn"})
    for tier in harness.tiers:
        (tier / "objects").mkdir(parents=True, exist_ok=True)
        (tier / "objects" / f"{key}.json").write_bytes(b'{"v": ')
        (tier / "objects" / f".{key}.json.123.tmp").write_bytes(b"{")
    assert key not in store
    assert key not in list(store.keys())
    with pytest.raises(KeyError):
        store.get_json(key)
    assert store.load_json(key) is None
    store.put_json(key, {"v": 2})
    assert store.get_json(key) == {"v": 2}


def test_wrong_codec_read_raises_and_keeps_the_artifact(harness):
    store = harness.store
    akey, jkey = stable_key({"codec": "arrays"}), stable_key({"codec": "j"})
    store.put_arrays(akey, {"x": np.arange(3)}, kind="population_traces")
    store.put_json(jkey, {"v": 1})
    for read in (store.get_json, store.load_json):
        with pytest.raises(StoreCodecError) as excinfo:
            read(akey)
        message = str(excinfo.value)
        assert akey in message and "population_traces" in message
    for read in (store.get_arrays, store.load_arrays):
        with pytest.raises(StoreCodecError):
            read(jkey)
    assert not issubclass(StoreCodecError, StoreIntegrityError)
    # Nothing was quarantined and both keys are still hits.
    assert not harness.quarantined(f"{akey}.npz")
    assert not harness.quarantined(f"{jkey}.json")
    assert akey in store and jkey in store
    assert np.array_equal(store.get_arrays(akey)["x"], np.arange(3))
    assert store.get_json(jkey) == {"v": 1}


def test_wrong_codec_read_leaves_a_local_store_clean(tmp_path):
    """Regression: the wrong-codec read used to quarantine the manifest
    entry and leave the valid object as an orphan for ``gc``."""
    store = ArtifactStore(tmp_path / "store")
    key = stable_key({"codec": "fsck"})
    store.put_arrays(key, {"x": np.arange(3)})
    with pytest.raises(StoreCodecError):
        store.get_json(key)
    report = store.fsck()
    assert report.clean() and report.ok == [key]
    assert store.gc()["orphan_objects"] == 0
    assert key in store


def test_discard_keys_and_len(harness):
    store = harness.store
    keys = sorted(stable_key({"contract": i}) for i in range(2))
    store.put_json(keys[0], {"v": 0})
    store.put_arrays(keys[1], {"x": np.zeros(2)})
    assert list(store.keys()) == keys
    assert len(store) == 2
    assert store.discard(keys[0])
    assert keys[0] not in store
    assert list(store.keys()) == keys[1:]
    assert len(store) == 1
    assert not store.discard(keys[0])


def test_load_helpers_fold_miss_and_corruption_into_none(harness):
    store = harness.store
    key = stable_key({"contract": "load"})
    assert store.load_json(key) is None
    assert store.load_arrays(key) is None
    store.put_arrays(key, {"x": np.arange(4.0)})
    assert np.array_equal(store.load_arrays(key)["x"], np.arange(4.0))
    harness.corrupt(f"{key}.npz")
    assert store.load_arrays(key) is None
    assert harness.quarantined(f"{key}.npz")


def test_spawn_config_is_a_fresh_store_of_the_same_configuration(harness):
    """What a worker process gets: the same configuration and data, with
    no inherited lease, a closed breaker and a fault clock at 0."""
    store = harness.store
    keys = [stable_key({"contract": "spawn", "i": i}) for i in range(3)]
    store.acquire_lease(owner="parent")
    try:
        for key in keys:
            store.put_json(key, {"v": 1})
        fresh = store.spawn_config()
        assert type(fresh) is type(store) and fresh is not store
        tiers = ([fresh.local, fresh.remote] if isinstance(fresh, TieredStore)
                 else [fresh])
        for tier in tiers:
            if isinstance(tier, ArtifactStore):
                assert tier.backend._lease is None
            else:
                assert tier.breaker.state == "closed"
                assert tier.backend.ops == 0
                assert getattr(tier.transport, "ops", 0) == 0
        if isinstance(store, TieredStore) and isinstance(
                store.remote.transport, FlakyTransport):
            assert store.remote.breaker.state == "open"
        assert all(fresh.load_json(key) == {"v": 1} for key in keys)
    finally:
        store.release_lease()
