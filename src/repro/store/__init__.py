"""Content-addressed artifact store for campaign intermediates.

``repro.store`` persists the expensive intermediates of the detection
protocol — infected designs' summaries, golden fingerprints, averaged
trace tensors, per-cell campaign results — under *content addresses*:
the SHA-256 of the canonical JSON of the spec fragment that produces
them.  Equal configuration therefore means an instant hit across runs,
processes and hosts, and any perturbation means a clean miss.  Writes
are atomic and indexed by a manifest, which doubles as the per-cell
completion record sharded or interrupted campaigns resume from.

Every store is one verified-object core (:mod:`.core`) over a byte
backend: :class:`ArtifactStore` over a local directory,
:class:`RemoteStore` over any :class:`Transport`, and
:class:`TieredStore` composes the two.  All of them declare the
:class:`Store` protocol.
"""

from .artifact_store import ArtifactStore, DirectoryBackend, FsckReport
from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    DEFAULT_GOLDEN_SIGNATURE,
    cell_result_key,
    delay_differences_key,
    fault_sweep_key,
    golden_signature,
    infected_summary_key,
    pack_delay_differences,
    pack_fault_sweep,
    pack_population_traces,
    population_traces_key,
    spec_content_fragment,
    unpack_delay_differences,
    unpack_fault_sweep,
    unpack_population_traces,
)
from .breaker import CircuitBreaker, CircuitOpenError
from .core import (
    STORE_FORMAT_VERSION,
    ManifestEntry,
    Store,
    StoreCodecError,
    StoreIntegrityError,
    VerifiedStore,
)
from .keys import canonical_json, stable_key
from .leases import (
    DEFAULT_LEASE_TTL_S,
    LeaseInfo,
    WriterLease,
    break_stale_leases,
    list_leases,
    live_foreign_leases,
)
from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock, LockTimeout
from .remote import RemoteStore, TransportBackend
from .retry import (
    RetryPolicy,
    backoff_delay_s,
    is_retryable_error,
    is_transient_os_error,
)
from .tiered import PendingUploadJournal, TieredStore
from .transport import (
    LoopbackTransport,
    Transport,
    TransportConnectionError,
    TransportTimeout,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_GOLDEN_SIGNATURE",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_LOCK_TIMEOUT_S",
    "DirectoryBackend",
    "FileLock",
    "FsckReport",
    "LeaseInfo",
    "LockTimeout",
    "LoopbackTransport",
    "ManifestEntry",
    "PendingUploadJournal",
    "RemoteStore",
    "RetryPolicy",
    "STORE_FORMAT_VERSION",
    "Store",
    "StoreCodecError",
    "StoreIntegrityError",
    "TieredStore",
    "Transport",
    "TransportBackend",
    "TransportConnectionError",
    "TransportTimeout",
    "VerifiedStore",
    "WriterLease",
    "backoff_delay_s",
    "break_stale_leases",
    "canonical_json",
    "cell_result_key",
    "delay_differences_key",
    "fault_sweep_key",
    "golden_signature",
    "infected_summary_key",
    "is_retryable_error",
    "is_transient_os_error",
    "list_leases",
    "live_foreign_leases",
    "pack_delay_differences",
    "pack_fault_sweep",
    "pack_population_traces",
    "population_traces_key",
    "spec_content_fragment",
    "stable_key",
    "unpack_delay_differences",
    "unpack_fault_sweep",
    "unpack_population_traces",
]
