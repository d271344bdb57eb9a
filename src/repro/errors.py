"""Exception hierarchy for the PP-Stream reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses are
grouped by subsystem (crypto, protocol, planner, stream) and carry enough
context in their messages to diagnose a failure without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent runtime configuration was supplied."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyGenerationError(CryptoError):
    """Paillier key generation failed (e.g. key size too small)."""


class EncryptionError(CryptoError):
    """A plaintext could not be encrypted (out of range, wrong key)."""


class DecryptionError(CryptoError):
    """A ciphertext could not be decrypted (corrupt or wrong key)."""


class KeyMismatchError(CryptoError):
    """Two ciphertexts under different public keys were combined."""


class EncodingError(CryptoError):
    """A value could not be encoded into / decoded from Z_n."""


class ObfuscationError(ReproError):
    """Permutation/obfuscation protocol misuse (bad seed, wrong length)."""


class ModelError(ReproError):
    """Invalid neural-network construction or shape mismatch."""


class TrainingError(ReproError):
    """Training diverged or was configured inconsistently."""


class ScalingError(ReproError):
    """Parameter scaling failed (no admissible scaling factor)."""


class PlannerError(ReproError):
    """Base class for planning/allocation failures."""


class InfeasibleAllocationError(PlannerError):
    """The resource-allocation ILP has no feasible solution."""


class SolverError(PlannerError):
    """The branch-and-bound MILP solver failed to converge."""


class PartitioningError(ReproError):
    """Tensor partitioning was requested on an unsupported layer/shape."""


class StreamError(ReproError):
    """Base class for stream-runtime failures."""


class StageFailedError(StreamError):
    """A stage worker raised; the original traceback is chained."""


class TransientStageError(StreamError):
    """A stage failure expected to succeed on retry (e.g. a flaky
    executor, a transient resource hiccup).  The retry policy backs
    off and re-runs the item."""


class PoisonedRequestError(StreamError):
    """A per-request failure that no retry can fix (malformed tensor,
    protocol violation for this input).  The request is dead-lettered
    immediately; the pipeline keeps serving everything else."""


class WorkerCrashError(StreamError):
    """A stage worker's thread died outside item processing; the
    supervisor may restart the worker and re-inject the in-flight
    item."""


class TransportError(StreamError):
    """A networked-runtime transport failure: broken frame, closed
    socket, oversized message, or a timed-out round trip.  Classified
    transient by default, so the coordinator's retry policy re-runs the
    affected stage task (typically against a failover worker)."""


class HandshakeError(TransportError):
    """A remote worker and the coordinator could not agree on a session
    (version, role, key, or config mismatch)."""


class DeadlineExceededError(ReproError):
    """A request blew its per-request deadline (stream or sequential
    protocol path)."""


class ProtocolError(ReproError):
    """The collaborative inference protocol was violated."""


class SecurityViolationError(ProtocolError):
    """An operation would leak information it must not (guard rails)."""


class ObservabilityError(ReproError):
    """The observability layer was misused (metric type conflict,
    malformed histogram buckets)."""


class ServeError(ReproError):
    """The multi-tenant serving gateway was misused or failed
    (docs/SERVING.md)."""


class JobStateError(ServeError):
    """An illegal job state transition was attempted (the per-job
    state machine only admits the documented edges)."""


class TenantError(ServeError):
    """A tenant operation failed: unknown tenant, tenant cap reached,
    or a cross-tenant access attempt."""


class TenantRejectedError(TenantError):
    """Tenant registration was refused as a *non-retryable* condition:
    the name is not on the configured allowlist, or the tenant table
    is full and nothing is evictable.  The gateway maps this to a 4xx
    without ``Retry-After`` — retrying the same request cannot
    succeed until an operator (or idle eviction) frees a slot."""


class ClusterError(ReproError):
    """The elastic-fleet subsystem was misused or failed
    (docs/ELASTIC.md)."""


class ClusterMembershipError(ClusterError):
    """A membership operation was refused: joining a fleet that is not
    accepting members, draining an unknown member, or draining the
    last worker of a role (which would strand that role's stages)."""


class SimulationError(ReproError):
    """The discrete-event simulator was misconfigured."""


class DatasetError(ReproError):
    """A dataset was requested with invalid parameters."""


class BaselineError(ReproError):
    """A baseline system (2PC engine, reported numbers) failed."""
