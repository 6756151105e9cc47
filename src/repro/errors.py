"""Exception hierarchy for the repro graph engine.

All library-specific failures derive from :class:`ReproError` so callers can
catch engine errors without masking programming mistakes (``TypeError`` /
``ValueError`` raised by validation keep their builtin types).
"""


class ReproError(Exception):
    """Base class for all repro-specific errors."""


class GraphFormatError(ReproError):
    """A graph container was built from inconsistent arrays."""


class PartitionError(ReproError):
    """Graph partitioning failed or produced an invalid assignment."""


class ShardError(ReproError):
    """A graph shard was queried with IDs it does not own."""


class RpcError(ReproError):
    """An RPC could not be dispatched or its handler raised."""


class RpcTimeoutError(RpcError):
    """A remote call exhausted its retry budget without a reply.

    Raised to the waiting caller after a :class:`~repro.rpc.retry.RetryPolicy`
    runs out of attempts — each attempt either lost to the network (a
    :class:`~repro.simt.faults.FaultPlan` drop) or answered past its
    per-call timeout.
    """


class WorkerCrashedError(RpcError):
    """A remote call exhausted its retries against a crashed server.

    The transport cannot distinguish a dead server from a lossy network
    attempt-by-attempt (both look like a missing reply), but when the last
    failed attempt targeted a server inside a crash window the typed error
    names the real cause.
    """


#: transport-level failures a degradation mode may absorb.  Handler errors
#: (ShardError etc.) always propagate: they are bugs, not faults.
TRANSPORT_ERRORS = (RpcTimeoutError, WorkerCrashedError)


class SimulationError(ReproError):
    """The discrete-event runtime reached an invalid state (e.g. deadlock)."""


class ConvergenceError(ReproError):
    """An iterative solver exceeded its iteration budget."""


class StreamError(ReproError):
    """A streaming-update operation failed."""


class StreamIngestError(StreamError):
    """A two-phase batch application could not complete atomically.

    ``applied`` reports the outcome the cluster converged to: ``False``
    when the batch was aborted/rolled back everywhere (the graph is
    unchanged), ``True`` never — a fully-applied batch does not raise.
    A rollback that itself failed permanently leaves ``applied=None``
    (shards may disagree) and is a deployment-level incident.
    """

    def __init__(self, message: str, *, applied: bool | None = False) -> None:
        super().__init__(message)
        self.applied = applied
