"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.partition.base import Partitioner
from repro.partition.metis_lite import MetisLitePartitioner
from repro.ppr.distributed import OptLevel
from repro.simt.network import NetworkModel
from repro.utils.validation import check_positive


@dataclass
class EngineConfig:
    """Knobs for one engine deployment.

    Defaults mirror the paper's main setting: min-cut partitioning, all RPC
    optimizations on, a separate storage-server process per machine.
    """

    n_machines: int = 4
    procs_per_machine: int = 1
    partitioner: Partitioner = field(default_factory=MetisLitePartitioner)
    network: NetworkModel = field(default_factory=NetworkModel)
    opt: OptLevel = OptLevel.OVERLAP
    #: halo caching depth: 1 = metadata only (the paper's scheme),
    #: 2 = cache full adjacency rows of 1-hop halo nodes (Section 3.2.1's
    #: memory-for-communication trade)
    halo_hops: int = 1
    #: adaptive fetch layer (docs/fetch-layer.md): split per-shard requests
    #: into halo-cache hits (served locally) and misses (only misses cross
    #: the wire).  Turn off together with ``fetch_cache_bytes=0`` to get the
    #: pre-fetch-layer wire behavior (Table 3 ablation rows).
    fetch_split: bool = True
    #: hot-vertex cache budget in bytes (0 disables); adjacency rows from
    #: remote responses are cached with deterministic frequency+recency
    #: eviction so hub vertices are fetched once per run
    fetch_cache_bytes: int = 1 << 22
    #: dedup concurrent in-flight fetches for overlapping (shard, node)
    #: sets against a per-machine pending-futures table
    fetch_coalesce: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("n_machines", self.n_machines)
        check_positive("procs_per_machine", self.procs_per_machine)
        if self.halo_hops not in (1, 2):
            raise ValueError(f"halo_hops must be 1 or 2, got {self.halo_hops}")
        if self.fetch_cache_bytes < 0:
            raise ValueError(
                f"fetch_cache_bytes must be >= 0, got {self.fetch_cache_bytes}"
            )

    @property
    def n_shards(self) -> int:
        """One shard per machine (the paper's layout)."""
        return self.n_machines

    def server_name(self, machine: int) -> str:
        return f"server:{machine}"

    def worker_name(self, machine: int, proc: int) -> str:
        return f"compute:{machine}.{proc}"
