"""The central metric-namespace catalog.

Every instrument name used under ``src/repro`` must live in one of the
namespaces declared here — the REP007 lint rule
(:mod:`repro.analysis.rules.observability`) walks every
``MetricsRegistry.inc/set/observe`` call site and flags string literals
(including f-string literal heads) whose leading segment is not
catalogued.  The table mirrors ``docs/observability.md``: adding a new
namespace means documenting it there *and* declaring it here, so the
docs and the code cannot silently drift apart.

Dependency note: this module is imported by the lint layer and must stay
free of repro imports.
"""

from __future__ import annotations

#: namespace -> one-line meaning (the docs/observability.md section map)
METRIC_NAMESPACES: dict[str, str] = {
    "rpc": ("transport accounting, fault machinery, rpc.pool.* buffer "
            "reuse"),
    "engine": "per-run query accounting and makespan",
    "ppr": "SSPPR operator work (pushes, iterations, touched)",
    "serve": "multi-tenant serving sessions",
    "stream": "streaming update ingestion + incremental PPR",
    "rebalance": "telemetry-driven shard rebalancing",
    "obs": "observability self-accounting (span drops)",
    "sanitizer": "lockset race-detector accounting",
}


def namespace_of(name: str) -> str:
    """The leading dotted segment of an instrument name."""
    return name.split(".", 1)[0]


def is_catalogued(name: str) -> bool:
    """Whether a (possibly partial) instrument name is in the catalog.

    ``name`` may be the literal head of an f-string — only the leading
    namespace segment is judged, and a bare head like ``"serve."`` or
    ``"rpc.faults."`` passes through its namespace.
    """
    return namespace_of(name) in METRIC_NAMESPACES
