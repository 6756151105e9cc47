"""REP007 negative fixture: catalogued namespaces and dynamic names."""
from repro.obs import MetricsRegistry

metrics = MetricsRegistry()
metrics.inc("engine.queries")
metrics.set("serve.queue_depth", 3)
metrics.observe("rpc.latency", 0.25)
tenant = "gold"
metrics.inc(f"serve.tenant.{tenant}.admitted")   # literal head passes
name = "anything.goes"
metrics.inc(name)                                # dynamic name: skipped
metrics.counter("whatever").inc(2)               # first arg not a string
