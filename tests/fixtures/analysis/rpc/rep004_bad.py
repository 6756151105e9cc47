"""REP004 positive fixture: payloads the RPC cost model cannot size."""


def dispatch(ref):
    f1 = ref.rpc_async("apply", lambda x: x + 1)
    f2 = ref.rpc_sync_effect("transform", (i * i for i in range(4)))
    f3 = ref.rpc_async("fill", ...)
    return f1, f2, f3


def dispatch_dataflow(ref):
    handler = lambda x: x * 2  # noqa: E731
    bad_payload = ...
    f4 = ref.rpc_async("apply", handler)
    f5 = ref.rpc_sync_effect("fill", bad_payload)
    return f4, f5
