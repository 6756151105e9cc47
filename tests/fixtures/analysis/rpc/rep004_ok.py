"""REP004 negative fixture: payloads the cost model prices happily."""


def dispatch(ref, array):
    f1 = ref.rpc_async("lookup", [1, 2, 3], {"alpha": 0.5})
    f2 = ref.rpc_sync_effect("push", array, mode="batched")
    return f1, f2


def dispatch_dataflow(ref, array):
    opts = {"alpha": 0.5, "steps": 3}
    sizes = array.rpc_payload()
    f3 = ref.rpc_async("configure", opts)
    f4 = ref.rpc_sync_effect("report", sizes)
    reassigned = lambda x: x  # noqa: E731
    reassigned = [1, 2]
    f5 = ref.rpc_async("push", reassigned)
    for looped in ([1], [2]):
        f6 = ref.rpc_sync_effect("push", looped)
    return f3, f4, f5, f6
