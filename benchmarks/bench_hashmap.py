"""Microbenchmark — the key-indexed slot table vs a Python dict.

The paper's Section 3.3 rests on the parallel hashmap being fast at batch
updates.  Our NumPy stand-in must beat the obvious alternative (a Python
dict driven from the interpreter) at engine-relevant batch sizes, otherwise
the "C++ operator" claim would be hollow.  Keys are engine-shaped: packed
``(local * K + shard) * B + qid`` ids over a |V| * B = 50 000 * 4 range
(the twitter stand-in under a 4-query fused batch), each distinct key
repeated ~4x inside a call — a push resolves 19% (products) to 49%
(twitter) distinct keys per call.  The table declares that range as its
key domain, as every PPR state does.
"""

import numpy as np

from benchmarks import common
from repro.ppr.hashmap import ShardedMap

BATCH_SIZES = (1_000, 10_000, 100_000)
KEY_RANGE = 50_000 * 4
REPEATS_PER_KEY = 4


def push_shaped_keys(rng, n: int) -> np.ndarray:
    """``n`` packed ids, each distinct one drawn ~REPEATS_PER_KEY times."""
    distinct = rng.integers(0, KEY_RANGE, size=max(1, n // REPEATS_PER_KEY))
    return distinct[rng.integers(0, len(distinct), size=n)]


def dict_get_or_insert(d: dict, keys: np.ndarray) -> np.ndarray:
    out = np.empty(len(keys), dtype=np.int64)
    nxt = len(d)
    for i, k in enumerate(keys.tolist()):
        idx = d.get(k)
        if idx is None:
            d[k] = idx = nxt
            nxt += 1
        out[i] = idx
    return out


def time_once(fn) -> float:
    import time
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_batch_size(n: int) -> dict:
    rng = np.random.default_rng(41)
    keys = push_shaped_keys(rng, n)
    fresh_keys = push_shaped_keys(rng, n)

    m = ShardedMap(KEY_RANGE)
    t_insert = time_once(lambda: m.get_or_insert(keys))
    t_lookup = time_once(lambda: m.lookup(keys))
    t_insert_more = time_once(lambda: m.get_or_insert(fresh_keys))

    d: dict = {}
    t_dict_insert = time_once(lambda: dict_get_or_insert(d, keys))
    t_dict_lookup = time_once(lambda: dict_get_or_insert(d, keys))

    return {
        "Batch": n,
        "Map insert (ms)": round(t_insert * 1e3, 2),
        "Map lookup (ms)": round(t_lookup * 1e3, 2),
        "Map 2nd insert (ms)": round(t_insert_more * 1e3, 2),
        "Dict insert (ms)": round(t_dict_insert * 1e3, 2),
        "Dict lookup (ms)": round(t_dict_lookup * 1e3, 2),
        "Keys held": len(m),
    }


# at engine-scale batches the vectorized table clearly wins
EXPECTATIONS = [
    {"kind": "cmp", "label": "map insert beats dict at engine batches",
     "left": {"col": "Map insert (ms)", "where": {"Batch": BATCH_SIZES[-1]}},
     "op": "lt",
     "right": {"col": "Dict insert (ms)",
               "where": {"Batch": BATCH_SIZES[-1]}},
     "scales": ["full"]},
    {"kind": "cmp", "label": "map lookup beats dict at engine batches",
     "left": {"col": "Map lookup (ms)", "where": {"Batch": BATCH_SIZES[-1]}},
     "op": "lt",
     "right": {"col": "Dict lookup (ms)",
               "where": {"Batch": BATCH_SIZES[-1]}},
     "scales": ["full"]},
]


def test_hashmap_vs_dict(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_batch_size(n) for n in BATCH_SIZES]
    )
    common.publish(
        "hashmap",
        "ShardedMap vs Python dict (get_or_insert / lookup)",
        rows, key=("Batch",),
        ungated={col: "host-timed with perf_counter"
                 for col in ("Map insert (ms)", "Map lookup (ms)",
                             "Map 2nd insert (ms)", "Dict insert (ms)",
                             "Dict lookup (ms)")},
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[f"batch{row['Batch']}"] = (
            f"map={row['Map insert (ms)']}ms dict={row['Dict insert (ms)']}ms"
        )
