"""Self-tests of the benchmark: ``python -m pytest perfbench/tests``.

Not part of tier-1 (``testpaths`` stays ``tests``).  Everything runs at the
``--quick`` graph scale.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
os.environ.setdefault("REPRO_CACHE_DIR", str(ROOT / "perfbench" / ".cache"))


@pytest.fixture(scope="session")
def quick_graph():
    from repro import load_dataset

    from perfbench.worker import QUICK_SCALE

    return load_dataset("products", scale=QUICK_SCALE)
