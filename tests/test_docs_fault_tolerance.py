"""docs/fault-tolerance.md names every field of the two fault-layer
dataclasses, and nothing else.

The guide's two field tables (``FaultPlan`` under "The fault model",
``RetryPolicy`` under "Timeouts, retries, backoff") are read back and
compared with ``dataclasses.fields`` — the doc example once kept four
``FaultPlan`` arguments no caller outside one unit test had ever passed;
the next field has to show up in the doc diff.
"""

import dataclasses
import pathlib
import re

from repro.rpc import RetryPolicy
from repro.rpc import retry
from repro.simt import FaultPlan

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
    "fault-tolerance.md"


def field_tables() -> list[tuple[str, ...]]:
    """First-column names of every ``| field | ...`` table, in order."""
    tables = re.findall(r"^\| field \|.*\n\|[-|]+\|\n((?:\|.*\n)+)",
                        DOC.read_text(), flags=re.M)
    return [tuple(re.findall(r"^\| `(\w+)`", body, flags=re.M))
            for body in tables]


def test_field_tables_match_the_dataclasses():
    fault_plan, retry_policy = field_tables()
    assert fault_plan == tuple(
        f.name for f in dataclasses.fields(FaultPlan))
    assert retry_policy == tuple(
        f.name for f in dataclasses.fields(RetryPolicy))


def test_backoff_constants_are_named():
    text = DOC.read_text()
    for name in ("BACKOFF_BASE", "BACKOFF_FACTOR", "MAX_BACKOFF", "JITTER"):
        assert hasattr(retry, name) and f"`{name}`" in text
