"""The wall-clock benchmark's trace sites must keep resolving.

``perfbench``'s traced pass patches ``src/repro`` callables *by name*
(``perfbench.trace.TARGETS``), and ``perfbench/tests`` is not part of the
tier-1 selection — so a rename under ``src/repro`` has to fail here, not
in the benchmark driver.
"""

from perfbench.trace import TARGETS, _resolve


def test_every_trace_site_resolves():
    broken = []
    for span, sites in TARGETS.items():
        for module, path in sites:
            try:
                owner, attr, _raw = _resolve(module, path)  # the pass's lookup
                ok = callable(getattr(owner, attr))
            except (ImportError, AttributeError, KeyError) as exc:
                ok = False
                path = f"{path} ({type(exc).__name__}: {exc})"
            if not ok:
                broken.append(f"{span}: {module}:{path}")
    assert not broken, "unresolvable perfbench trace sites:\n" + \
        "\n".join(broken)
