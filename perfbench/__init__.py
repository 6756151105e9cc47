"""perfbench: the wall-clock benchmark of this repository.

``python -m perfbench run`` drives the engine, serving and streaming
facades of ``src/repro`` on five workloads, measures the end-to-end metrics
with tracing off, and attributes wall seconds to layers in a separate
traced pass.  See ``perfbench/README.md``.
"""
