"""Metrics: system-level timings, hardware-counter proxies, tracing, Paraver views.

Import from the defining submodule — :mod:`repro.metrics.collect`,
:mod:`~repro.metrics.counters`, :mod:`~repro.metrics.tracing` or
:mod:`~repro.metrics.paraver`.  The package re-exports nothing, so the
simulation path (which needs only ``collect`` and ``tracing``) never loads
numpy, which only the counter histograms and Paraver views use.
"""
