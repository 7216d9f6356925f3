"""Experiment drivers: one module per use case plus table/figure rendering.

Import from the defining submodule (:mod:`repro.experiments.usecase1`,
:mod:`~repro.experiments.usecase2`, :mod:`~repro.experiments.tables`); the
package re-exports nothing.
"""
