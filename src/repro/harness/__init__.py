"""Experiment harness: configuration, point functions and result types.

:mod:`repro.harness.experiments` computes one *point* of a paper
artifact (a platform column of Figures 4-7, a Table II row, one
resilience or elasticity run); :mod:`repro.harness.results` holds the
record types and reductions; :mod:`repro.harness.config` the one
:class:`~repro.harness.config.RunConfig`.  Whole artifacts are defined
once, in :mod:`repro.broker.registry`, and produced by :func:`repro.run`.
"""
