"""The paper's contribution: cross-platform deployment & characterization.

The ADAPT project's question — "how hard, slow, and expensive is it to
run *this* application on *that* platform?" — becomes an executable
pipeline: provision (porting effort), schedule (availability), execute
(performance through the simulator/model) and bill (cost).  Comparing
platforms is the assembly broker's job (:mod:`repro.broker.assembly`),
which prices each candidate through
:func:`~repro.core.deployment.deploy_and_run`.
"""
