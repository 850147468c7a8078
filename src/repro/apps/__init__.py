"""The paper's two test applications.

* :mod:`repro.apps.reaction_diffusion` — the RD equation (§IV.A) with
  the manufactured solution ``u = t^2 (x1^2 + x2^2 + x3^2)``, solved
  with Q2 elements and BDF2 so the discrete solution is exact up to
  solver tolerance (the paper's correctness check);
* :mod:`repro.apps.navier_stokes` — incompressible Navier-Stokes
  (§IV.B) on the Ethier-Steinman benchmark, BDF2 + semi-implicit
  advection + incremental pressure projection.

Both expose the paper's phase structure (fig. 3): assembly (ii),
preconditioner (iiia), solve (iiib), instrumented per iteration by
:mod:`repro.apps.phases`.  The package re-exports nothing: each name is
imported from its module, so :mod:`repro.apps.workload` alone brings in
no FEM stack.
"""
