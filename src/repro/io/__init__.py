"""I/O substrate: the HDF5 role of the paper's stack.

The paper's solver stores large result data through HDF5 (built with
the 1.6 interface).  :mod:`repro.io.checkpoint` is the self-contained
equivalent: a chunked, checksummed binary container for solver state
(fields + metadata), with corruption detection.
"""
