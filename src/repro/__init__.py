"""PySpark reproduction of "In-database connected component analysis".

Bögeholz, Brand, Todor — ICDE 2020 (DOI 10.1109/ICDE48307.2020.00135).

Public surface:

* :func:`repro.core.connected_components` — DataFrame-in/out CC labels;
* :mod:`repro.core.contraction` — the Randomised Contraction algorithm
  (Figs 3 & 4) with all three randomisation methods of §V-C;
* :mod:`repro.baselines` — Hash-to-Min, Two-Phase, Cracker, naive BFS;
  every solver returns one :class:`repro.mppdb.SolveResult`;
* :mod:`repro.mppdb` — the metered in-Spark SQL execution engine, which
  numbers each solve's rounds and enforces its ``max_rounds`` cap;
* :mod:`repro.graphs` — Table II dataset stand-ins;
* :mod:`repro.analysis` — harness, oracles and table formatting.
"""
__version__ = "0.1.0"
