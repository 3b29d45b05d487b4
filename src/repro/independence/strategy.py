"""The strategies an independence entry point accepts.

* ``"lazy"`` — on-the-fly product exploration, the decision path;
* ``"eager"`` — the materialized Proposition 3 construction, kept as an
  explicit choice for the T2 size study and as the reference of the
  differential suites;
* ``"auto"`` (the default) — resolves to ``"lazy"``.  The lazy pipeline
  explores ``A_S × A_FD`` once per row and decides each cell with one
  flagged product, and with that it is at least as fast as the eager
  one on every T3 configuration, narrow schemas included; results
  report the resolved strategy, never ``"auto"``.
"""

from __future__ import annotations

LAZY = "lazy"
EAGER = "eager"
AUTO = "auto"

#: every strategy an entry point accepts
STRATEGIES = (AUTO, LAZY, EAGER)
