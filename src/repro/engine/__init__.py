"""Array-native query engine: the columnar per-round hot path.

See :mod:`repro.engine.engine` for the design.  The legacy object-based
reference path lives in :mod:`repro.engine.legacy` (imported explicitly by
the parity tests and benchmarks, never by production code).
"""

from repro.engine.engine import QueryEngine
from repro.engine.mask import SeenMask
from repro.engine.segments import ImageSegments

__all__ = ["ImageSegments", "QueryEngine", "SeenMask"]
