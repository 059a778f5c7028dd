"""Fault injection: deterministic chaos for the resilience layer.

The subsystem has three pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the frozen, JSON-round-
  trippable description of *what* to inject (latency, typed errors,
  connection resets, truncated streams, clock-skewed deadlines), with what
  probability, inside which time window;
* :mod:`repro.faults.inject` — :class:`FaultDecider`, the seed-driven
  decision engine both injectors share (per-opportunity determinism, fault
  windowing);
* :mod:`repro.faults.middleware` — :class:`ChaosMiddleware`, the server-side
  injector (sits in the `/v1` pipeline, gated on ``SeeSawConfig.faults``);
* :mod:`repro.faults.client` — :class:`FaultyClient`, the client-side fault
  transport: every call of another
  :class:`~repro.server.client.SeeSawClientProtocol`, through that
  client's own transport.

Every injected fault is a *typed* failure the resilience layer is supposed
to absorb — the chaos traffic scenario's gates assert that nothing else
(raw socket errors, stranded waiters, hung sessions) leaks out.

The injector modules are imported lazily (not re-exported here): the
package root must stay importable from :mod:`repro.config` without pulling
the whole server stack in.
"""

from repro.faults.inject import FaultDecider, FaultOutcome
from repro.faults.plan import FaultPlan

__all__ = ["FaultDecider", "FaultOutcome", "FaultPlan"]
