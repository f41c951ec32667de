"""Live-serving front door over the quorum data plane.

The subpackage that turns the simulator's stored state into
user-visible latency: open-loop load generation
(:mod:`repro.serve.loadgen`), a deterministic request scheduler that
costs every get/put with RTTs along its quorum path
(:mod:`repro.serve.frontend`), and per-tenant SLA attainment
(:mod:`repro.serve.sla`).
"""

from repro.serve.frontend import ServingFrontEnd
from repro.serve.loadgen import Arrival, LoadGenerator, ServeError
from repro.serve.sla import SlaLedger

__all__ = [
    "Arrival",
    "LoadGenerator",
    "ServeError",
    "ServingFrontEnd",
    "SlaLedger",
]
