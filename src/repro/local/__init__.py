"""LOCAL / Supported LOCAL round-by-round simulator."""

from repro.local.measurement import EngineProbe, Measurement, timed
from repro.local.network import Network
from repro.local.simulator import (
    NodeAlgorithm,
    NodeContext,
    RoundTrace,
    RunResult,
    run_synchronous,
)
from repro.local.supported import SupportedInstance, run_supported_view_algorithm
from repro.local.views import (
    LocalView,
    SupportedView,
    collect_supported_view,
    collect_view,
)

__all__ = [
    "EngineProbe",
    "LocalView",
    "Measurement",
    "Network",
    "NodeAlgorithm",
    "NodeContext",
    "RoundTrace",
    "RunResult",
    "SupportedInstance",
    "SupportedView",
    "collect_supported_view",
    "collect_view",
    "run_supported_view_algorithm",
    "run_synchronous",
    "timed",
]
