"""Network topology, wall-time model and communication accounting."""

from .comm import CommVolume, ddp_volume, federated_volume, reduction_factor
from .simulation import (
    ClientProfile,
    FederationSimulator,
    RoundEvent,
    SimulationReport,
)
from .topology import (
    PAPER_LINKS_GBPS,
    PAPER_REGIONS,
    FederationTopology,
    paper_topology,
)
from .walltime import (
    JitterModel,
    RoundTiming,
    WallTimeModel,
    gbps_to_mbps,
    hop_seconds,
)

__all__ = [
    "FederationTopology",
    "paper_topology",
    "PAPER_REGIONS",
    "PAPER_LINKS_GBPS",
    "WallTimeModel",
    "RoundTiming",
    "JitterModel",
    "gbps_to_mbps",
    "hop_seconds",
    "CommVolume",
    "ddp_volume",
    "federated_volume",
    "reduction_factor",
    "ClientProfile",
    "FederationSimulator",
    "RoundEvent",
    "SimulationReport",
]
