"""Federated core: Photon, its components, and the baselines."""

from .engine import (
    AsyncAggregator,
    PolynomialStaleness,
    RoundEngine,
    SyncAggregator,
    adaptive_step_weights,
)
from .centralized import CentralizedResult, CentralizedTrainer
from .checkpoint import CheckpointManager
from .client import LLMClient
from .continual import PersonalizationResult, continue_pretraining, personalize
from .edge import EdgeReport, EdgeTier, Region, paper_regions, round_robin_assign
from .failover import FailoverController, ReplicaSet
from .faults import (
    ClientFailure,
    DeadlinePolicy,
    DropLedger,
    FailureModel,
    FaultPolicy,
)
from .hyperopt import Candidate, TrialResult, successive_halving
from .link import Link, Message, SecureAggregator
from .photon import Photon, PhotonResult
from .population import ClientPopulation, LazyClientPool
from .postprocess import (
    ClipUpdate,
    Compose,
    DPGaussianNoise,
    Identity,
    PostProcessor,
)
from .runstate import RUNSTATE_VERSION, RunStateCheckpointer
from .sampler import (
    AvailabilityModel,
    ClientSampler,
    FullParticipation,
    UniformSampler,
)
from .scheduler import SELECTION_POLICIES, ClientScheduler, normal_quantile
from .server_opt import (
    DILOCO_SERVER_LRS,
    FedAdam,
    FedAvg,
    FedMom,
    NesterovOuter,
    ServerOpt,
    diloco,
    make_server_opt,
)
from .types import ClientUpdate, RoundInfo

#: The synchronous engine under its historical name.
Aggregator = SyncAggregator

__all__ = [
    "Photon",
    "PhotonResult",
    "Aggregator",
    "RoundEngine",
    "SyncAggregator",
    "AsyncAggregator",
    "PolynomialStaleness",
    "adaptive_step_weights",
    "LLMClient",
    "ClientUpdate",
    "RoundInfo",
    "Link",
    "Message",
    "SecureAggregator",
    "CheckpointManager",
    "RunStateCheckpointer",
    "RUNSTATE_VERSION",
    "ServerOpt",
    "FedAvg",
    "FedMom",
    "FedAdam",
    "NesterovOuter",
    "DILOCO_SERVER_LRS",
    "diloco",
    "make_server_opt",
    "ClientSampler",
    "UniformSampler",
    "FullParticipation",
    "AvailabilityModel",
    "ClientScheduler",
    "SELECTION_POLICIES",
    "normal_quantile",
    "ClientPopulation",
    "LazyClientPool",
    "PostProcessor",
    "Identity",
    "Compose",
    "ClipUpdate",
    "DPGaussianNoise",
    "CentralizedTrainer",
    "CentralizedResult",
    "Candidate",
    "TrialResult",
    "successive_halving",
    "ClientFailure",
    "FailureModel",
    "FaultPolicy",
    "DeadlinePolicy",
    "DropLedger",
    "Region",
    "EdgeTier",
    "EdgeReport",
    "paper_regions",
    "round_robin_assign",
    "ReplicaSet",
    "FailoverController",
    "PersonalizationResult",
    "personalize",
    "continue_pretraining",
]
