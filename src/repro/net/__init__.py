"""Network substrate: simulator, underlay topology, failures, transport."""

from repro.net.failures import (
    FailureTable,
    NodeClass,
    NodeClassParams,
    assign_node_classes,
    build_failure_table,
)
from repro.net.packet import (
    LinkStateMessage,
    MembershipUpdate,
    Message,
    RecommendationMessage,
)
from repro.net.simulator import Event, PeriodicTimer, Simulator
from repro.net.topology import Topology
from repro.net.trace import (
    SyntheticTrace,
    planetlab_like,
    uniform_random_metric,
)
from repro.net.transport import DatagramTransport

__all__ = [
    "DatagramTransport",
    "Event",
    "FailureTable",
    "LinkStateMessage",
    "MembershipUpdate",
    "Message",
    "NodeClass",
    "NodeClassParams",
    "PeriodicTimer",
    "RecommendationMessage",
    "Simulator",
    "SyntheticTrace",
    "Topology",
    "assign_node_classes",
    "build_failure_table",
    "planetlab_like",
    "uniform_random_metric",
]
