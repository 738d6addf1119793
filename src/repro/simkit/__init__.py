"""Discrete-event message-passing simulator.

The paper's system model: each node knows only the status of its
neighbors, and everything — labelling, identification, boundary
construction, detection, routing — happens "through the message
transmission between two neighboring nodes along one of those three
dimensions" (Section 1).  This package provides exactly that substrate:
a deterministic event queue, a mesh network that delivers messages
between neighbor node processes with per-hop latency, and per-kind
message statistics.  Spans from :mod:`repro.obs` are the one tracing
path (``run_to_quiescence`` opens one per quiescence run).
"""

from repro.simkit.event_queue import EventQueue
from repro.simkit.simulator import Simulator
from repro.simkit.message import Message
from repro.simkit.node import NodeProcess
from repro.simkit.network import MeshNetwork
from repro.simkit.stats import StatsCollector

__all__ = [
    "EventQueue",
    "Simulator",
    "Message",
    "NodeProcess",
    "MeshNetwork",
    "StatsCollector",
]
