"""Packet-level discrete-event network simulator.

This package is the testbed substrate for the reproduction: the stand-in
for the paper's Emulab links and live-Internet paths.  It provides an
event engine, links with tail-drop FIFO buffers, random loss, latency
noise models, flows with exact timestamp echo, and per-flow statistics.
"""

from types import SimpleNamespace

from .aqm import (
    CoDelDiscipline,
    DynamicLink,
    HeadDropDiscipline,
    RandomDropDiscipline,
    REDDiscipline,
    TailDropDiscipline,
    cellular_rate,
    step_rate,
)
from .dynamics import (
    DynamicsError,
    DynamicsLog,
    GilbertElliott,
    LinkEvent,
    TimelineDriver,
)
from .engine import Event, SimBudgetExceeded, SimulationError, Simulator
from .flow import Flow, FlowReceiver, Path, activate_fastforward
from .invariants import InvariantChecker, InvariantError
from .link import Link, LinkStats
from .noise import (
    CompositeNoise,
    GaussianJitter,
    NoNoise,
    SpikeNoise,
    wifi_noise,
)
from .packet import ACK_BYTES, MTU_BYTES, Packet
from ..core.rng import Rng, make_rng, spawn
from .topology import (
    Dumbbell,
    MultiDumbbell,
    ParkingLot,
    Topology,
    TopologyError,
    mbps,
)
from .trace import FlowStats

_PACKET_EXACT = SimpleNamespace(mode="exact")


def resolve_fidelity(mode: str | None = None) -> SimpleNamespace:
    """The execution mode of every run, which is always packet-exact.

    Exists only for the ``fidelity`` field of the ``perfbench`` report.
    The simulator has one execution path: collapsed packet legs (see
    :func:`activate_fastforward`) give the same results as the packet
    chain, so ``.mode`` is ``"exact"``.  Any other ``mode`` raises
    ``ValueError``.
    """
    if mode not in (None, "exact"):
        raise ValueError(f"unknown fidelity mode {mode!r}; only 'exact' exists")
    return _PACKET_EXACT


__all__ = [
    "ACK_BYTES",
    "CoDelDiscipline",
    "CompositeNoise",
    "Dumbbell",
    "DynamicLink",
    "HeadDropDiscipline",
    "MultiDumbbell",
    "ParkingLot",
    "RandomDropDiscipline",
    "REDDiscipline",
    "TailDropDiscipline",
    "Topology",
    "TopologyError",
    "cellular_rate",
    "step_rate",
    "DynamicsError",
    "DynamicsLog",
    "Event",
    "Flow",
    "FlowReceiver",
    "FlowStats",
    "GaussianJitter",
    "GilbertElliott",
    "LinkEvent",
    "TimelineDriver",
    "InvariantChecker",
    "InvariantError",
    "Link",
    "LinkStats",
    "MTU_BYTES",
    "NoNoise",
    "Packet",
    "Path",
    "Rng",
    "SimBudgetExceeded",
    "SimulationError",
    "Simulator",
    "SpikeNoise",
    "activate_fastforward",
    "make_rng",
    "resolve_fidelity",
    "mbps",
    "spawn",
    "wifi_noise",
]
