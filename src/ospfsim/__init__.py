"""Executable link-state protocol models, a deterministic discrete-time
network engine, and a bounded exhaustive explorer."""

from .core import (
    Ack,
    DbdDetailed,
    DbdSimple,
    DetailedNeighbor,
    Hello,
    Lsa,
    LsaHeader,
    Lsdb,
    Message,
    NeighborState,
    NodeState,
    ProtocolConfig,
    ReqDetailed,
    ReqSimple,
    SendInstruction,
    SimpleNeighbor,
    Upd,
    broadcast,
    groupcast,
    hdr,
)
from .engine import EngineConfig, SimState, Verdict, converged, run
from .explorer import ExploreConfig, ExploreVerdict, explore
from .lsdb import install, lsa_exist, new_lsa_detailed, new_lsa_simple, newer_age
from .topology import Topology, line, load_topology, parse_topology, ring, star

__version__ = "0.1.0"
