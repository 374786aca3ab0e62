"""A packet-level simulator for visible-light ad hoc networks.

Implements the VL-ROUTE cross-layer routing protocol (reliability-aware
sector handshakes with full-duplex exchange scheduling) next to two
baselines, VL-MAC-GEO (same handshake, geographic-only utilities) and
GR-CSMA (greedy forwarding over CSMA/CA), on a deterministic seeded
discrete-event engine.
"""
from .config import (PROTOCOLS, ScenarioConfig, SweepSpec, load_scenario,
                     load_sweep)
from .core import (DataPacket, DirectedLink, Position, distance,
                   opposite_sector, sector_of)
from .engine import (RunMetrics, Simulation, SlotClock, build_topology,
                     flood_routing_tables, generate_sessions, run,
                     sample_link_outcome)
from .mac import (backoff_slots, greedy_next_hop, select_initiator,
                  select_sector, select_session_eta)
from .reliability import (access_prob, delivery_prob_oracle,
                          enumerate_forward_routes, link_success_prob,
                          mhc_map, protocol_link_probs, route_reliability,
                          rrs_fixed_point_oracle, transmit_prob)
from .routing import EstimationModel, RoutingState, compute_beta
from .rng import child_seed, substream
from .topology import (ConnectivityGraph, assign_blockage,
                       assign_error_probs, build_grid, build_random,
                       default_grid_sinks)

__version__ = "0.1.0"

__all__ = [
    "PROTOCOLS", "ScenarioConfig", "SweepSpec", "load_scenario",
    "load_sweep", "DataPacket", "DirectedLink", "Position", "distance",
    "opposite_sector", "sector_of", "RunMetrics", "Simulation", "SlotClock",
    "build_topology", "flood_routing_tables", "generate_sessions", "run",
    "sample_link_outcome", "backoff_slots", "greedy_next_hop",
    "select_initiator", "select_sector", "select_session_eta", "access_prob",
    "delivery_prob_oracle", "enumerate_forward_routes",
    "link_success_prob", "mhc_map", "protocol_link_probs",
    "route_reliability", "rrs_fixed_point_oracle", "transmit_prob",
    "EstimationModel", "RoutingState", "compute_beta", "child_seed",
    "substream", "ConnectivityGraph", "assign_blockage",
    "assign_error_probs", "build_grid", "build_random",
    "default_grid_sinks",
]
