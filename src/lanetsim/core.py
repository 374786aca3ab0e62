"""Core vocabulary types for visible-light ad hoc network simulation.

Nodes sit on a 2-D plane and talk through directional optical
transceivers whose field of view splits the surroundings into equal
angular sectors.  Everything in this module is a pure value type or a
pure geometry function; the rest of the package builds on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


_TWO_PI = 2.0 * math.pi


def sector_of(observer: Position, target: Position, n_sectors: int) -> int:
    """Sector index of ``target`` as seen from ``observer``.

    Sector 0 is centered on the +x axis and sectors advance
    counterclockwise in equal spans of ``360 / n_sectors`` degrees.  A
    bearing exactly on a boundary belongs to the counterclockwise-next
    sector, so the 0/1 boundary (45 degrees for four sectors) maps to
    sector 1.
    """
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    dx = target.x - observer.x
    dy = target.y - observer.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing undefined for coincident positions")
    span = _TWO_PI / n_sectors
    theta = math.atan2(dy, dx)
    idx = int(((theta + 0.5 * span) % _TWO_PI) / span)
    return idx % n_sectors  # guard against fp landing exactly on 2*pi


def opposite_sector(sector: int, n_sectors: int) -> int:
    """Sector seen from the far end of a link.  Meaningful for even counts."""
    return (sector + n_sectors // 2) % n_sectors


@dataclass(slots=True)
class DirectedLink:
    """One direction of a feasible optical link."""
    tx: int
    rx: int
    sector_at_tx: int      # sector of rx as seen from tx
    sector_at_rx: int      # sector of tx as seen from rx
    p_e: float = 0.0       # packet error probability
    p_b: float = 0.0       # blockage probability per transmission
    capacity_bps: float = 10_000_000.0


@dataclass(slots=True)
class DataPacket:
    """Queue entry for one data packet travelling toward its session sink."""
    session: int
    seq: int
    attempts: int = 0       # committed data rounds at the current holder
    h_attempts: int = 0     # handshake attempts at the current holder (GR-CSMA)
