"""Run configuration: dataclass defaults plus the INI file schema.

Defaults reproduce the reference desk-scale deployment: a 10x10 grid in
a 25 m x 25 m area, 4 m range, 100 nodes with 5 sinks, 10 Mbps links,
20-byte control and 2500-byte data packets, mean error rate 0.2, a
quarter of the links severely blocked.  Config files are flat key=value
INI sections parsed with the standard library; unknown keys are errors
so typos fail loudly.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .topology import default_grid_sinks

PROTOCOLS = ("VL-ROUTE", "VL-MAC-GEO", "GR-CSMA")


@dataclass
class ScenarioConfig:
    # scenario
    protocol: str = "VL-ROUTE"
    seed: int = 1
    duration_cap_s: float = 60.0
    stall_window_s: float = 0.25
    # topology
    topology: str = "grid"            # grid | random | file
    rows: int = 10
    cols: int = 10
    area_side_m: float = 25.0
    range_m: float = 4.0
    grid_sinks: str = "corners+center"  # or explicit "0,9,55"
    n_nodes: int = 100                # random topology
    n_sinks: int = 5                  # random topology
    graph_file: str = ""
    n_sectors: int = 4
    # traffic
    sessions: int = 10
    packets_per_session: int = 200
    data_bytes: int = 2500
    control_bytes: int = 20
    # mac / timing
    link_rate_bps: int = 10_000_000
    cms_per_slot: int = 8
    cw: int = 5                       # ART backoff window, also the access estimate input
    acn_window: int = 2
    retry_limit: int = 7
    b_max: int = 100
    backoff_utility_scale: float = 25.0
    csma_cw_min: int = 8
    csma_cw_max: int = 64
    # channel
    mean_p_e: float = 0.2
    severe_fraction: float = 0.25
    p_b_severe: float = 0.9
    p_b_mild: float = 0.05
    estimation_error: float = 0.05

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose one of {', '.join(PROTOCOLS)}")
        if self.topology not in ("grid", "random", "file"):
            raise ValueError(f"unknown topology kind {self.topology!r}")
        if self.topology == "file" and not self.graph_file:
            raise ValueError("topology=file needs graph_file")
        if self.topology == "random":
            if self.n_sinks < 1:
                raise ValueError("n_sinks must be >= 1")
            if self.n_sinks >= self.n_nodes:
                raise ValueError("n_sinks must leave a non-sink node "
                                 "(n_sinks < n_nodes)")
        for name in ("area_side_m", "duration_cap_s", "stall_window_s",
                     "range_m"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if self.n_sectors < 2 or self.n_sectors % 2:
            raise ValueError("n_sectors must be even and >= 2")
        if self.cms_per_slot < 4:
            raise ValueError("cms_per_slot must be >= 4 to fit a handshake")
        if not 1 <= self.cw <= self.cms_per_slot - 3:
            raise ValueError("cw must fit the ART window "
                             f"(1..{self.cms_per_slot - 3})")
        if self.acn_window < 1:
            raise ValueError("acn_window must be >= 1")
        if self.cw + self.acn_window + 1 > self.cms_per_slot:
            raise ValueError("slot too short for cw + acn_window + RES")
        if self.topology == "grid":
            if self.rows < 1 or self.cols < 1:
                raise ValueError("grid needs at least one row and one column")
            try:
                sinks = self.grid_sink_ids()
            except ValueError:
                raise ValueError("grid_sinks must be 'corners+center' or "
                                 f"node ids, got {self.grid_sinks!r}") from None
            if sinks == []:
                raise ValueError("grid_sinks names no sink")
            if sinks and len(set(sinks)) != len(sinks):
                raise ValueError("grid_sinks repeats a node id: "
                                 f"{self.grid_sinks!r}")
            n = self.rows * self.cols
            if sinks is None:
                sinks = default_grid_sinks(self.rows, self.cols)
            for s in sinks:
                if not 0 <= s < n:
                    raise ValueError(f"grid_sinks names node {s}, outside "
                                     f"the grid's 0..{n - 1}")
            if len(sinks) >= n:
                raise ValueError("grid needs a non-sink node to source "
                                 "traffic")
        if self.sessions < 1 or self.packets_per_session < 1:
            raise ValueError("need at least one session and one packet")
        # a frame must take at least one microsecond on the air
        for name in ("link_rate_bps", "control_bytes", "data_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if not self.backoff_utility_scale >= 0.0:
            raise ValueError("backoff_utility_scale must be >= 0")
        if self.b_max < 1:
            raise ValueError("b_max must be >= 1")
        if not 0.0 <= self.estimation_error < 1.0:
            raise ValueError("estimation_error must lie in [0, 1)")
        # per-link error rates are drawn uniform on [0, 2 * mean_p_e]
        if not 0.0 <= self.mean_p_e <= 0.5:
            raise ValueError("mean_p_e must lie in [0, 0.5]")
        for name in ("severe_fraction", "p_b_severe", "p_b_mild"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.csma_cw_min < 1 or self.csma_cw_max < self.csma_cw_min:
            raise ValueError("need 1 <= csma_cw_min <= csma_cw_max")

    def grid_sink_ids(self) -> list[int] | None:
        """The grid's sink ids, or None for its corners plus center."""
        if self.grid_sinks == "corners+center":
            return None
        return [int(x) for x in self.grid_sinks.replace(",", " ").split()]


# section -> {key: field name}; keys match field names except where the
# section makes the long prefix redundant.
_SCHEMA: dict[str, dict[str, str]] = {
    "scenario": {
        "protocol": "protocol",
        "seed": "seed",
        "duration_cap_s": "duration_cap_s",
        "stall_window_s": "stall_window_s",
    },
    "topology": {
        "kind": "topology",
        "rows": "rows",
        "cols": "cols",
        "area_side_m": "area_side_m",
        "range_m": "range_m",
        "sinks": "grid_sinks",
        "n": "n_nodes",
        "n_sinks": "n_sinks",
        "file": "graph_file",
        "n_sectors": "n_sectors",
    },
    "traffic": {
        "sessions": "sessions",
        "packets_per_session": "packets_per_session",
        "data_bytes": "data_bytes",
        "control_bytes": "control_bytes",
    },
    "mac": {
        "link_rate_bps": "link_rate_bps",
        "cms_per_slot": "cms_per_slot",
        "cw": "cw",
        "acn_window": "acn_window",
        "retry_limit": "retry_limit",
        "b_max": "b_max",
        "backoff_utility_scale": "backoff_utility_scale",
        "csma_cw_min": "csma_cw_min",
        "csma_cw_max": "csma_cw_max",
    },
    "channel": {
        "mean_p_e": "mean_p_e",
        "severe_fraction": "severe_fraction",
        "p_b_severe": "p_b_severe",
        "p_b_mild": "p_b_mild",
        "estimation_error": "estimation_error",
    },
}

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _convert(field_name: str, raw: str):
    ftype = _FIELD_TYPES[field_name]
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


def load_scenario(path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse an INI scenario file; `overrides` wins over file contents."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    cfg = ScenarioConfig()
    for section in parser.sections():
        if section == "sweep":
            continue  # handled by load_sweep
        keys = _SCHEMA.get(section)
        if keys is None:
            raise ValueError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in [{section}] "
                                 f"of {path}")
            setattr(cfg, keys[key], _convert(keys[key], raw))
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


SWEEP_PARAMS = ("sessions", "severe_fraction", "estimation_error")


@dataclass
class SweepSpec:
    """One swept parameter x seeds x protocols over a base scenario."""
    parameter: str
    values: list[float]
    seeds: int = 10
    protocols: tuple[str, ...] = PROTOCOLS
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    def validate(self) -> None:
        if self.parameter not in SWEEP_PARAMS:
            raise ValueError(f"sweep parameter must be one of "
                             f"{', '.join(SWEEP_PARAMS)}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.seeds < 1:
            raise ValueError("sweep needs at least one seed")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r} in sweep")
        self.base.validate()

    def value_for(self, v: float):
        """Coerce a swept value to the field's type."""
        return int(v) if self.parameter == "sessions" else float(v)


def load_sweep(path) -> SweepSpec:
    """Parse a sweep INI: a [sweep] section over normal scenario sections."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise FileNotFoundError(path)
    if not parser.has_section("sweep"):
        raise ValueError(f"{path} has no [sweep] section")
    base = load_scenario(path)
    sw = parser["sweep"]
    unknown = set(sw) - {"parameter", "values", "seeds", "protocols"}
    if unknown:
        raise ValueError(f"unknown sweep keys: {', '.join(sorted(unknown))}")
    spec = SweepSpec(
        parameter=sw.get("parameter", "sessions"),
        values=[float(v) for v in sw.get("values", "").replace(",", " ").split()],
        seeds=sw.getint("seeds", 10),
        protocols=tuple(p.strip() for p in
                        sw.get("protocols", ",".join(PROTOCOLS)).split(",")
                        if p.strip()),
        base=base,
    )
    spec.validate()
    return spec
