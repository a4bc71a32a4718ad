"""Model parameters: loading, validation, unit conversion."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass


class ConfigError(ValueError):
    """Malformed config file or parameter set violating a model invariant."""


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** (value_dbm / 10.0) * 1e-3


# Fields that must be strictly positive.
_POSITIVE_FIELDS = (
    "p0_static",
    "delta_p",
    "p_trans",
    "lambda_b",
    "hotspot_radius",
    "mu",
    "omega",
    "nu",
    "delta_t",
)

# Fields that must be >= 0 (zero is meaningful: no uniform users, no noise, ...).
_NONNEGATIVE_FIELDS = (
    "lambda_u1",
    "lambda_p",
    "lambda_u2",
    "noise_power",
    "tau",
    "xi_grid",
    "xi_re",
    "rate_scale",
)


@dataclass(frozen=True)
class NetworkConfig:
    """Full parameter set for one network scenario.

    Distances are in km, densities in km^-2, powers in watts, rates per unit
    time. ``noise_power`` and ``tau`` are stored linear; the JSON loader also
    accepts ``noise_power_dbm`` / ``tau_db`` and converts.
    """

    p0_static: float          # load-independent draw per BS, W
    delta_p: float            # amplifier slope, dimensionless
    p_trans: float            # total transmit power per BS, W
    n_channels: int           # channels per BS
    t_levels: int             # battery capacity in discrete energy units
    lambda_b: float           # BS density
    lambda_u1: float          # uniformly spread user density
    lambda_p: float           # hotspot center density
    lambda_u2: float          # clustered user density within a hotspot
    hotspot_radius: float     # hotspot disc radius, km
    alpha: float              # path-loss exponent, > 2
    noise_power: float        # receiver noise, W
    tau: float                # SINR threshold, linear
    mu: float                 # per-channel service rate
    omega: float              # battery drain per busy channel
    nu: float                 # renewable recharge rate
    delta_t: float = 1.0      # accounting interval
    static_drain_override: float | None = None
    xi_grid: float = 1.5842e-4  # grid carbon intensity, gCO2 per J
    xi_re: float = 0.0          # renewable carbon intensity
    p_req: float = 0.95         # success-probability floor for optimization
    rate_scale: float = 1.0     # bandwidth multiplier applied to per-user rates

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def p_t(self) -> float:
        """Per-channel transmit power."""
        return self.p_trans / self.n_channels

    @property
    def theta(self) -> float:
        """Energy drawn from the battery by one busy channel per unit time."""
        return self.delta_p * self.p_t * self.delta_t

    @property
    def static_drain(self) -> float:
        """Battery units consumed per unit time by the static load."""
        if self.static_drain_override is not None:
            return self.static_drain_override
        return self.p0_static / self.theta

    @property
    def mean_cluster_users(self) -> float:
        """Mean number of clustered users per hotspot."""
        return self.lambda_u2 * math.pi * self.hotspot_radius**2

    @property
    def user_arrival_density(self) -> float:
        """Total user density: clustered plus uniform."""
        return self.lambda_p * self.mean_cluster_users + self.lambda_u1


def _is_real(v) -> bool:
    """A number that converts to a finite float.  bool subclasses int, but a
    flag is never a valid count or rate; nor is an int past the float range."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and _is_real(v)


def _validate(cfg: NetworkConfig) -> None:
    problems = []
    for name in _POSITIVE_FIELDS:
        v = getattr(cfg, name)
        if not (_is_real(v) and v > 0):
            problems.append(f"{name} must be positive, got {v!r}")
    for name in _NONNEGATIVE_FIELDS:
        v = getattr(cfg, name)
        if not (_is_real(v) and v >= 0):
            problems.append(f"{name} must be nonnegative, got {v!r}")
    if not (_is_int(cfg.n_channels) and cfg.n_channels >= 1):
        problems.append(f"n_channels must be an integer >= 1, got {cfg.n_channels!r}")
    if not (_is_int(cfg.t_levels) and cfg.t_levels >= 1):
        problems.append(f"t_levels must be an integer >= 1, got {cfg.t_levels!r}")
    if not (_is_real(cfg.alpha) and cfg.alpha > 2):
        problems.append(f"alpha must exceed 2, got {cfg.alpha!r}")
    if not (_is_real(cfg.p_req) and 0 <= cfg.p_req < 1):
        problems.append(f"p_req must lie in [0, 1), got {cfg.p_req!r}")
    if cfg.static_drain_override is not None:
        v = cfg.static_drain_override
        if not (_is_real(v) and v >= 0):
            problems.append(f"static_drain_override must be nonnegative, got {v!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    # theta = delta_p * p_t * delta_t can underflow to 0 for valid fields.
    if cfg.static_drain_override is None and not (cfg.theta > 0 and math.isfinite(cfg.static_drain)):
        raise ConfigError(f"static drain p0_static / theta = {cfg.p0_static!r} / {cfg.theta!r} "
                          "is not finite")


_FIELD_NAMES = {f.name for f in dataclasses.fields(NetworkConfig)}
# JSON alternatives: value given on a dB scale instead of linear.
_DB_ALTERNATIVES = {"noise_power_dbm": "noise_power", "tau_db": "tau"}


def config_from_dict(raw: dict) -> NetworkConfig:
    """Build a validated config from a flat dict of JSON values."""
    data = dict(raw)
    for alt, target in _DB_ALTERNATIVES.items():
        if alt in data:
            if target in data:
                raise ConfigError(f"give either {target} or {alt}, not both")
            x = data.pop(alt)
            # A bool is not a level; +-inf is (-inf dBm means no noise).
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ConfigError(f"{alt} must be a number, got {x!r}")
            try:
                data[target] = dbm_to_watts(x) if alt.endswith("_dbm") else db_to_linear(x)
            except OverflowError:
                raise ConfigError(f"{alt} = {x!r} overflows a linear {target}") from None
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    missing = sorted(
        _FIELD_NAMES
        - set(data)
        - {f.name for f in dataclasses.fields(NetworkConfig) if f.default is not dataclasses.MISSING}
    )
    if missing:
        raise ConfigError("missing config keys: " + ", ".join(missing))
    try:
        return NetworkConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | os.PathLike) -> NetworkConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


def canonical_json(cfg: NetworkConfig) -> str:
    """Canonical serialized form: sorted keys, linear units, full float repr."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: NetworkConfig) -> str:
    """sha256 over the canonical serialized form."""
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()
