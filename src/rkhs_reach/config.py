"""Run configuration: defaults, config-file parsing, and builders.

A config file is flat ``key = value`` text (``#`` comments allowed).
Command-line flags override file values, which override defaults. The
same coercion rules apply to both sources, so ``--horizon 5`` and
``horizon = 5`` in a file behave identically.
"""

import dataclasses
import os
import re

import numpy as np

from .errors import InputError
from .io import read_points
from .reach import BoxSet, ConstantPolicy, ReachProblem, ZeroPolicy, grid_points
from .systems import (
    BetaDisturbance,
    BoxSampler,
    CWHSystem,
    GaussianDisturbance,
    IntegratorChain,
    ZeroDisturbance,
    cwh_lqr_policy,
    cwh_sets,
)

__all__ = [
    "RunConfig",
    "parse_config_file",
    "apply_overrides",
    "build_system",
    "build_disturbance",
    "build_policy",
    "build_problem",
    "build_sampler",
    "evaluation_points",
    "parse_box",
    "parse_point",
    "parse_control_grid",
    "parse_ints",
    "parse_shape",
    "CWH_SAMPLE_BOX",
]

# Position tube straddling the target, velocities near rest. Transition
# samples for the rendezvous system are drawn here by default.
CWH_SAMPLE_BOX = (-0.9, 0.9, -1.0, -0.1, -0.05, 0.05, -0.05, 0.05)


@dataclasses.dataclass
class RunConfig:
    system: str = "integrator"
    dim: int = 2
    sampling_time: float | None = None
    disturbance: str = "gaussian"
    noise_sd: float | None = None
    beta_alpha: float = 0.5
    beta_beta: float = 0.5
    beta_centered: bool = False
    sigma: float = 0.1
    lam: float = 1.0
    normalize_weights: bool = True
    horizon: int = 3
    samples: int = 1024
    seed: int = 0
    policy: str = "zero"
    sample_box: str = ""
    grid: str = "101x101:-1.1,1.1,-1.1,1.1"
    point: str = ""
    points_file: str = ""
    mode: str = "fixed"
    control_grid: str = ""
    safe_box: str = "-1,1"
    target_box: str = "-1,1"
    rollouts: int = 100000
    dp_grid: str = "201x201"
    dp_quad: int = 25


# Config-file spellings that differ from the field name, and the
# inverse, by which messages and flags name a field.
_KEY_ALIASES = {"lambda": "lam"}
_FIELD_KEYS = {field: key for key, field in _KEY_ALIASES.items()}

_FIELD_TYPES = {field.name: field.type for field in dataclasses.fields(RunConfig)}

# Text-to-number conversion by declared type; ``None`` is a default only
# and has no spelling, so optional floats parse as plain floats.
_NUMBER_TYPES = {int: int, float: float, float | None: float}

# The allowed values of each setting that names a choice, and the least
# value of each count that may not be 1; every int setting but ``seed``
# is a count.
_CHOICES = {
    "system": ("integrator", "cwh"),
    "disturbance": ("gaussian", "beta", "none"),
    "mode": ("fixed", "max"),
}
_LEAST = {"dp_quad": 2}

# The settings that apply only while another setting has one value: per
# that setting and value, the settings it rules and what refusing one
# says after "NAME is set but", formatted with the setting's value and
# the value it needs. Under another value they must keep their defaults.
_CWH_BOXES = "the cwh system uses its fixed line-of-sight cone and docking box"
_SHAPES = "the disturbance is {}; it shapes only the {} disturbance"
_GRID = "mode is {}; the grid is searched only with mode=max"
_POLICY = "mode is {}; max mode searches control_grid and queries no policy"
_APPLIES_ONLY_UNDER = {
    ("system", "integrator"): (("safe_box", "target_box"), _CWH_BOXES),
    ("disturbance", "gaussian"): (("noise_sd",), _SHAPES),
    ("disturbance", "beta"): (("beta_alpha", "beta_beta", "beta_centered"), _SHAPES),
    ("mode", "max"): (("control_grid",), _GRID),
    ("mode", "fixed"): (("policy",), _POLICY),
}


def coerce_value(name, raw):
    """Convert the string ``raw`` to the type of config field ``name``."""
    name = _KEY_ALIASES.get(name, name)
    if name not in _FIELD_TYPES:
        raise InputError(f"unknown configuration key: {name}")
    raw = raw.strip()
    kind = _FIELD_TYPES[name]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return name, True
        if lowered in ("false", "0", "no", "off"):
            return name, False
        raise InputError(f"{name} must be true or false, got {raw!r}")
    if kind is str:
        return name, raw
    try:
        return name, _NUMBER_TYPES[kind](raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise InputError(f"{name} expects {expected}, got {raw!r}")


def parse_config_file(path):
    """Parse a flat key=value config file into a dict of coerced values."""
    if not os.path.exists(path):
        raise InputError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read config file {path}: {exc}")
    values = {}
    # universal newlines have turned every line ending into "\n"
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        try:
            name, value = coerce_value(key.strip(), raw)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}")
        values[name] = value
    return values


def apply_overrides(cfg, overrides):
    """Apply ``{field: value}`` on top of ``cfg``; None entries are skipped."""
    updates = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if isinstance(value, str):
            key, value = coerce_value(key, value)
        else:
            key = _KEY_ALIASES.get(key, key)
        updates[key] = value
    return dataclasses.replace(cfg, **updates)


def validate(cfg):
    """Check ``cfg`` field by field in declaration order, then across fields.

    Float settings must be finite and positive (an unset optional one
    passes), counts at least 1 (``dp_quad`` at least 2) and within a
    numpy index, ``seed`` non-negative, and choices one of ``_CHOICES``.
    Across fields, the cwh system refuses ``dim`` but 2 or 4, and each
    setting of ``_APPLIES_ONLY_UNDER`` must keep its default unless the
    setting it applies under has the value it needs.
    """
    for name, kind in _FIELD_TYPES.items():
        value, key = getattr(cfg, name), _FIELD_KEYS.get(name, name)
        if name in _CHOICES and value not in _CHOICES[name]:
            allowed = ", ".join(_CHOICES[name])
            raise InputError(f"{key} must be one of {allowed}, got {value!r}")
        if kind in (float, float | None) and value is not None:
            if not np.isfinite(value):
                raise InputError(f"{key} must be finite, got {value}")
            if value <= 0:
                raise InputError(f"{key} must be positive, got {value}")
        if name == "seed" and value < 0:
            raise InputError(f"seed must be non-negative, got {value}")
        if kind is int and name != "seed":
            _check_count(value, key, _LEAST.get(name, 1))
    if cfg.system == "cwh" and cfg.dim not in (2, 4):
        # dim is ignored for the rendezvous system (state is 4-D), but a
        # value other than the default or 4 signals a misconfiguration.
        raise InputError("dim cannot be overridden for the cwh system")
    for (key, needed), (names, reason) in _APPLIES_ONLY_UNDER.items():
        value = getattr(cfg, key)
        for name in names:
            if value != needed and getattr(cfg, name) != getattr(RunConfig, name):
                raise InputError(f"{name} is set but " + reason.format(value, needed))
    return cfg


def build_system(cfg):
    """The configured system; an unset ``sampling_time`` keeps its default."""
    t = cfg.sampling_time
    kwargs = {} if t is None else {"sampling_time": t}
    if cfg.system == "integrator":
        return IntegratorChain(cfg.dim, **kwargs)
    return CWHSystem(**kwargs)


def build_disturbance(cfg, system):
    n = system.n
    if cfg.disturbance == "none":
        return ZeroDisturbance(n)
    if cfg.disturbance == "beta":
        return BetaDisturbance(
            cfg.beta_alpha, cfg.beta_beta, n, centered=cfg.beta_centered
        )
    if cfg.noise_sd is not None:
        return GaussianDisturbance(np.full(n, cfg.noise_sd))
    return system.default_disturbance()


def build_policy(cfg, system, control_dim=None):
    """Build the policy named by ``cfg.policy``.

    ``control_dim`` overrides the system's control dimension when the
    policy must match an externally supplied sample file.
    """
    m = system.m if control_dim is None else control_dim
    name = cfg.policy
    if name == "zero":
        return ZeroPolicy(m)
    if name.startswith("constant:"):
        values = _parse_floats(name[len("constant:") :], "policy constant")
        if len(values) != m:
            raise InputError(
                f"constant policy has {len(values)} entries, control dimension is {m}"
            )
        return ConstantPolicy(np.asarray(values, dtype=np.float64))
    if name == "lqr":
        if not isinstance(system, CWHSystem):
            raise InputError("the lqr policy is only defined for the cwh system")
        return cwh_lqr_policy(system)
    raise InputError(f"unknown policy: {name!r}")


def _split(text, what, seps):
    """The fields of ``text`` between any of the characters ``seps``, none empty."""
    parts = re.split(f"[{seps}]", text)
    if not all(p.strip() for p in parts):
        raise InputError(f"{what}: empty field in {text!r}")
    return parts


def _parse_floats(text, what):
    try:
        values = [float(p) for p in _split(text, what, ",;")]
    except ValueError:
        raise InputError(f"{what}: expected comma-separated numbers, got {text!r}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{what}: numbers must be finite, got {text!r}")
    return values


def parse_box(text, dim, what):
    """Parse ``lo,hi`` (broadcast) or ``lo1,hi1,...,lon,hin`` into a BoxSet."""
    values = _parse_floats(text, what)
    if len(values) == 2:
        values = values * dim
    if len(values) != 2 * dim:
        raise InputError(
            f"{what}: expected 2 or {2 * dim} numbers for dimension {dim}, "
            f"got {len(values)}"
        )
    lower = np.array(values[0::2], dtype=np.float64)
    upper = np.array(values[1::2], dtype=np.float64)
    return BoxSet(lower, upper)


def parse_point(text, dim, what="point"):
    values = _parse_floats(text, what)
    if len(values) != dim:
        raise InputError(
            f"{what}: expected {dim} coordinates, got {len(values)}"
        )
    return np.asarray(values, dtype=np.float64).reshape(1, dim)


def parse_control_grid(text, control_dim):
    """Parse ``u1a,u1b;u2a,u2b;...`` into an (n_controls, m) array."""
    if not text.strip():
        raise InputError("mode=max requires a control_grid")
    rows = []
    for chunk in _split(text, "control_grid", ";"):
        values = _parse_floats(chunk, "control_grid")
        if len(values) != control_dim:
            raise InputError(
                f"control_grid entry {chunk!r} has {len(values)} entries, "
                f"control dimension is {control_dim}"
            )
        rows.append(values)
    return np.asarray(rows, dtype=np.float64)


def build_problem(cfg, dim):
    """The configured safe set, target set and horizon as a ReachProblem."""
    if cfg.system == "cwh":
        target, safe = cwh_sets()
    else:
        safe = parse_box(cfg.safe_box, dim, "safe_box")
        target = parse_box(cfg.target_box, dim, "target_box")
    return ReachProblem(safe=safe, target=target, horizon=cfg.horizon)


def build_sampler(cfg, dim):
    """Uniform sampler of initial states: the safe box inflated by 10%.

    ``sample_box`` overrides it. The rendezvous system instead uses a
    fixed tube around the approach corridor, since its safe set is a cone
    rather than a box.
    """
    if cfg.sample_box:
        box = parse_box(cfg.sample_box, dim, "sample_box")
        return BoxSampler(box.lower, box.upper)
    if cfg.system == "cwh":
        return BoxSampler(CWH_SAMPLE_BOX[0::2], CWH_SAMPLE_BOX[1::2])
    safe = parse_box(cfg.safe_box, dim, "safe_box")
    with np.errstate(over="ignore", invalid="ignore"):
        center = (safe.lower + safe.upper) / 2.0
        half = (safe.upper - safe.lower) / 2.0
        lower, upper = center - 1.1 * half, center + 1.1 * half
    return BoxSampler(lower, upper)


def _check_count(value, key, least):
    """Refuse a count below ``least`` or too large for a numpy index."""
    if value < least:
        raise InputError(f"{key} must be at least {least}, got {value}")
    if value > np.iinfo(np.intp).max:
        raise InputError(
            f"{key} must be at most {np.iinfo(np.intp).max}, got {value}"
        )


def parse_ints(text, what, least, sep=","):
    """Parse ``sep``-separated integers, each a count of at least ``least``."""
    try:
        values = [int(p) for p in _split(text, what, sep)]
    except ValueError:
        raise InputError(f"{what}: expected {sep!r}-separated integers, got {text!r}")
    for value in values:
        _check_count(value, what, least)
    return values


def parse_shape(text, what="grid"):
    """Parse ``n1xn2`` into a pair of axis sizes, each at least 2."""
    shape = parse_ints(text.lower(), what, 2, sep="x")
    if len(shape) != 2:
        raise InputError(f"{what} shape must be n1xn2, got {text!r}")
    return tuple(shape)


def parse_grid(text):
    """Parse ``n1xn2:lo1,hi1,lo2,hi2`` into (shape, BoxSet)."""
    head, _, tail = text.partition(":")
    shape = parse_shape(head)
    if not tail:
        raise InputError(f"grid must include bounds after a colon, got {text!r}")
    box = parse_box(tail, 2, "grid bounds")
    return shape, box


def evaluation_points(cfg, dim):
    """Resolve where to evaluate: points file, single point, or 2-D grid.

    Coordinates are checked for finiteness by the estimators
    (:func:`rkhs_reach.reach.checked_points`).
    """
    if cfg.points_file:
        return read_points(cfg.points_file, dim)
    if cfg.point:
        return parse_point(cfg.point, dim)
    if dim != 2:
        raise InputError(
            "grid evaluation is 2-D only; pass point=... or points_file=... "
            f"for dimension {dim}"
        )
    shape, box = parse_grid(cfg.grid)
    return grid_points(shape, box.lower, box.upper)[1]

