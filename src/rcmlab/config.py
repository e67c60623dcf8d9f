"""Plain-text key=value experiment configuration.

Grammar: one `section.key = value` per line, `#` comments, blank lines
ignored.  `--set section.key=value` overrides entries after the file is
read.  Connection functions are described by kind, scale parameter, and an
ordered transform list:

    model.g.kind = exponential         # hard_disk | exponential | gaussian | table
    model.g.a = 1.0                    # builtins
    model.g.table = 0:1, 0.5:0.4, 1:0  # table kind (radius:value pairs)
    model.g.transforms = scale:2, inside:0.5   # inside:R | outside:R | scale:n

Regions are boxes: `model.K.lower = 0,0` and `model.K.sides = 1,1`.  The
density rule is `scaled` (lam_n = lam * n^d) or explicit `n:lam_n` pairs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .connfn import ConnectionFunction, exponential, gaussian, hard_disk, table_function
from .moments import DensityRule, ModelConfig, ModelError
from .quadrature import QuadratureSpec, Region
from .simulator import SimPolicy


class ConfigError(ValueError):
    """Malformed or invalid configuration; message carries the source line."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_finite(t) for t in items)


def _parse_pairs(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        left, _, right = item.partition(":")
        out.append((_finite(left), _finite(right)))
    return tuple(out)


def _parse_transforms(text: str):
    steps = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        op, _, arg = item.partition(":")
        op = op.strip()
        if op not in ("inside", "outside", "scale"):
            raise ValueError(f"unknown transform {op!r}")
        steps.append((op, _finite(arg)))
    return tuple(steps)


_SCHEMA = {
    "model.d": int,
    "model.lambda": _finite,
    "model.n": _finite,
    "model.K.lower": _parse_floats,
    "model.K.sides": _parse_floats,
    "model.g.kind": str,
    "model.g.a": _finite,
    "model.g.table": _parse_pairs,
    "model.g.transforms": _parse_transforms,
    "model.density_rule": str,
    "run.n_list": _parse_floats,
    "run.R_list": _parse_floats,
    "run.r": int,
    "run.m": int,
    "run.base_seed": int,
    "run.workers": int,
    "numerics.rel_tol": _finite,
    "numerics.abs_tol": _finite,
    "numerics.max_subdiv": int,
    "numerics.tail_eps": _finite,
    "numerics.eps_margin": _finite,
    "numerics.eps_edges": _finite,
    "numerics.ks_threshold": _finite,
    "output.dir": str,
    "output.format": str,
}

_DEFAULTS = {
    "model.d": 1,
    "model.lambda": 1.0,
    "model.n": 1.0,
    "model.K.lower": (0.0,),
    "model.K.sides": (1.0,),
    "model.g.kind": "exponential",
    "model.g.a": 1.0,
    "model.g.table": (),
    "model.g.transforms": (),
    "model.density_rule": "scaled",
    "run.n_list": (1.0,),
    "run.R_list": (1.0,),
    "run.r": 1,
    "run.m": 1000,
    "run.base_seed": 1,
    "run.workers": 0,
    "numerics.rel_tol": 1e-8,
    "numerics.abs_tol": 1e-10,
    "numerics.max_subdiv": 512,
    "numerics.tail_eps": 1e-12,
    "numerics.eps_margin": 1e-4,
    "numerics.eps_edges": 1e-2,
    "numerics.ks_threshold": 0.05,
    "output.dir": "out",
    "output.format": "both",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description assembled from key=value entries."""

    entries: tuple[tuple[str, str], ...]  # canonical (key, rendered value)
    d: int
    lam: float
    n: float
    K: Region
    g: ConnectionFunction
    density_rule: DensityRule | None
    n_list: tuple[float, ...]
    R_list: tuple[float, ...]
    r: int
    m: int
    base_seed: int
    workers: int
    spec: QuadratureSpec
    policy: SimPolicy
    ks_threshold: float
    out_dir: str
    formats: tuple[str, ...]

    def model(self, n: float | None = None) -> ModelConfig:
        cfg = ModelConfig(
            d=self.d,
            lam=self.lam,
            K=self.K,
            g=self.g,
            n=self.n,
            density_rule=self.density_rule,
        )
        return cfg if n is None else replace(cfg, n=n)

    def canonical(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.entries) + "\n"

    def config_hash(self) -> str:
        """Identity of the experiment.

        Output paths and worker counts are execution details with no effect
        on any statistic, so they are excluded: reruns that only differ in
        where results go or how work is parallelized hash identically.
        """
        body = "\n".join(
            f"{k} = {v}"
            for k, v in self.entries
            if not k.startswith("output.") and k != "run.workers"
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def with_overrides(self, overrides) -> "ExperimentConfig":
        raw = dict(self.entries)
        for item in overrides:
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"--set: unknown key {key!r}")
            raw[key] = value.strip()
        return _build(raw)


def _render(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ", ".join(
                f"{a:g}:{b:g}" if not isinstance(a, str) else f"{a}:{b:g}"
                for a, b in value
            )
        return ", ".join(f"{v:g}" if not isinstance(v, str) else v for v in value)
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; errors carry 1-based line numbers."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    try:
        return _build(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Parse a run's config file and overrides; every n in run.n_list must have a lam_n."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if overrides:
        cfg = cfg.with_overrides(overrides)
    try:
        for n in cfg.n_list:
            cfg.model(n)
    except ModelError as exc:
        raise ConfigError(f"run.n_list: {exc}") from None
    return cfg


def _parse_value(key: str, text: str, parse=None):
    try:
        return (parse or _SCHEMA[key])(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} ({exc})") from exc


def _build(raw: dict[str, str]) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    for key, text in raw.items():
        values[key] = _parse_value(key, text)

    kind = values["model.g.kind"]
    transforms = values["model.g.transforms"]
    try:
        if kind == "table":
            g = table_function(values["model.g.table"])
        elif kind == "hard_disk":
            g = hard_disk(values["model.g.a"])
        elif kind == "exponential":
            g = exponential(values["model.g.a"])
        elif kind == "gaussian":
            g = gaussian(values["model.g.a"])
        else:
            raise ConfigError(f"model.g.kind: unknown kind {kind!r}")
        for op, arg in transforms:
            if op == "inside":
                g = g.truncate_inside(arg)
            elif op == "outside":
                g = g.truncate_outside(arg)
            else:
                g = g.scale(arg)

        K = Region(values["model.K.lower"], values["model.K.sides"])
        rule_text = values["model.density_rule"].strip()
        rule = None
        if rule_text != "scaled":
            rule = _parse_value("model.density_rule", rule_text, _parse_pairs)
        spec = QuadratureSpec(
            rel_tol=values["numerics.rel_tol"],
            abs_tol=values["numerics.abs_tol"],
            max_subdiv=values["numerics.max_subdiv"],
            tail_eps=values["numerics.tail_eps"],
        )
        policy = SimPolicy(
            eps_margin=values["numerics.eps_margin"],
            eps_edges=values["numerics.eps_edges"],
        )
        fmt = values["output.format"]
        if fmt not in ("csv", "json", "both"):
            raise ConfigError(f"output.format must be csv, json or both, got {fmt!r}")
        formats = ("csv", "json") if fmt == "both" else (fmt,)
        ks = values["numerics.ks_threshold"]
        if not 0 < ks < 1:
            raise ConfigError("numerics.ks_threshold must lie in (0, 1)")
        if values["run.m"] < 2:
            raise ConfigError("run.m must be >= 2")
        if values["run.base_seed"] < 0:
            raise ConfigError("run.base_seed must be >= 0")
        if values["run.workers"] < 0:
            raise ConfigError("run.workers must be >= 0 (0 means unset)")
        if values["run.r"] < 1:
            raise ConfigError("run.r must be >= 1")
        for key in ("run.n_list", "run.R_list"):
            if not values[key]:
                raise ConfigError(f"{key} must not be empty")
        if any(not rr > 0 for rr in values["run.R_list"]):
            raise ConfigError("run.R_list entries must be > 0")
        if any(not nn >= 1 for nn in values["run.n_list"]):
            raise ConfigError("run.n_list entries must be >= 1")

        cfg = ExperimentConfig(
            entries=tuple(sorted((k, _render(v)) for k, v in values.items())),
            d=values["model.d"],
            lam=values["model.lambda"],
            n=values["model.n"],
            K=K,
            g=g,
            density_rule=rule,
            n_list=values["run.n_list"],
            R_list=values["run.R_list"],
            r=values["run.r"],
            m=values["run.m"],
            base_seed=values["run.base_seed"],
            workers=values["run.workers"],
            spec=spec,
            policy=policy,
            ks_threshold=ks,
            out_dir=values["output.dir"],
            formats=formats,
        )
        cfg.model()  # validates d, lam, K, g, n jointly
        return cfg
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
