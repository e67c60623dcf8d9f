"""Plain-text key=value experiment configuration.

Grammar: one `section.key = value` per line, `#` comments, blank lines
ignored.  Overrides (`--set section.key=value` and the CLI's flags) replace
the file's entries before anything is parsed or validated, so a config is
built once from its final entries.  Connection functions are described by
kind, scale parameter, and an ordered transform list:

    model.g.kind = exponential         # hard_disk | exponential | gaussian | table
    model.g.a = 1.0                    # builtins
    model.g.table = 0:1, 0.5:0.4, 1:0  # table kind (radius:value pairs)
    model.g.transforms = scale:2, inside:0.5   # inside:R | outside:R | scale:n

Regions are boxes: `model.K.lower = 0,0` and `model.K.sides = 1,1`.  The
density rule is `scaled` (lam_n = lam * n^d) or explicit `n:lam_n` pairs,
each n named once and model.n (default 1) and every n of run.n_list among
them.  The config hash covers exactly what the experiment reads: a float
renders with 6 significant digits only when that reads back as the same
float, and the connection function's unread key (model.g.a of a table,
model.g.table of a builtin) hashes as its default.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .connfn import ConnectionFunction, ConnFnError, table_function
from .moments import ModelConfig, ModelError
from .quadrature import DEFAULT_SPEC, QuadratureSpec, Region
from .simulator import DEFAULT_POLICY, SimPolicy


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


_TRANSFORMS = {
    "inside": ConnectionFunction.truncate_inside,
    "outside": ConnectionFunction.truncate_outside,
    "scale": ConnectionFunction.scale,
}


def _parse_transforms(text: str):
    steps = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        op, _, arg = item.partition(":")
        op = op.strip()
        if op not in _TRANSFORMS:
            raise ValueError(f"unknown transform {op!r}")
        steps.append((op, _finite(arg)))
    return tuple(steps)


# key -> (parser, default)
_KEYS = {
    "model.d": (int, 1),
    "model.lambda": (_finite, 1.0),
    "model.n": (_finite, 1.0),
    "model.K.lower": (_parse_floats, (0.0,)),
    "model.K.sides": (_parse_floats, (1.0,)),
    "model.g.kind": (str, "exponential"),
    "model.g.a": (_finite, 1.0),
    "model.g.table": (_parse_pairs, ()),
    "model.g.transforms": (_parse_transforms, ()),
    "model.density_rule": (str, "scaled"),
    "run.n_list": (_parse_floats, (1.0,)),
    "run.R_list": (_parse_floats, (1.0,)),
    "run.r": (int, 1),
    "run.m": (int, 1000),
    "run.base_seed": (int, 1),
    "run.workers": (int, 0),
    "numerics.rel_tol": (_finite, DEFAULT_SPEC.rel_tol),
    "numerics.abs_tol": (_finite, DEFAULT_SPEC.abs_tol),
    "numerics.max_subdiv": (int, DEFAULT_SPEC.max_subdiv),
    "numerics.tail_eps": (_finite, DEFAULT_SPEC.tail_eps),
    "numerics.eps_margin": (_finite, DEFAULT_POLICY.eps_margin),
    "numerics.eps_edges": (_finite, DEFAULT_POLICY.eps_edges),
    "numerics.ks_threshold": (_finite, 0.05),
    "output.dir": (str, "out"),
    "output.format": (str, "both"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description assembled from key=value entries."""

    entries: tuple[tuple[str, str], ...]  # canonical (key, rendered value)
    model: ModelConfig  # at model.n; each n of n_list is model.at_n(n)
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


def _render_item(value) -> str:
    """A list element: 6 significant digits when they read back as the same float."""
    if isinstance(value, str):
        return value
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _render(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(map(_render_item, v)) if isinstance(v, tuple) else _render_item(v)
            for v in value
        )
    return str(value)


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse config text, then apply `key=value` overrides to its entries;
    errors carry 1-based line numbers."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    for item in overrides:
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        raw[key] = value.strip()
    return _build(raw)


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Read a run's config file and parse it with the overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _parse_value(key: str, text: str, parse=None):
    try:
        return (parse or _KEYS[key][0])(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} ({exc})") from exc


def _build(raw: dict[str, str]) -> ExperimentConfig:
    values = {key: default for key, (_, default) in _KEYS.items()}
    for key, text in raw.items():
        values[key] = _parse_value(key, text)

    kind = values["model.g.kind"]
    # the kind reads model.g.table or model.g.a, not both; the other, parsed
    # above, keeps its default so that it leaves the hash alone
    unread = "model.g.a" if kind == "table" else "model.g.table"
    values[unread] = _KEYS[unread][1]
    try:
        if kind == "table":
            g = table_function(values["model.g.table"])
        else:
            g = ConnectionFunction(kind=kind, a=values["model.g.a"])
        for op, arg in values["model.g.transforms"]:
            g = _TRANSFORMS[op](g, arg)

        K = Region(values["model.K.lower"], values["model.K.sides"])
        rule_text = values["model.density_rule"].strip()
        rule = None
        if rule_text != "scaled":
            rule = _parse_value("model.density_rule", rule_text, _parse_pairs)
            named = {nn for nn, _ in rule}
            if len(named) < len(rule):
                raise ConfigError("model.density_rule names an n more than once")
            if values["model.n"] not in named:
                raise ConfigError(f"model.n: density rule has no entry for n={values['model.n']}")
            values["model.density_rule"] = rule  # hashed as its pairs, not its text
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
            raise ConfigError("run.workers must be >= 0 (0 and 1 run serially)")
        if values["run.r"] < 1:
            raise ConfigError("run.r must be >= 1")
        for key in ("run.n_list", "run.R_list"):
            if not values[key]:
                raise ConfigError(f"{key} must not be empty")
        if any(not rr > 0 for rr in values["run.R_list"]):
            raise ConfigError("run.R_list entries must be > 0")
        if any(not nn >= 1 for nn in values["run.n_list"]):
            raise ConfigError("run.n_list entries must be >= 1")

        model = ModelConfig(  # validates d, lam, K, g, n jointly
            d=values["model.d"],
            lam=values["model.lambda"],
            K=K,
            g=g,
            n=values["model.n"],
            density_rule=rule,
        )
        for n in values["run.n_list"]:
            try:
                model.at_n(n)
            except ModelError as exc:
                raise ConfigError(f"run.n_list: {exc}") from None
        return ExperimentConfig(
            entries=tuple(sorted((k, _render(v)) for k, v in values.items())),
            model=model,
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
    except ConfigError:
        raise
    except ConnFnError as exc:
        raise ConfigError(f"model.g: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
