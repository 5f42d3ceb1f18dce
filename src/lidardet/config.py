"""Flat text configuration for the command-line pipeline.

Files hold ``key = value`` lines with ``#`` comments. Keys are dotted
into sections. The ``raster.*``, ``train.*``, ``infer.*`` and ``scene.*``
keys and ``anchor.stride``/``anchor.z_center`` are the fields of
RangeSpec, TrainConfig, InferConfig, SceneSpec and AnchorLayout and take
the dataclasses' own defaults; a tuple field such as
``SceneSpec.dim_mean`` is an (l, w, h) triple with one key per element
(``scene.dim_mean_l``). Only the two keys that no dataclass field holds
are listed here: ``seed`` (it feeds both TrainConfig and SceneSpec) and
``anchor.clusters`` (the k of the anchor dimension clustering). Every key
has a default, and the default's type decides how the value parses.
Unknown keys and malformed values raise ConfigError so typos cannot
silently fall back.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .bevraster import RangeSpec
from .errors import ConfigError
from .model import AnchorLayout, InferConfig, TrainConfig
from .pcio import read_text
from .synthgen import SceneSpec

# Each config dataclass: its key prefix and the fields that take no key.
_SECTIONS = {
    RangeSpec: ("raster", ()),
    AnchorLayout: ("anchor", ("shapes",)),
    TrainConfig: ("train", ("seed",)),
    InferConfig: ("infer", ()),
    SceneSpec: ("scene", ("seed", "range_spec")),
}


def _field_keys(cls) -> list:
    """(field, keys) per configurable field; a tuple field gets _l/_w/_h keys."""
    prefix, skip = _SECTIONS[cls]
    return [(f, tuple(f"{prefix}.{f.name}_{s}" for s in "lwh")
             if isinstance(f.default, tuple) else (f"{prefix}.{f.name}",))
            for f in fields(cls) if f.name not in skip]


def _field_defaults() -> dict:
    out = {}
    for cls in _SECTIONS:
        for f, keys in _field_keys(cls):
            if f.default is not MISSING:
                out.update(zip(keys, f.default if len(keys) > 1 else (f.default,)))
    return out


DEFAULTS = {"seed": 0, "anchor.clusters": 2, **_field_defaults()}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _parse_value(key: str, token: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        try:
            return _BOOL_WORDS[token.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got {token!r}") from None
    if isinstance(default, int):
        try:
            return int(token)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {token!r}") from None
    if isinstance(default, float):
        try:
            value = float(token)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {token!r}") from None
        return value
    return token


def default_config() -> dict:
    return dict(DEFAULTS)


def parse_config(text: str, source: str = "<config>") -> dict:
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if not token:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        cfg[key] = _parse_value(key, token)
    return cfg


def load_config(path) -> dict:
    return parse_config(read_text(path), source=str(path))


def _make(cls, cfg: dict, **given):
    """Build a section's dataclass from its keys plus the ``given`` fields."""
    kwargs = {f.name: tuple(cfg[k] for k in keys) if len(keys) > 1 else cfg[keys[0]]
              for f, keys in _field_keys(cls)}
    return cls(**kwargs, **given)


def make_range_spec(cfg: dict) -> RangeSpec:
    return _make(RangeSpec, cfg)


def make_scene_spec(cfg: dict) -> SceneSpec:
    return _make(SceneSpec, cfg, seed=cfg["seed"], range_spec=make_range_spec(cfg))


def make_train_config(cfg: dict) -> TrainConfig:
    return _make(TrainConfig, cfg, seed=cfg["seed"])


def make_infer_config(cfg: dict) -> InferConfig:
    return _make(InferConfig, cfg)


def make_layout(cfg: dict, shapes) -> AnchorLayout:
    return _make(AnchorLayout, cfg,
                 shapes=tuple(tuple(float(v) for v in s) for s in shapes))
