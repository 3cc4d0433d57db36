"""Optimizer registry."""

from __future__ import annotations

import dataclasses

from ..core import ConfigError
from .bbo import Bbo, BboParams
from .kha import Kha, KhaParams
from .teo import Teo, TeoParams

ALGORITHMS = {
    "bbo": (Bbo, BboParams),
    "kha": (Kha, KhaParams),
    "teo": (Teo, TeoParams),
}


def algorithm_names() -> list[str]:
    return sorted(ALGORITHMS)


def get_algorithm(name: str, params: dict | None = None):
    """Instantiate an optimizer by name with optional parameter overrides;
    an override that names no parameter is a ``ConfigError``."""
    try:
        cls, params_cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(algorithm_names())}"
        ) from None
    params = params or {}
    unknown = set(params) - {f.name for f in dataclasses.fields(params_cls)}
    if unknown:
        raise ConfigError(f"unknown {name} parameters: {sorted(unknown)}")
    return cls(params_cls(**params))


__all__ = [
    "ALGORITHMS",
    "Bbo",
    "BboParams",
    "Kha",
    "KhaParams",
    "Teo",
    "TeoParams",
    "algorithm_names",
    "get_algorithm",
]
