"""Optimizer registry."""

from __future__ import annotations

from ..core import params_from_table
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


def get_algorithm(name: str, params=None):
    """Instantiate an optimizer by name; ``params`` is its params dataclass or
    a dict of overrides, checked by :func:`core.params_from_table`."""
    try:
        cls, params_cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(algorithm_names())}"
        ) from None
    return cls(params_from_table(params_cls, {} if params is None else params, name))


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
