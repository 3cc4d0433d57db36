"""Optimizer registry."""

from __future__ import annotations

from ..core import params_from_table
from .bbo import Bbo
from .kha import Kha
from .teo import Teo

ALGORITHMS = {"bbo": Bbo, "kha": Kha, "teo": Teo}


def algorithm_names() -> list[str]:
    return sorted(ALGORITHMS)


def get_algorithm(name: str, table=None):
    """The optimizer ``name`` with the parameters of ``table``, a dict of
    its fields (or the optimizer itself), checked by
    :func:`core.params_from_table`."""
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(algorithm_names())}"
        ) from None
    return params_from_table(cls, {} if table is None else table, name)


__all__ = ["ALGORITHMS", "Bbo", "Kha", "Teo", "algorithm_names", "get_algorithm"]
