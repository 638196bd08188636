"""Compute-and-forward over block-fading channels with algebraic lattice codes.

Each exported name loads its submodule on first access (PEP 562), and so
does the submodule's own name (`cflat.svp`), so a caller that needs only
the number field does not compile the SVP, the codec or the sweep.
"""

import importlib

_EXPORTS = {
    "numfield": (
        "NumberField",
        "PrimeIdeal",
        "ResidueField",
        "RingElement",
        "make_quadratic_field",
        "prime_above",
        "residue_reduce",
    ),
    "channel": (
        "BlockFadingChannel",
        "EquationCandidate",
        "am_rate",
        "mac_sum_capacity",
        "naive_rate",
    ),
    "svp": (
        "SVPResult",
        "best_equation",
        "best_integer_block",
        "build_search_basis",
        "shortest_vector",
    ),
    "codec": (
        "ConstructionALattice",
        "NestedCodePair",
        "build_construction_a",
        "decode_equation",
        "encode",
        "simulate_codec",
        "union_bound",
    ),
    "simkit": ("SweepConfig", "SweepResult", "dof_slope", "run_sweep", "sample_channels"),
}
# exported name -> submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in the package globals
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
