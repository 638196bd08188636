"""Compute-and-forward over block-fading channels with algebraic lattice codes."""

from .numfield import (
    NumberField,
    PrimeIdeal,
    ResidueField,
    RingElement,
    make_quadratic_field,
    prime_above,
    residue_reduce,
)
from .channel import (
    BlockFadingChannel,
    EquationCandidate,
    am_rate,
    mac_sum_capacity,
    naive_rate,
)
from .svp import (
    SVPResult,
    best_equation,
    best_integer_block,
    brute_force_shortest,
    build_search_basis,
    minkowski_bound,
    shortest_vector,
)
from .codec import (
    ConstructionALattice,
    NestedCodePair,
    build_construction_a,
    decode_equation,
    encode,
    enumerate_fine_vectors,
    lattice_membership,
    product_distance,
    reduce_mod_coarse,
    ring_combine,
    simulate_codec,
    union_bound,
)
from .simkit import SweepConfig, SweepResult, dof_slope, run_sweep, sample_channels

__version__ = "0.1.0"
