"""Seeded Monte Carlo engine: channel sampling, ergodic-rate sweeps with
common random numbers across schemes, and high-SNR slope estimation.

Channel draws come from per-trial substreams of a splitmix64 generator, so a
trial's channel depends only on (master seed, trial index) and sweeps are
reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import BlockFadingChannel, _dot, _mac_sum, _snr_linear, _user_columns
from .numfield import make_quadratic_field
from .svp import _am_rates, _naive_rates, _search_coords

__all__ = [
    "InsufficientPoints",
    "SweepConfig",
    "SweepResult",
    "sample_channels",
    "run_sweep",
    "dof_slope",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
DEFAULT_DOF_WINDOW = (30.0, 50.0)


class InsufficientPoints(ValueError):
    """Not enough SNR points inside the slope-estimation window."""


def _mix64(z: int) -> int:
    """splitmix64 finalizer: the documented 64-bit mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny counter-based stream: state advances by the golden-ratio constant
    and each output is the mixed state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        # 53-bit mantissa, in (0, 1]
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal_pair(self) -> tuple[float, float]:
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def _trial_stream(master_seed: int, trial_index: int) -> SplitMix64:
    return SplitMix64(_mix64(master_seed ^ _mix64((trial_index + 1) * _GOLDEN)))


def sample_channels(master_seed: int, trial_index: int, n: int, L: int) -> np.ndarray:
    """i.i.d. standard normal (n, L) channel matrix from the per-trial
    substream, filled row-major from Box-Muller pairs."""
    stream = _trial_stream(master_seed, trial_index)
    vals = []
    while len(vals) < n * L:
        vals.extend(stream.normal_pair())
    return np.array(vals[: n * L]).reshape(n, L)


@dataclass(frozen=True)
class SweepConfig:
    n: int = 2
    L: int = 2
    snr_db: tuple[float, ...] = tuple(float(s) for s in range(0, 55, 5))
    trials: int = 2000
    schemes: tuple[str, ...] = (
        "mac",
        "naive_Z",
        "am_Z",
        "am_ring(3)",
        "am_ring(5)",
        "am_ring(7)",
    )
    master_seed: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db values must be finite")
        for s in self.schemes:
            _parse_scheme(s)


def _parse_scheme(name: str):
    if name == "mac":
        return ("mac", None)
    if name == "naive_Z":
        return ("naive", None)
    if name == "am_Z":
        return ("am", None)
    if name.startswith("am_ring(") and name.endswith(")"):
        body = name[len("am_ring(") : -1]
        try:
            return ("am", int(body))
        except ValueError:
            pass
    raise ValueError(f"unknown scheme {name!r}")


@dataclass(frozen=True)
class SweepResult:
    snr_db: tuple[float, ...]
    schemes: tuple[str, ...]
    trials: int
    seed: int
    mean: np.ndarray  # (schemes, snr)
    stderr: np.ndarray
    rates: np.ndarray  # (schemes, snr, trials)
    dof: dict


def _check_channels(h: np.ndarray, Ps: list) -> None:
    """BlockFadingChannel's checks on every channel of a batch h (batch, n,
    L) at each SNR of Ps, raising its error for the first SNR and channel
    that fails.  Every check passes where P > 0 and P times the largest
    ||h_j||^2 is finite (a non-finite gain makes that product NaN or inf,
    and so does an infinite P)."""
    peak = float(_dot(h.T, h.T).max())
    for P in Ps:
        if not (P > 0 and math.isfinite(P * peak)):
            for hi in h:
                BlockFadingChannel(hi, P)


def _joint_rates(parsed: list, fields: dict, h: np.ndarray, P: np.ndarray, errors: dict):
    """Every scheme's rates (schemes, batch) on the channels h (batch, n, L)
    at the SNRs P (batch,), from joint passes: one search pass over the
    bases of every am_ring(d) scheme, of am_Z and of both naive_Z blocks,
    one _am_terms pass over every arithmetic-mean scheme and one
    _block_terms pass over both naive_Z blocks.  Each pass puts the error
    of every item whose single call would raise into errors, under the
    item's place in cold-call order: scheme, then item, then step, the
    steps being an am scheme's search and rate, and naive_Z's block 0
    search, block 0 rate, block 1 search and so on."""
    size, n, _ = h.shape
    start = np.arange(len(parsed) * size).reshape(len(parsed), size) * (2 * n)

    def rank(schemes, steps):
        """The ranks (len(schemes), batch) of step `steps` of each item."""
        return start[[parsed.index(s) for s in schemes]] + steps

    am = list(dict.fromkeys(d for kind, d in parsed if kind == "am"))
    z, naive = None in am, ("naive", None) in parsed
    blocks = list(range(n)) * naive  # naive_Z's block j search, its rate next
    rings = [("am", d) for d in fields]
    ints = [("am", None)] * z + [("naive", None)] * len(blocks)
    steps = np.array([0] * z + [2 * j for j in blocks], dtype=int)[:, None]
    ranks = rank(rings, 0), rank(ints, steps)
    ring_coords, int_coords = _search_coords(
        list(fields.values()), [None] * z + blocks, h, P, ranks, errors
    )
    coords = dict(zip(rings + ints[:z], [*ring_coords, *int_coords[:z]]))
    rates = {}
    if ("mac", None) in parsed:
        rates["mac", None] = _mac_sum(_user_columns(h), P)
    if am:
        keys = [("am", d) for d in am]
        am_coords = [coords[k] for k in keys]
        am_rates = _am_rates([fields.get(d) for d in am], h, P, am_coords, rank(keys, 1), errors)
        rates.update(zip(keys, am_rates))
    if naive:
        ranks = rank([("naive", None)] * n, steps[z:] + 1)
        rates["naive", None] = _naive_rates(h, P, int_coords[z:], ranks, errors)
    return np.array([rates[s] for s in parsed])


def run_sweep(cfg: SweepConfig, threads: int = 1) -> SweepResult:
    """Evaluate every scheme on common channel draws: one draw per trial is
    shared across all schemes and SNR points.  After every SNR point's
    channel checks, the schemes run as joint batches over all (SNR point,
    trial) pairs (_joint_rates): one coefficient search pass, which
    certifies the ring bases of every am_ring(d) scheme and the integer
    bases of am_Z and naive_Z chunk by chunk and then runs one queue of
    single calls, then one rate pass for all arithmetic-mean schemes and
    one for naive_Z's blocks.  `threads` is accepted and ignored (a thread
    pool over this interpreter-bound work ran slower than one thread).

    A batch runs the same floating-point operations as a single call, and
    its search answers are certified to be those of a cold call, so the
    rates equal mac_sum_capacity, naive_rate and best_equation calls bit
    for bit.  Each pass keeps, for every item that fails, the error its
    single call raises; a rate pass runs only on items whose search has an
    answer, and the search pass runs no single call for an item ranked
    after the first error recorded so far.  The sweep raises the first of
    these errors in the order of cold calls: scheme, then SNR point, then
    trial, and for naive_Z block by block, each block's search before its
    rate."""
    parsed = [_parse_scheme(s) for s in cfg.schemes]
    fields = {
        d: make_quadratic_field(d) for _, d in parsed if d is not None
    }
    Ps = [_snr_linear(s) for s in cfg.snr_db]
    rates = np.zeros((len(parsed), len(Ps), cfg.trials))
    h = np.array(
        [sample_channels(cfg.master_seed, t, cfg.n, cfg.L) for t in range(cfg.trials)]
    )

    # arrays overflow to inf without a warning, as the Python floats of a
    # single call do, so both reach the same checks
    with np.errstate(over="ignore", invalid="ignore"):
        _check_channels(h, Ps)
        # item s * trials + t is trial t at SNR point s
        hs = np.tile(h, (len(Ps), 1, 1))
        P = np.repeat(Ps, cfg.trials)
        errors = {}  # by place in cold-call order
        r = _joint_rates(parsed, fields, hs, P, errors)
        if errors:
            raise errors[min(errors)]
        rates[:] = r.reshape(rates.shape)

    mean = rates.mean(axis=2)
    if cfg.trials > 1:
        stderr = rates.std(axis=2, ddof=1) / math.sqrt(cfg.trials)
    else:
        stderr = np.zeros_like(mean)
    result = SweepResult(
        snr_db=tuple(cfg.snr_db),
        schemes=tuple(cfg.schemes),
        trials=cfg.trials,
        seed=cfg.master_seed,
        mean=mean,
        stderr=stderr,
        rates=rates,
        dof={},
    )
    dof = {}
    for name in cfg.schemes:
        try:
            dof[name] = dof_slope(result, name, DEFAULT_DOF_WINDOW)
        except InsufficientPoints:
            dof[name] = None
    result.dof.update(dof)
    return result


def dof_slope(
    result: SweepResult, scheme: str, window: tuple[float, float] = DEFAULT_DOF_WINDOW
) -> float:
    """Least-squares slope of the mean rate against (1/2) log2 P over the SNR
    window; the high-SNR value is the scheme's degrees of freedom.  The
    slope is the closed form sum (x - xbar)(y - ybar) / sum (x - xbar)^2,
    every sum taken left to right."""
    k = result.schemes.index(scheme)
    xs, ys = [], []
    for s, snr in enumerate(result.snr_db):
        if window[0] <= snr <= window[1]:
            xs.append(0.5 * (snr / 10.0) * math.log2(10.0))
            ys.append(float(result.mean[k, s]))
    if len(set(xs)) < 3:
        raise InsufficientPoints(
            f"need >= 3 distinct SNR points in [{window[0]}, {window[1]}], got {len(set(xs))}"
        )
    xbar, ybar = _sum(xs) / len(xs), _sum(ys) / len(ys)
    dx = [x - xbar for x in xs]
    return _sum([u * (y - ybar) for u, y in zip(dx, ys)]) / _sum([u * u for u in dx])


def _sum(xs: list) -> float:
    """sum(xs) from 0.0, left to right: builtin sum is compensated from
    Python 3.12."""
    acc = 0.0
    for x in xs:
        acc = acc + x
    return acc
