"""Command-line front end: key-value config files, subcommand dispatch, and
CSV emission for rate sweeps, codec simulations and raw SVP instances.

Exit codes: 0 success, 2 validation problem (bad flags, config or usage),
1 runtime failure.  CSV files are written to a temp file and renamed, so a
failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .channel import BlockFadingChannel
from .codec import (
    NestedCodePair,
    RadiusTooSmall,
    build_construction_a,
    simulate_codec,
    union_bound,
)
from .numfield import make_quadratic_field, prime_above
from .simkit import SweepConfig, _parse_scheme, run_sweep, sample_channels
from .svp import SearchBasis, best_equation, shortest_vector

__all__ = [
    "CliError",
    "ParseError",
    "UnknownKey",
    "InvalidValue",
    "CliConfig",
    "parse_config",
    "dispatch",
    "read_sweep_csv",
    "main",
]

# union-bound radius growth, one DEBUG record per radius tried
_codec_log = logging.getLogger("cflat.codec")

CONFIG_KEYS = ("n", "L", "snr_db", "trials", "schemes", "seed", "d_list", "output")


class CliError(Exception):
    """Validation problem; maps to exit code 2."""


class ParseError(CliError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"config line {line_no}: {message}")
        self.line_no = line_no


class UnknownKey(CliError):
    pass


class InvalidValue(CliError):
    pass


@dataclass(frozen=True)
class CliConfig:
    n: int = 2
    L: int = 2
    snr_db: tuple[float, ...] = tuple(float(s) for s in range(0, 55, 5))
    trials: int = 2000
    schemes: tuple[str, ...] = ()
    seed: int = 1
    d_list: tuple[int, ...] = (3, 5, 7)
    output: str | None = None


def _parse_snr_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ":" in text:
            start, step, stop = (float(x) for x in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            out = []
            v = start
            while v <= stop + 1e-9:
                out.append(round(v, 9))
                v += step
            return tuple(out)
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidValue(f"cannot parse SNR list {text!r}") from None


def _parse_int(key: str, text: str, minimum: int | None = None) -> int:
    try:
        val = int(str(text).strip())
    except ValueError:
        raise InvalidValue(f"{key} must be an integer, got {text!r}") from None
    if minimum is not None and val < minimum:
        raise InvalidValue(f"{key} must be >= {minimum}, got {val}")
    return val


def _validate(cfg: dict) -> CliConfig:
    cfg["n"] = _parse_int("n", cfg.get("n", 2), 1)
    cfg["L"] = _parse_int("L", cfg.get("L", 2), 1)
    cfg["trials"] = _parse_int("trials", cfg.get("trials", 2000), 1)
    cfg["seed"] = _parse_int("seed", cfg.get("seed", 1), 0)
    snr = cfg.get("snr_db", "0:5:50")
    cfg["snr_db"] = _parse_snr_list(snr) if isinstance(snr, str) else tuple(snr)
    if not cfg["snr_db"] or not all(math.isfinite(s) for s in cfg["snr_db"]):
        raise InvalidValue("snr_db must be a nonempty list of finite values")
    dl = cfg.get("d_list", (3, 5, 7))
    if isinstance(dl, str):
        dl = tuple(_parse_int("d_list", x) for x in dl.split(",") if x.strip())
    cfg["d_list"] = tuple(dl)
    schemes = cfg.get("schemes")
    if schemes is None:
        schemes = ("mac", "naive_Z", "am_Z") + tuple(
            f"am_ring({d})" for d in cfg["d_list"]
        )
    elif isinstance(schemes, str):
        schemes = tuple(s.strip() for s in schemes.split(",") if s.strip())
    if not schemes:
        raise InvalidValue("schemes must be nonempty")
    for s in schemes:
        try:
            _parse_scheme(s)
        except ValueError as exc:
            raise InvalidValue(str(exc)) from None
    cfg["schemes"] = tuple(schemes)
    out = cfg.get("output")
    cfg["output"] = str(out) if out else None
    return CliConfig(**cfg)


def parse_config(path: str | None, flags: dict | None = None) -> CliConfig:
    """Read `key = value` lines (comments with #, comma lists) and apply flag
    overrides on top.  Unknown keys are rejected."""
    cfg: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}") from None
        for no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(no, f"expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise UnknownKey(f"config line {no}: unknown key {key!r}")
            if not value:
                raise ParseError(no, f"empty value for {key!r}")
            cfg[key] = value
    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise UnknownKey(f"unknown option {key!r}")
        cfg[key] = value
    return _validate(cfg)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".tmp-", suffix=".csv", delete=False
    )
    try:
        with fd:
            fd.write(text)
        os.replace(fd.name, path)
    except BaseException:
        if os.path.exists(fd.name):
            os.unlink(fd.name)
        raise


def _parse_channel_text(text: str) -> np.ndarray:
    try:
        rows = [
            [float(x) for x in block.replace(",", " ").split()]
            for block in text.split(";")
            if block.strip()
        ]
        h = np.array(rows)
        if h.ndim != 2 or h.size == 0:
            raise ValueError
        return h
    except ValueError:
        raise InvalidValue(f"cannot parse channel {text!r}") from None


def _load_channel(args) -> np.ndarray:
    if getattr(args, "h", None):
        return _parse_channel_text(args.h)
    if getattr(args, "channel_file", None):
        with open(args.channel_file, "r", encoding="utf-8") as fh:
            return _parse_channel_text(";".join(fh.readlines()))
    raise InvalidValue("a channel is required: use --h or --channel-file")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_field(args, cfg: CliConfig) -> int:
    field = make_quadratic_field(args.d)
    lines = [
        f"field Q(sqrt({field.d}))",
        f"basis {{{field.basis_labels[0]}, {field.basis_labels[1]}}}",
        f"discriminant {field.discriminant}",
        "Phi:",
    ]
    for row in field.embedding:
        lines.append("  " + "  ".join(f"{x: .10f}" for x in row))
    _write_text(cfg.output, "\n".join(lines) + "\n")
    return 0


def _cmd_rate(args, cfg: CliConfig) -> int:
    h = _load_channel(args)
    P = 10.0 ** (args.snr_db / 10.0)
    ch = BlockFadingChannel(h, P)
    field = make_quadratic_field(args.d) if args.d else None
    cand = best_equation(field, ch)
    lines = [
        f"ring {'Q(sqrt(%d))' % field.d if field else 'Z'}",
        f"snr_db {args.snr_db:.6f}",
    ]
    for l, a in enumerate(cand.a):
        coords = a.coords if field else (a,)
        lines.append(f"coeff[{l}] {coords}")
    for j in range(ch.n):
        lines.append(
            f"sigma[{j}] " + " ".join(f"{x:.6f}" for x in cand.sigma[j])
        )
    lines.append("b " + " ".join(f"{x:.6f}" for x in cand.b))
    lines.append(f"rate_bits {cand.rate_bits:.6f}")
    _write_text(cfg.output, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args, cfg: CliConfig) -> int:
    sweep_cfg = SweepConfig(
        n=cfg.n,
        L=cfg.L,
        snr_db=cfg.snr_db,
        trials=cfg.trials,
        schemes=cfg.schemes,
        master_seed=cfg.seed,
    )
    result = run_sweep(sweep_cfg)
    rows = ["snr_db,scheme,mean_rate_bits,stderr_bits,trials,seed"]
    order = np.argsort(result.snr_db, kind="stable")
    for s in order:
        for k, scheme in enumerate(result.schemes):
            rows.append(
                f"{result.snr_db[s]:g},{scheme},{result.mean[k, s]:.6f},"
                f"{result.stderr[k, s]:.6f},{result.trials},{result.seed}"
            )
    _write_text(cfg.output, "\n".join(rows) + "\n")
    return 0


def _default_generator(T: int, l_f: int) -> tuple[tuple[int, ...], ...]:
    """Identity block on top, all-ones rows below: full column rank."""
    rows = []
    for i in range(T):
        if i < l_f:
            rows.append(tuple(1 if k == i else 0 for k in range(l_f)))
        else:
            rows.append((1,) * l_f)
    return tuple(rows)


def _codec_union_bound(lat, cand, min_terms: int = 1000) -> float:
    radius = lat.gamma * math.sqrt(lat.n * lat.T)
    for _ in range(30):
        try:
            ub = union_bound(lat, cand.nu_sq, radius)
        except RadiusTooSmall:
            _codec_log.debug(
                "union bound: RadiusTooSmall at radius %.6g, doubling to %.6g",
                radius,
                2.0 * radius,
            )
            radius *= 2.0
            continue
        _codec_log.debug("union bound: radius %.6g, %d terms", radius, ub.terms)
        if ub.terms >= min_terms:
            return ub.value
        radius *= 1.5
    return ub.value


def _cmd_codec(args, cfg: CliConfig) -> int:
    field = make_quadratic_field(args.d)
    prime = prime_above(field, args.p)
    codes = NestedCodePair(
        p=args.p,
        r=prime.r,
        T=args.T,
        l_f=args.lf,
        l_c=args.lc,
        G_f=_default_generator(args.T, args.lf),
    )
    snrs = _parse_snr_list(args.snr_db) if args.snr_db else cfg.snr_db
    h = sample_channels(cfg.seed, 0, field.degree, cfg.L)
    rows = ["snr_db,error_rate,stderr,union_bound,trials"]
    for snr in snrs:
        P = 10.0 ** (snr / 10.0)
        ch = BlockFadingChannel(h, P)
        lat = build_construction_a(field, prime, codes, target_power=P)
        cand = best_equation(field, ch)
        sim = simulate_codec(lat, ch, cand, cfg.trials, cfg.seed)
        ub = _codec_union_bound(lat, cand)
        rows.append(
            f"{snr:g},{sim.error_rate:.6e},{sim.stderr:.6e},{ub:.6e},{sim.trials}"
        )
    _write_text(cfg.output, "\n".join(rows) + "\n")
    return 0


def _cmd_svp(args, cfg: CliConfig) -> int:
    with open(args.basis, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidValue("empty basis file")
    try:
        dim = int(tokens[0])
        vals = [float(x) for x in tokens[1:]]
    except ValueError:
        raise InvalidValue("basis file must hold 'dim' then dim*dim reals") from None
    if dim < 1 or len(vals) != dim * dim:
        raise InvalidValue(f"expected {dim}*{dim} matrix entries, got {len(vals)}")
    basis = np.array(vals).reshape(dim, dim)
    res = shortest_vector(SearchBasis(dim=dim, basis=basis))
    text = (
        f"norm_sq {res.norm_sq:.10g}\n"
        "coords " + " ".join(str(int(x)) for x in res.coords) + "\n"
    )
    _write_text(cfg.output, text)
    return 0


_COMMANDS = {
    "field": _cmd_field,
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "codec": _cmd_codec,
    "svp": _cmd_svp,
}


def dispatch(subcommand: str, args, cfg: CliConfig) -> int:
    if subcommand not in _COMMANDS:
        raise CliError(f"unknown subcommand {subcommand!r}")
    return _COMMANDS[subcommand](args, cfg)


def read_sweep_csv(path: str) -> list[dict]:
    """Parse a sweep CSV back into per-row dicts (floats where numeric)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = {}
        for key, val in zip(header, parts):
            try:
                row[key] = float(val)
            except ValueError:
                row[key] = val
        rows.append(row)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflat",
        description="Compute-and-forward rate and codec simulations over "
        "block-fading channels with algebraic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="print number-field data")
    p_field.add_argument("action", choices=["info"])
    p_field.add_argument("--d", type=int, required=True)
    p_field.add_argument("--output", default=None)

    p_rate = sub.add_parser("rate", help="best equation for one channel")
    p_rate.add_argument("--d", type=int, default=None, help="ring d (omit for Z)")
    p_rate.add_argument("--snr-db", type=float, required=True, dest="snr_db")
    p_rate.add_argument("--h", help="inline channel, blocks ; users ,")
    p_rate.add_argument("--channel-file", dest="channel_file")
    p_rate.add_argument("--output", default=None)

    p_sweep = sub.add_parser("sweep", help="ergodic-rate sweep to CSV")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--L", type=int, default=None)
    p_sweep.add_argument("--snr-db", dest="snr_db", default=None)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--schemes", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored: a sweep runs on one thread",
    )

    p_codec = sub.add_parser("codec", help="codec error-rate simulation to CSV")
    p_codec.add_argument("--d", type=int, required=True)
    p_codec.add_argument("--p", type=int, required=True)
    p_codec.add_argument("--T", type=int, required=True)
    p_codec.add_argument("--lf", type=int, required=True)
    p_codec.add_argument("--lc", type=int, required=True)
    p_codec.add_argument("--snr-db", dest="snr_db", default=None)
    p_codec.add_argument("--trials", type=int, default=None)
    p_codec.add_argument("--seed", type=int, default=None)
    p_codec.add_argument("--L", type=int, default=None)
    p_codec.add_argument("--output", default=None)

    p_svp = sub.add_parser("svp", help="shortest vector of a basis file")
    p_svp.add_argument("--basis", required=True)
    p_svp.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        flag_keys = ("n", "L", "snr_db", "trials", "schemes", "seed", "output")
        flags = {k: getattr(args, k, None) for k in flag_keys}
        if args.command in ("field", "svp", "rate"):
            # these subcommands only use the output path from the config layer
            cfg = parse_config(None, {"output": getattr(args, "output", None)})
        else:
            cfg = parse_config(getattr(args, "config", None), flags)
        return dispatch(args.command, args, cfg)
    except (CliError, ValueError) as exc:
        # domain ValueErrors (bad d, composite p, ...) are user-input problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
