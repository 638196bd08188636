"""Acceptance suite: every criterion at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion.  The headline sweep
(2000 trials, 11 SNR points, 6 schemes, common random numbers) is shared by
the first three criteria.
"""

import math
import time

import numpy as np
import pytest

from cflat.channel import BlockFadingChannel, am_rate
from cflat.cli import main
from cflat.codec import (
    NestedCodePair,
    RadiusTooSmall,
    _build,
    build_construction_a,
    encode,
    simulate_codec,
    union_bound,
)
from cflat.numfield import RingElement, make_quadratic_field, prime_above
from cflat.simkit import SweepConfig, dof_slope, run_sweep, sample_channels
from cflat.svp import best_equation, build_search_basis, shortest_vector

from box_oracle import brute_force_shortest, minkowski_bound
from codec_oracle import enumerate_fine_vectors, lattice_membership, product_distance, ring_combine
from svp_certificate import certify_shortest

F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
REPEAT_CODE = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))
RINGS = ("am_ring(3)", "am_ring(5)", "am_ring(7)")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def fig2():
    cfg = SweepConfig()  # n=2, L=2, 0:5:50 dB, 2000 trials, seed 1, 6 schemes
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - t0


def _paired_sigma(result, a: str, b: str, s: int) -> float:
    ka, kb = result.schemes.index(a), result.schemes.index(b)
    diff = result.rates[ka, s] - result.rates[kb, s]
    return float(diff.std(ddof=1)) / math.sqrt(result.trials)


def test_criterion_01_fig2_ordering(fig2):
    result, elapsed = fig2
    high = [s for s, snr in enumerate(result.snr_db) if snr >= 30.0]
    assert len(high) == 5

    def mean(scheme, s):
        return float(result.mean[result.schemes.index(scheme), s])

    failures = []
    for s in high:
        snr = result.snr_db[s]
        if mean("am_ring(5)", s) < mean("am_ring(3)", s):
            failures.append(f"{snr}dB: ring5 < ring3")
        if mean("am_ring(5)", s) < mean("am_ring(7)", s):
            failures.append(f"{snr}dB: ring5 < ring7")
        strict = [("naive_Z", "am_Z")]
        strict += [(r, "naive_Z") for r in RINGS]
        strict += [("mac", other) for other in result.schemes if other != "mac"]
        for a, b in strict:
            margin = mean(a, s) - mean(b, s)
            if margin <= 3 * _paired_sigma(result, a, b, s):
                failures.append(f"{snr}dB: {a} !> {b} (margin {margin:.3f})")
    ok = not failures and elapsed < 300.0
    _report(1, "Fig.2 ordering at >=30 dB", ok, f"sweep took {elapsed:.0f}s")
    assert elapsed < 300.0, f"sweep runtime {elapsed:.0f}s exceeds 5 min"
    assert not failures, failures


def test_criterion_02_dof_slopes(fig2):
    result, _ = fig2
    slopes = {s: dof_slope(result, s, (30.0, 50.0)) for s in result.schemes}
    checks = [
        1.8 <= slopes["mac"] <= 2.2,
        all(0.8 <= slopes[r] <= 1.2 for r in RINGS),
        0.35 <= slopes["naive_Z"] <= 0.65,
        slopes["am_Z"] <= 0.25,
    ]
    detail = ", ".join(f"{s}={v:.3f}" for s, v in slopes.items())
    _report(2, "DOF slopes 30-50 dB", all(checks), detail)
    assert 1.8 <= slopes["mac"] <= 2.2
    for r in RINGS:
        assert 0.8 <= slopes[r] <= 1.2, (r, slopes[r])
    assert 0.35 <= slopes["naive_Z"] <= 0.65
    assert slopes["am_Z"] <= 0.25


def test_criterion_03_exact_dominance(fig2):
    result, _ = fig2
    kz = result.schemes.index("am_Z")
    bad = 0
    total = 0
    for r in RINGS:
        kr = result.schemes.index(r)
        bad += int(np.count_nonzero(result.rates[kr] < result.rates[kz]))
        total += result.rates[kr].size
    _report(3, "ring >= Z-AM on every trial", bad == 0, f"{total - bad}/{total}")
    assert bad == 0


def test_criterion_04_svp_oracle_suite():
    """The exact SVP is certified on 200 seeded instances.  Each answer's
    coordinates must reproduce its norm, and an exhaustive search over the
    per-coordinate box |x_i| <= ||v|| ||row_i(B^-1)||, which holds every
    lattice vector no longer than v, must find nothing shorter.  The box-6
    oracle cross-checks it as well: the sphere minimum never exceeds the box
    minimum, and equals it whenever the sphere argmin is interior.  (Guarding
    on the *box* argmin being interior instead is unsound: the global
    minimizer's coordinates grow with SNR and can leave the box while the
    box argmin stays interior.)"""
    rng = np.random.default_rng(5)
    fields = [make_quadratic_field(d) for d in (5, 3, 7)]
    t0 = time.perf_counter()
    uncertified = []
    box_exceeded = []
    certified = sound_checked = sound_equal = points = 0
    minkowski_ok = True
    for i in range(200):
        ch = BlockFadingChannel(
            rng.standard_normal((2, 2)), float(10 ** rng.uniform(0, 4))
        )
        B = build_search_basis(fields[i % 3], ch)
        sv = shortest_vector(B)
        bf = brute_force_shortest(B, 6)
        if not math.sqrt(sv.norm_sq) < minkowski_bound(B):
            minkowski_ok = False
        cert = certify_shortest(B, sv)
        points += cert.points
        label = f"i={i} d={fields[i % 3].d} P={ch.P:.0f}"
        if cert.ok:
            certified += 1
        else:
            uncertified.append(f"{label}: {cert.detail}")
        if sv.norm_sq > bf.norm_sq * (1 + 1e-9):
            box_exceeded.append(f"{label}: sphere {sv.norm_sq:.6g} > box {bf.norm_sq:.6g}")
        if np.max(np.abs(sv.coords)) <= 5:
            sound_checked += 1
            sound_equal += math.isclose(sv.norm_sq, bf.norm_sq, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = (certified == 200 and not box_exceeded and sound_equal == sound_checked
          and minkowski_ok and elapsed < 30.0)
    _report(
        4,
        "SVP oracle suite",
        ok,
        f"certified: {certified}/200 ({points} box points); sound guard: "
        f"{sound_equal}/{sound_checked}; sphere <= box-6: "
        f"{200 - len(box_exceeded)}/200; minkowski all "
        f"{'ok' if minkowski_ok else 'VIOLATED'}; {elapsed:.1f}s",
    )
    assert not uncertified, "; ".join(uncertified)
    assert not box_exceeded, "; ".join(box_exceeded)
    assert sound_equal == sound_checked
    assert minkowski_ok
    assert elapsed < 30.0


def test_criterion_05_ring_closure():
    lat = build_construction_a(F5, P11, REPEAT_CODE, target_power=50.0)
    rng = np.random.default_rng(2026)
    fine_fail = coarse_fail = 0
    for _ in range(1000):
        L = int(rng.integers(1, 4))
        coeffs = [
            RingElement(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            for _ in range(L)
        ]
        words = [encode(lat, (int(rng.integers(11)),)) for _ in range(L)]
        if not lattice_membership(lat, "fine", ring_combine(lat, coeffs, words)):
            fine_fail += 1
    for _ in range(300):
        ks = rng.integers(-3, 4, size=2)
        ms = rng.integers(-3, 4, size=2)
        coeffs = [
            RingElement(11 * int(k) - 4 * int(m), int(m)) for k, m in zip(ks, ms)
        ]
        words = [encode(lat, (int(rng.integers(11)),)) for _ in range(2)]
        if not lattice_membership(lat, "coarse", ring_combine(lat, coeffs, words)):
            coarse_fail += 1
    ok = fine_fail == 0 and coarse_fail == 0
    _report(5, "ring-combination closure", ok,
            f"fine 1000/{1000 - fine_fail}, coarse 300/{300 - coarse_fail}")
    assert fine_fail == 0
    assert coarse_fail == 0


def test_criterion_06_volume_and_message_rate():
    lat = _build(F5, P11, REPEAT_CODE)
    vol_ok = math.isclose(lat.vol_fine_unit, 55.0, rel_tol=1e-6)
    rate_ok = lat.message_rate_bits == 0.5 * math.log2(11)
    _report(6, "construction volume and message rate", vol_ok and rate_ok,
            f"vol {lat.vol_fine_unit:.8f}, rate {lat.message_rate_bits:.6f}")
    assert vol_ok
    assert rate_ok


def test_criterion_07_union_bound_validity():
    h = sample_channels(7, 0, 2, 2)
    trials = 100_000
    checked = []
    for snr_db in (0.0, 4.0, 8.0, 12.0, 16.0):
        P = 10 ** (snr_db / 10)
        lat = build_construction_a(F5, P11, REPEAT_CODE, target_power=P)
        ch = BlockFadingChannel(h, P)
        cand = best_equation(F5, ch)
        sim = simulate_codec(lat, ch, cand, trials, seed=31)
        if sim.errors < 50:
            continue
        radius = lat.gamma * 2.0
        while True:
            try:
                ub = union_bound(lat, cand.nu_sq, radius)
            except RadiusTooSmall:
                radius *= 2.0
                continue
            if ub.terms >= 1000:
                break
            radius *= 1.5
        checked.append((snr_db, sim.error_rate, ub.value, ub.terms,
                        sim.error_rate <= ub.value + 3 * sim.stderr))
    ok = bool(checked) and all(c[-1] for c in checked)
    detail = "; ".join(
        f"{s}dB emp {e:.3g} <= bound {b:.3g} ({t} terms): {'ok' if v else 'NO'}"
        for s, e, b, t, v in checked
    )
    _report(7, "union bound vs Monte Carlo", ok, detail)
    assert checked, "no SNR produced >= 50 errors"
    for snr_db, emp, bound, terms, valid in checked:
        assert terms >= 1000
        assert valid, (snr_db, emp, bound)


def test_criterion_08_product_distance_floor():
    violations = 0
    total = 0
    enumerated = []
    for lat in (
        _build(F5, P11, REPEAT_CODE),
        build_construction_a(F5, P11, REPEAT_CODE, target_power=25.0),
    ):
        floor = lat.gamma ** (2 * lat.n) * lat.T**lat.n
        pts = enumerate_fine_vectors(lat, lat.gamma * 7.0, exclude_coarse=False)
        enumerated.append(len(pts))
        for coords, emb in pts:
            if all(RingElement(int(u), int(v)) != RingElement(0, 0) for u, v in coords):
                total += 1
                if product_distance(emb.reshape(-1), lat.n, lat.T) < floor * (
                    1 - 1e-9
                ):
                    violations += 1
    _report(8, "block product-distance floor", violations == 0,
            f"{total} of {sum(enumerated)} enumerated vectors in scope")
    assert all(n > 200 for n in enumerated)
    assert total > 100
    assert violations == 0


def test_criterion_09_numerical_identities():
    rng = np.random.default_rng(404)
    worst_fd = 0.0
    for _ in range(1000):
        h = rng.standard_normal((2, 2))
        P = float(10 ** rng.uniform(0, 4))
        ch = BlockFadingChannel(h, P)
        a = tuple(
            RingElement(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            for _ in range(2)
        )
        if all(x == RingElement(0, 0) for x in a):
            a = (RingElement(1, 0), a[1])
        cand = am_rate(ch, a, F5)
        # AM-GM
        assert np.mean(cand.nu_sq) >= np.prod(cand.nu_sq) ** 0.5 * (1 - 1e-12)
        # MMSE stationarity by central differences
        for j in range(2):
            b = float(cand.b[j])
            s = cand.sigma[j]

            def obj(x):
                r = x * ch.h[j] - s
                return x * x + P * float(r @ r)

            eps = 1e-4
            fd = abs(obj(b + eps) - obj(b - eps)) / (2 * eps)
            worst_fd = max(worst_fd, fd / max(1.0, obj(b)))
            assert fd <= 1e-6 * max(1.0, obj(b))
        # Prop-2 form vs quadratic form, 1e-9 relative
        denom = float(cand.b @ cand.b)
        for l in range(2):
            resid = cand.b * h[:, l] - cand.sigma[:, l]
            denom += P * float(resid @ resid)
        oracle = max(math.log2(2 * P / denom), 0.0)
        assert cand.rate_bits == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    _report(9, "AM-GM / MMSE / rate identities", True,
            f"1000 instances, worst relative FD {worst_fd:.2e}")


def test_criterion_10_determinism(tmp_path):
    args = [
        "sweep", "--trials", "8", "--snr-db", "0:10:20", "--seed", "77",
        "--schemes", "mac,naive_Z,am_Z,am_ring(5)",
    ]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--output", str(paths[2]), "--threads", "4"]) == 0
    same = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )
    _report(10, "byte-identical CSV across runs and threads", same)
    assert same


def test_criterion_11_ring_equation_decodes_with_fewer_errors():
    """The paper's second claim: on the same lattice and the same draws, the
    ring equation's error probability is below that of the best equation
    over Z.  The README code, calibrated as `cflat codec` calibrates it;
    the integer equation is best_equation(None, ch)'s, lifted to the ring
    and scored there.  Where the equations differ, the ring count must be
    lower by 3 paired standard errors.  The paired difference of the two
    error indicators has variance p_Z + p_ring - 2 p_both - (p_Z - p_ring)^2
    per trial, with p_both the rate of trials both fail, which the counts
    do not give: taking p_both = 0 bounds the standard error from above."""
    trials = 20_000
    rows, failures = [], []
    for seed in (1, 2, 3):
        h = sample_channels(seed, 0, 2, 2)
        for snr_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            P = 10 ** (snr_db / 10)
            ch = BlockFadingChannel(h, P)
            lat = build_construction_a(F5, P11, REPEAT_CODE, P)
            ring = best_equation(F5, ch)
            lifted = tuple(RingElement(int(x), 0) for x in best_equation(None, ch).a)
            integer = am_rate(ch, lifted, F5)
            e_ring = simulate_codec(lat, ch, ring, trials, seed=seed).errors
            e_int = simulate_codec(lat, ch, integer, trials, seed=seed).errors
            label = f"seed {seed} {snr_db:g}dB"
            rows.append(f"{label}: {e_ring} vs {e_int}")
            if ring.rate_bits < integer.rate_bits:
                failures.append(f"{label}: ring rate {ring.rate_bits} < {integer.rate_bits}")
            if tuple(ring.a) == lifted:
                if e_ring != e_int:
                    failures.append(f"{label}: one equation, counts {e_ring} != {e_int}")
                continue
            p_ring, p_int = e_ring / trials, e_int / trials
            paired = math.sqrt((p_ring + p_int - (p_int - p_ring) ** 2) / trials)
            if not (p_int - p_ring > 3 * paired and e_ring <= e_int):
                failures.append(f"{label}: {e_ring} vs {e_int} errors, 3 sigma {3 * paired:.4f}")
    _report(11, "ring equation's error rate below Z's", not failures, "; ".join(rows))
    assert not failures, failures
