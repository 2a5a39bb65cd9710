"""Acceptance gate: the pinned tolerances, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -q -s` to see the per-criterion
lines; without -s pytest captures them (they still appear on failures).
These are the heavyweight sample counts; the per-module suites run the same
machinery at screening sizes.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from holderlab.catalog import (
    affine_cube_map,
    baseline_c_map,
    banach_alpha_gt1_iterate,
    c0_family_map,
    catalog_names,
    deficiency_map,
    goebel_kirk_map,
    hyperconvex_map,
    l1_ball_composite_map,
    lambda_scale,
    norming_map,
    prus_map,
    renormed_l1_map,
    retraction_map,
    shift_simplex_map,
)
from holderlab.cli import main
from holderlab.domains import as_rng, ball
from holderlab.report import canonical_bytes
from holderlab.retractions import excess_map, iota_mu_q, l1_sphere_retract
from holderlab.seqvec import (
    NormKind,
    Rows,
    SeqVec,
    basis_vector,
    distance,
    fsum_rows,
    norm,
    scale,
)
from holderlab.verify import (
    CheckRequest,
    estimate_displacement,
    orbit,
    pair_ratios,
    run_check,
)

L1 = NormKind.lp(1.0)
SUP = NormKind.sup()
MPN = NormKind.max_pos_neg_l1()

PAIRS = 10_000
SLACK = 1.0 + 1e-9


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def _annulus(rng, r, count):
    """`count` points of the l1 annulus: nonzero draws of the unit l1 ball,
    drawn as blocks, each scaled to a random l1 radius in (r/2, r)."""
    K = ball(1.0, L1)
    points = []
    while len(points) < count:
        k = count - len(points)
        block = K.sample_rows(rng, k)
        n = fsum_rows(np.abs(block.vals))  # the l1 mass, to rounding
        rho = r * (0.5001 + 0.4998 * rng.random(k))
        keep = n > 0.0
        scaled = Rows(block.vals[keep] * (rho[keep] / n[keep])[:, None],
                      block.tail[keep])
        points += [scaled.vec(i) for i in range(len(scaled.tail))]
    return points


def test_criterion_01_norming_oracle():
    with criterion(1, "norming iterates match the closed form to 1e-12 "
                      "(n <= 50, 100 starts)"):
        T = norming_map(alpha=0.5)
        rng = as_rng(101)
        for _ in range(100):
            x = T.domain.sample(rng)
            cur = x
            for n in range(1, 51):
                cur = T.apply(cur)
                assert distance(cur, T.iterate_oracle(x, n), T.norm) <= 1e-12


def test_criterion_02_hyperconvex_oracle():
    with criterion(2, "hyperconvex iterates match the closed form to 1e-12 "
                      "(n <= 10, tails included)"):
        T = hyperconvex_map()
        rng = as_rng(102)
        starts = [T.domain.sample(rng) for _ in range(100)]
        starts += [
            SeqVec.from_dict({}, 0.25),          # pure tail
            SeqVec.from_dict({1: 0.2, 3: 0.1}, 0.25),
            SeqVec.from_dict({2: 0.25}, 0.125),
        ]
        for x in starts:
            cur = x
            for n in range(1, 11):
                cur = T.apply(cur)
                assert distance(cur, T.iterate_oracle(x, n), T.norm) <= 1e-12


def test_criterion_03_lambda_scaled_displacement_decay():
    with criterion(3, "lambda-scaled orbits decay below lambda^n and the "
                      "chained estimate beats 1e-3"):
        F = hyperconvex_map()
        rng = as_rng(103)
        for lam in (0.5, 0.9):
            G = lambda_scale(F, lam)
            for _ in range(100):
                res = orbit(G, F.domain.sample(rng), depth=31)
                for n in range(31):
                    assert res.displacements[n] <= lam ** n + 1e-12
        est = estimate_displacement(F, "lambda_scaling", budget=8000,
                                    seed=103)
        assert est.value < 1e-3


def test_criterion_04_c0_family_witness_bound():
    with criterion(4, "sigma-band witness displacement respects "
                      "(1-delta)(1-alpha)/(e alpha)"):
        for alpha in (0.5, 0.9, 0.99):
            T = c0_family_map(alpha=alpha)
            star = T.witness_family(1)[0]
            measured = T.displacement(star)
            bound = T.claims.displacement_bound
            assert bound == pytest.approx(
                0.5 * (1.0 - alpha) / (math.e * alpha), rel=1e-12)
            assert measured <= bound + 1e-12
            if alpha == 0.9:
                assert abs(measured - 0.01859) <= 1e-5
                assert abs(bound - 0.02043) <= 1e-5


def test_criterion_05_deficiency_displacement():
    with criterion(5, "deficiency displacement estimates stay below 1/8"):
        T = deficiency_map(p=2.0, alpha=0.5)
        for strategy in ("sample_min", "orbit_min"):
            est = estimate_displacement(T, strategy, budget=1000, seed=105)
            assert est.value <= 0.125


HARD_INSTANCES = (
    prus_map, norming_map, baseline_c_map, shift_simplex_map,
    hyperconvex_map, c0_family_map, affine_cube_map, renormed_l1_map,
)


def test_criterion_06_holder_soundness():
    with criterion(6, "hard Holder claims survive 1e4-pair suprema "
                      "(8 instances + norming classical)"):
        for seed_offset, factory in enumerate(HARD_INSTANCES):
            T = factory()
            est = pair_ratios(T, (1,), PAIRS, seed=600 + seed_offset)
            assert est.sups[1] <= T.claims.holder_constant * SLACK, T.name
        classical = pair_ratios(norming_map(alpha=0.5), (1,), PAIRS,
                                seed=699, exponent=1.0)
        assert classical.sups[1] <= math.sqrt(2.0) / 2.0


def test_criterion_07_uniform_profiles():
    with criterion(7, "shift and affine-cube profiles are uniform over "
                      "n in {1,2,5,10,20}"):
        ns = (1, 2, 5, 10, 20)
        shift = shift_simplex_map()
        rec = run_check(shift, CheckRequest("uniform_profile", n_list=ns,
                                            pairs=2000, seed=107))
        assert rec.verdict == "pass"
        per_n = rec.details["per_n"]
        # the shift is an l1 isometry, so the measured ratio at each n is
        # the same d^(1-alpha) supremum, capped by lambda
        assert len(set(per_n.values())) == 1
        assert max(per_n.values()) <= 0.5 * SLACK
        rec = run_check(affine_cube_map(), CheckRequest(
            "uniform_profile", n_list=ns, pairs=2000, seed=107))
        assert rec.verdict == "pass"


def test_criterion_08_goebel_kirk_profile():
    with criterion(8, "goebel_kirk iterate ratios respect "
                      "(n+1)/n * 2^(1-alpha) up to n = 20"):
        T = goebel_kirk_map(alpha=0.5)
        rec = run_check(T, CheckRequest("asymptotic_profile", n_max=20,
                                        pairs=PAIRS, seed=108))
        assert rec.verdict == "pass"
        for n in (1, 5, 20):
            expected = (n + 1) / n * 2.0 ** 0.5
            assert rec.details["profile"][str(n)] == pytest.approx(
                expected, rel=1e-15)


def test_criterion_09_renormed_isometry():
    with criterion(9, "renormed-l1 map moves 1e4 pairs by exactly their "
                      "distance (within 1e-12)"):
        T = renormed_l1_map()
        rng = as_rng(109)
        checked = 0
        while checked < PAIRS:
            # x, y, x, y, ...: the stream of drawing them one at a time
            block = T.domain.sample_rows(rng, 2 * (PAIRS - checked))
            for j in range(0, len(block.tail), 2):
                x, y = block.vec(j), block.vec(j + 1)
                d = distance(x, y, MPN)
                if d < 1e-13:
                    continue
                checked += 1
                ratio = distance(T.apply(x), T.apply(y), MPN) / d
                assert abs(ratio - 1.0) <= 1e-12


RETRACTION_BOUNDS = (("radial", 2.0), ("abs", 1.0), ("positive_part", 1.0),
                     ("clamp", 1.0), ("l1_sphere", 8.0))


def test_criterion_10_retraction_constants():
    with criterion(10, "retraction Lipschitz ratios, sphere landing, and "
                       "the iota/mu/Q example hold"):
        for seed_offset, (name, bound) in enumerate(RETRACTION_BOUNDS):
            T = retraction_map(name)
            est = pair_ratios(T, (1,), PAIRS, seed=1000 + seed_offset)
            assert est.sups[1] <= bound * SLACK, name

        rng = as_rng(1010)
        worst = 0.0
        points = _annulus(rng, 1.0, 2 * PAIRS)
        for x, y in zip(points[::2], points[1::2]):
            d = distance(x, y, L1)
            if d < 1e-13:
                continue
            dq = distance(excess_map(x, 1.0), excess_map(y, 1.0), L1)
            worst = max(worst, dq / d)
        assert worst <= 3.0 * SLACK

        K = ball(1.0, L1)
        rng = as_rng(1011)
        block = K.sample_rows(rng, 2000)
        for i in range(2000):
            out = l1_sphere_retract(block.vec(i), 1.0)
            assert abs(norm(out, L1) - 1.0) <= 1e-12
            assert distance(l1_sphere_retract(out, 1.0), out, L1) <= 1e-12

        split = iota_mu_q(SeqVec.from_dict({1: 0.6, 2: 0.3}), 1.0)
        assert split.iota == 2
        assert abs(split.mu - 1.0 / 3.0) <= 1e-12
        assert distance(split.q, basis_vector(2, 0.1), L1) <= 1e-12


def test_criterion_11_catalog_invariance():
    with criterion(11, "every catalog instance maps 1e4 samples (plus "
                       "canonical points) into its domain"):
        from holderlab.catalog import CATALOG

        for seed_offset, name in enumerate(catalog_names()):
            T = CATALOG[name].factory()
            rec = run_check(T, CheckRequest("invariance", samples=PAIRS,
                                            seed=1100 + seed_offset))
            assert rec.verdict == "pass", f"{name} escaped at {rec.witness}"


def test_criterion_12_approximate_fixed_point_witnesses():
    with criterion(12, "witness families achieve 2r/n (shift, composite) "
                       "and r*beta_(m+1) (cube)"):
        shift = shift_simplex_map()
        for i, x in enumerate(shift.witness_family(50)):
            n = i + 1
            assert abs(shift.displacement(x) - 2.0 * 0.125 / n) <= 1e-14

        comp = l1_ball_composite_map()
        r = comp.params["radius"]
        for i, x in enumerate(comp.witness_family(50)):
            n = i + 1
            assert abs(comp.displacement(x) - 2.0 * r / n) <= 1e-14

        cube = affine_cube_map()
        for i, x in enumerate(cube.witness_family(10)):
            m = i + 1
            assert cube.displacement(x) == 0.125 / (m + 2)


def test_criterion_13_alpha_above_one_recursion():
    with criterion(13, "alpha>1 model: rho_(k+1) = rho_k^2/2 reaches "
                       "rho < 1e-15 within 7 steps from 1/2"):
        res = banach_alpha_gt1_iterate(lambda t: t * t / 2.0, 0.5, 0.5,
                                       2.0, 10)
        assert res.converged
        assert res.values[0] == 0.5
        for a, b in zip(res.values, res.values[1:]):
            assert b == a * a / 2.0
        reached = [k for k, v in enumerate(res.values) if v < 1e-15]
        assert reached and reached[0] <= 7
        # the a-priori majorant obeys the same recursion
        for a, b in zip(res.majorant, res.majorant[1:]):
            assert b == a * a / 2.0


def test_criterion_14_report_determinism(tmp_path):
    with criterion(14, "re-running a config with the same seed reproduces "
                       "the report byte for byte"):
        cfg = {
            "schema_version": 1,
            "name": "determinism",
            "map": {"name": "goebel_kirk"},
            "seed": 14,
            "checks": [
                {"kind": "holder_ratio", "pairs": 400},
                {"kind": "invariance", "samples": 300},
                {"kind": "asymptotic_profile", "n_max": 5, "pairs": 200},
                {"kind": "displacement", "strategy": "orbit_min",
                 "budget": 200},
            ],
            "out": str(tmp_path),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        report_path = tmp_path / "determinism.report.json"
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet):
            assert main(["run", str(path)]) == 0
            first = canonical_bytes(report_path.read_text())
            assert main(["run", str(path)]) == 0
        assert canonical_bytes(report_path.read_text()) == first
