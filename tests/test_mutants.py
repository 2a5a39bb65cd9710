"""Wrong claims the checks must catch: one table of mutants.

Each row is a catalog map, an override that makes a claim false, a
CheckRequest at acceptance counts and why the claim is false.  The override
is a dict of ClaimProfile fields, or, for the structural kinds that test no
claim field (invariance, oracle_compare), a function that makes the map
itself wrong.  A caught mutant fails its check.  A row that no check
catches yet is an expected failure naming the ROADMAP item that should
catch it; once that item lands, the row passes, strict xfail fails the
suite and the marker goes, so the kill rate only rises.  `pytest -rxX`
lists the missed rows with their items.
"""

import dataclasses

import pytest

from holderlab.catalog import FixedPointSet, build_map
from holderlab.seqvec import axpy, basis_vector, scale
from holderlab.verify import CheckRequest, run_check

SEED = 600
PAIRS = CheckRequest("holder_ratio", pairs=10_000)
LIPSCHITZ = CheckRequest("holder_ratio", pairs=10_000, exponent=1.0)


def _missed(item, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


SUPREMA = _missed(2, "sampled suprema fall short of the true constant")
EXPONENT = _missed(3, "random pairs do not measure the exponent")
UNTESTED = _missed(4, "no check tests this ClaimProfile field")


def _doubled(T):
    """T with every image scaled by 2."""
    return dataclasses.replace(T, apply=lambda x: scale(2.0, T.apply(x)))


def _oracle_off(T):
    """T with its closed form for T^n moved by 1e-6 e1 at every n >= 1."""
    def oracle(x, n):
        y = T.iterate_oracle(x, n)
        return y if n == 0 else axpy(1.0, y, 1e-6, basis_vector(1))

    return dataclasses.replace(T, iterate_oracle=oracle)


MUTANTS = [
    pytest.param("prus", {"holder_constant": 0.9}, PAIRS,
                 "ratios reach the true constant 1", id="prus-L0.9"),
    pytest.param("shift_simplex", {"holder_constant": 0.45}, PAIRS,
                 "ratios reach the true constant 0.5",
                 id="shift_simplex-L0.45"),
    pytest.param("prus", {"holder_constant": 0.9},
                 CheckRequest("approx_fixed_set", samples=400, delta=1.0),
                 "a sample's second step is 1, above L delta^alpha = 0.9",
                 id="prus-L0.9-approx_fixed_set"),
    pytest.param("norming", {"holder_constant": 0.28}, PAIRS,
                 "the true constant is about 0.313", id="norming-L0.28",
                 marks=SUPREMA),
    pytest.param("norming", {"classical_lipschitz": 0.45}, LIPSCHITZ,
                 "|c'(t)| reaches 1/2 at t = +-1", id="norming-lip0.45",
                 marks=EXPONENT),
    pytest.param("prus", {"classical_lipschitz": 2.0}, LIPSCHITZ,
                 "prus is not Lipschitz", id="prus-lip2", marks=EXPONENT),
    pytest.param("goebel_kirk", {"classical_lipschitz": 2.0}, LIPSCHITZ,
                 "goebel_kirk is not Lipschitz", id="goebel_kirk-lip2",
                 marks=EXPONENT),
    pytest.param("hyperconvex", {"classical_lipschitz": 2.0}, LIPSCHITZ,
                 "hyperconvex is not Lipschitz", id="hyperconvex-lip2",
                 marks=EXPONENT),
    pytest.param("shift_simplex", {"holder_constant": 0.45},
                 CheckRequest("uniform_profile", n_list=(1, 2), pairs=10_000),
                 "iterate-1 ratios reach the true constant 0.5",
                 id="shift_simplex-L0.45-uniform_profile"),
    pytest.param("affine_cube", {"holder_constant": 0.34},
                 CheckRequest("uniform_profile", n_list=(1, 2), pairs=10_000),
                 "the pair (r e_64, 0) has ratio (64/65) r^(1/2) = 0.348 at "
                 "r = 1/8", id="affine_cube-L0.34-uniform_profile"),
    pytest.param("goebel_kirk",
                 {"asymptotic_profile": lambda n: 0.45 * (n + 1) / n},
                 CheckRequest("asymptotic_profile", n_max=2, pairs=10_000),
                 "T^n(t e1) = (n+1)/(2n) t^a e_(n+1) and T^n(0) = 0, so the "
                 "pair (t e1, 0) has ratio 0.5 (n+1)/n at every n",
                 id="goebel_kirk-profile0.45"),
    pytest.param("c0_family", {"displacement_bound": 1e-5},
                 CheckRequest("displacement", budget=1000),
                 "with f(t) = 0.5 t^0.9, a member displaced by d < "
                 "max (f(t) - t) = 3.8e-5 keeps t_(i+1) >= f(t_i) - d above "
                 "the least root of f(t) - t = d, so it is not in c0",
                 id="c0_family-disp1e-5"),
    pytest.param("norming",
                 {"fixed_points": FixedPointSet.singleton(
                     basis_vector(1, 2.0))},
                 CheckRequest("displacement", budget=1000),
                 "the fixed point is e1; 2e1 is outside the unit ball",
                 id="norming-fixed-2e1", marks=UNTESTED),
    pytest.param("shift_simplex", _doubled,
                 CheckRequest("invariance", samples=1000),
                 "2T x has mass 0.25, off the simplex of mass 0.125",
                 id="shift_simplex-doubled-invariance"),
    pytest.param("norming", _oracle_off,
                 CheckRequest("oracle_compare", n_max=50),
                 "the closed form is 1e-6 off each iterate, past the "
                 "tolerance 1e-12", id="norming-oracle-off"),
    pytest.param("renormed_l1", {"lower_bound": 1.01}, PAIRS,
                 "renormed_l1 is an isometry: every ratio is 1",
                 id="renormed_l1-floor1.01", marks=UNTESTED),
]


@pytest.mark.parametrize("name, override, req, why",
                         [pytest.param(*p.values, id=p.id) for p in MUTANTS])
def test_the_true_claims_hold(name, override, req, why):
    """The map's own claims pass the same request, or make no claim there:
    prus, goebel_kirk and hyperconvex claim no classical constant."""
    rec = run_check(build_map(name), req, SEED)
    assert rec.verdict == ("pass" if rec.claimed is not None
                           else "report_only")


@pytest.mark.parametrize("name, override, req, why", MUTANTS)
def test_a_wrong_claim_fails(name, override, req, why):
    T = build_map(name)
    wrong = (override(T) if callable(override) else dataclasses.replace(
        T, claims=dataclasses.replace(T.claims, **override)))
    assert run_check(wrong, req, SEED).verdict == "fail", why
