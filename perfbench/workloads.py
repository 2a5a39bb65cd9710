"""Config generators for the three benchmark workloads.

Each generator turns a workload seed into a list of `Config`s: the JSON text
`holderlab run` reads, plus the key of the pinned expectation it must meet
(`expected.json`).  The seed only derives each config's master seed (and, on
`config_burst`, where the map rotation starts); budgets, maps and check kinds
are fixed, so every seed asks for the same amount of work and the same
verdicts.

`scale` shrinks every budget and the burst's config count; the smoke test runs
at a tiny scale; benchmark runs use scale 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

WORKLOADS = ("sampled_sweep", "orbit_walk", "config_burst")

# The catalog instances whose claims are hard (l1_ball_composite's are
# report-only) and the retractions the CLI addresses as map names.
HARD_MAPS = ("prus", "norming", "baseline_c", "shift_simplex",
             "affine_mixing", "deficiency", "goebel_kirk", "hyperconvex",
             "c0_family", "affine_cube", "renormed_l1")
RETRACTIONS = ("radial", "abs", "positive_part", "clamp", "l1_sphere")
ALL_MAPS = HARD_MAPS + ("l1_ball_composite",) + RETRACTIONS
# Maps whose exponent must lie in (0, 1); alpha = 1.5 is out of range.
ALPHA_MAPS = ("prus", "norming", "shift_simplex", "goebel_kirk",
              "hyperconvex", "affine_cube", "l1_ball_composite")


@dataclass(frozen=True)
class Config:
    name: str  # also the report file stem
    key: str   # entry in expected.json
    text: str  # the config file contents


def master_seed(workload: str, seed: int, index: int) -> int:
    """Per-config master seed derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def _config(name: str, map_name: str, seed: int, checks: list[dict],
            params: dict | None = None, breadth: int | None = None) -> str:
    obj = {"schema_version": 1, "name": name,
           "map": {"name": map_name, "params": params or {}},
           "seed": seed, "checks": checks}
    if breadth is not None:
        obj["breadth"] = breadth
    return json.dumps(obj, sort_keys=True)


def _equal_mass(mass: float, width: int) -> str:
    """Vector literal spreading `mass` evenly over coordinates 1..width."""
    return "{" + ", ".join(f"{i}:{mass / width!r}"
                           for i in range(1, width + 1)) + "}"


def sampled_sweep(seed: int, scale: float = 1.0) -> list[Config]:
    """Acceptance-gate check kinds on every hard instance and retraction:
    Holder suprema, invariance and approximate-fixed-set sweeps, the three
    iterate profiles and norming's classical (exponent 1) constant, at the
    default breadth 64, plus three wide-breadth ratio sweeps."""
    pairs = _scaled(800, scale)
    samples = _scaled(400, scale)
    profile_pairs = _scaled(120, scale)
    wide_pairs = _scaled(200, scale)
    plans: list[tuple[str, str, list[dict], int | None]] = []
    for name in HARD_MAPS + RETRACTIONS:
        checks = [{"kind": "holder_ratio", "pairs": pairs},
                  {"kind": "invariance", "samples": samples},
                  {"kind": "approx_fixed_set", "delta": 1.0,
                   "samples": samples}]
        if name == "norming":
            checks.append({"kind": "holder_ratio", "pairs": pairs,
                           "exponent": 1.0})
        if name == "goebel_kirk":
            checks.append({"kind": "asymptotic_profile", "n_max": 20,
                           "pairs": profile_pairs})
        if name in ("shift_simplex", "affine_cube"):
            checks.append({"kind": "uniform_profile",
                           "n_list": [1, 2, 5, 10, 20],
                           "pairs": profile_pairs})
        plans.append((f"sweep-{name}", name, checks, None))
    for name, breadth in (("prus", 384), ("goebel_kirk", 256),
                          ("hyperconvex", 256)):
        checks = [{"kind": "holder_ratio", "pairs": wide_pairs},
                  {"kind": "invariance", "samples": wide_pairs}]
        plans.append((f"sweep-{name}-wide", name, checks, breadth))
    return [
        Config(cname, cname,
               _config(cname, name, master_seed("sampled_sweep", seed, i),
                       checks, breadth=breadth))
        for i, (cname, name, checks, breadth) in enumerate(plans)
    ]


def orbit_walk(seed: int, scale: float = 1.0) -> list[Config]:
    """Long single-vector walks whose supports grow to thousands of
    coordinates.  The one sampled check (200 prus pairs, under 1% of a pass)
    keeps the sampling and pair-yield counters defined on this workload."""
    b = lambda n: _scaled(n, scale, floor=8)  # noqa: E731
    x0_shift = _equal_mass(0.125, 64)  # on shift_simplex's mass-0.125 slice
    x0_ball = _equal_mass(0.5, 64)     # inside the unit l1 ball
    plans = [
        ("prus", [{"kind": "displacement", "strategy": "lambda_scaling",
                   "budget": b(1100)},
                  {"kind": "holder_ratio", "pairs": b(200)}]),
        ("hyperconvex", [{"kind": "displacement",
                          "strategy": "lambda_scaling", "budget": b(1300)},
                         {"kind": "oracle_compare", "n_max": b(300)}]),
        ("c0_family", [{"kind": "displacement", "strategy": "orbit_min",
                        "budget": b(1900)}]),
        ("deficiency", [{"kind": "displacement", "strategy": "orbit_min",
                         "budget": b(3600)}]),
        ("affine_mixing", [{"kind": "displacement",
                            "strategy": "cesaro_affine", "budget": b(2300)}]),
        ("affine_cube", [{"kind": "displacement",
                          "strategy": "cesaro_affine", "budget": b(3000)}]),
        ("shift_simplex", [{"kind": "orbit", "x0": x0_shift,
                            "depth": b(2000)}]),
        ("l1_ball_composite", [{"kind": "orbit", "x0": x0_ball,
                                "depth": b(1000)}]),
        ("norming", [{"kind": "oracle_compare", "n_max": b(700)}]),
    ]
    return [
        Config(f"orbit-{name}", f"orbit-{name}",
               _config(f"orbit-{name}", name,
                       master_seed("orbit_walk", seed, i), checks))
        for i, (name, checks) in enumerate(plans)
    ]


# Deliberately rejected configs: malformed JSON, an unknown map name and an
# out-of-range parameter (exit codes 2, 4 and 3 in expected.json).
REJECTS = ("bad-json", "unknown-map", "bad-param")
BURST_SIZE = 360
REJECT_EVERY = 8  # one config in eight is a rejected one


def config_burst(seed: int, scale: float = 1.0) -> list[Config]:
    """A few hundred tiny configs at breadth 8, rotating through every map
    and retraction, with one in eight deliberately rejected."""
    count = _scaled(BURST_SIZE, scale, floor=3 * REJECT_EVERY)
    offset = seed % len(ALL_MAPS)
    out: list[Config] = []
    for i in range(count):
        ms = master_seed("config_burst", seed, i)
        if i % REJECT_EVERY == REJECT_EVERY - 1:
            kind = REJECTS[(i // REJECT_EVERY) % len(REJECTS)]
            name = f"burst-{i:03d}-{kind}"
            map_name = ALPHA_MAPS[(i + offset) % len(ALPHA_MAPS)]
            checks = [{"kind": "invariance", "samples": 16}]
            if kind == "bad-json":
                text = _config(name, map_name, ms, checks)
                text = text[:len(text) // 2]
            elif kind == "unknown-map":
                text = _config(name, map_name + "_x", ms, checks)
            else:
                text = _config(name, map_name, ms, checks,
                               params={"alpha": 1.5})
            out.append(Config(name, kind, text))
            continue
        map_name = ALL_MAPS[(i + offset) % len(ALL_MAPS)]
        name = f"burst-{i:03d}-{map_name}"
        checks = [{"kind": "holder_ratio", "pairs": 24},
                  {"kind": "invariance", "samples": 24},
                  {"kind": "displacement", "strategy": "sample_min",
                   "budget": 16}]
        out.append(Config(name, f"burst-{map_name}",
                          _config(name, map_name, ms, checks, breadth=8)))
    return out


GENERATORS = {"sampled_sweep": sampled_sweep, "orbit_walk": orbit_walk,
              "config_burst": config_burst}
