"""Driver behaviour: config validation, exit codes, reports, list/describe."""

import hashlib
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holderlab.catalog import catalog_names, retraction_names
from holderlab.cli import main
from holderlab.domains import DOMAIN_KINDS
from holderlab.report import canonical_bytes
from holderlab.verify import CHECKS, COMMON_FIELDS, FIELDS

MAPS = ("affine_cube", "affine_mixing", "baseline_c", "c0_family",
        "deficiency", "goebel_kirk", "hyperconvex", "l1_ball_composite",
        "norming", "prus", "renormed_l1", "shift_simplex")
RETRACTIONS = ("abs", "clamp", "l1_sphere", "positive_part", "radial")


def base_config(out, **overrides):
    cfg = {
        "schema_version": 1,
        "name": "probe",
        "map": {"name": "norming"},
        "seed": 7,
        "checks": [{"kind": "invariance", "samples": 50}],
        "out": str(out),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, filename="config.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def ball_override(**params):
    return {"kind": "ball",
            "params": {"r": 1.0, "norm": {"variant": "lp", "p": 2}, **params}}


def read_report(out_dir, name="probe"):
    return json.loads((out_dir / f"{name}.report.json").read_text())


# ---------------------------------------------------------------------------
# run: happy path and report files


def test_run_writes_report_and_summary(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "verification summary: probe" in out
    assert "[PASS] invariance" in out
    report = read_report(tmp_path)
    assert report["schema_version"] == 1
    assert report["map"]["name"] == "norming"
    assert report["counts"] == {"pass": 1, "fail": 0, "report_only": 0}
    assert (tmp_path / "probe.summary.txt").exists()


def test_rerun_is_byte_identical_up_to_timestamp(tmp_path):
    path = write_config(tmp_path, base_config(
        tmp_path, checks=[{"kind": "holder_ratio", "pairs": 200},
                          {"kind": "displacement", "budget": 100}]))
    assert main(["run", path]) == 0
    first = canonical_bytes((tmp_path / "probe.report.json").read_text())
    assert main(["run", path]) == 0
    second = canonical_bytes((tmp_path / "probe.report.json").read_text())
    assert first == second
    # A different master seed reseeds every check.
    assert main(["run", path, "--seed", "123"]) == 0
    reseeded = canonical_bytes((tmp_path / "probe.report.json").read_text())
    assert reseeded != first


def test_out_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "unused"))
    target = tmp_path / "elsewhere"
    assert main(["run", path, "--out", str(target)]) == 0
    assert (target / "probe.report.json").exists()
    assert not (tmp_path / "unused").exists()


def test_breadth_override_accepted(tmp_path):
    cfg = base_config(tmp_path, breadth=16)
    cfg["map"] = {"name": "c0_family", "params": {"alpha": 0.9}}
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    assert main(["run", path, "--breadth", "32"]) == 0
    assert main(["run", path, "--breadth", "0"]) == 2
    # No check here depends on breadth, so only the cap can refuse it.
    cfg = base_config(tmp_path, checks=[{"kind": "orbit", "depth": 3}])
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--breadth", "1000000000"]) == 2


def test_orbit_x0_literal(tmp_path, capsys):
    cfg = base_config(tmp_path, checks=[
        {"kind": "orbit", "x0": "{1:0.5}", "depth": 5}])
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert "[INFO] orbit" in capsys.readouterr().out


def test_top_level_tolerance_applies_to_checks(tmp_path):
    # The lambda-scaling witness sits near 1e-3, far above the default
    # displacement tolerance but inside an explicit 1e-2.
    checks = [{"kind": "displacement", "strategy": "lambda_scaling",
               "budget": 200}]
    cfg = base_config(tmp_path, checks=checks)
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert read_report(tmp_path)["counts"]["report_only"] == 1

    cfg = base_config(tmp_path, checks=checks, tolerance=1e-2)
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert read_report(tmp_path)["counts"]["pass"] == 1


def test_domain_override_can_break_invariance(tmp_path, capsys):
    # Same formula over a smaller ball: T(0) escapes, and the run fails.
    cfg = base_config(tmp_path, domain={
        "kind": "ball",
        "params": {"r": 0.25, "norm": {"variant": "lp", "p": 2}},
    })
    assert main(["run", write_config(tmp_path, cfg)]) == 5
    out = capsys.readouterr().out
    assert "[FAIL] invariance" in out
    assert read_report(tmp_path)["counts"]["fail"] == 1


def test_a_large_l2_ball_override_stays_invariant(tmp_path, capsys):
    # Coordinates near 1e200 square past the float range; the norm must not.
    cfg = base_config(tmp_path, map={"name": "positive_part"},
                      domain=ball_override(r=1e200))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert "[PASS] invariance" in capsys.readouterr().out


def test_top_level_breadth_applies_to_a_domain_override(tmp_path):
    def witness_indices(**overrides):
        cfg = base_config(tmp_path, map={"name": "prus"},
                          checks=[{"kind": "holder_ratio", "pairs": 200}],
                          domain={"kind": "ball", "params": {
                              "r": 1.0, "norm": {"variant": "sup"}}},
                          **overrides)
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        witness = read_report(tmp_path)["checks"][0]["witness"]
        return {int(i) for i in re.findall(r"(\d+):", witness)}

    assert max(witness_indices()) > 4
    assert max(witness_indices(breadth=4)) <= 4


def test_strict_promotes_report_only_to_failure(tmp_path):
    cfg = base_config(tmp_path, checks=[{"kind": "orbit", "depth": 5}])
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    assert main(["run", path, "--strict"]) == 5
    cfg["strict"] = True
    assert main(["run", write_config(tmp_path, cfg)]) == 5


# ---------------------------------------------------------------------------
# run: config rejection (exit 2)


def test_unreadable_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, fragment", [
    (lambda c: c.update(surprise=1), "unknown config fields"),
    (lambda c: c.pop("seed"), "missing required field"),
    (lambda c: c.update(schema_version=2), "unsupported schema_version"),
    (lambda c: c.update(seed=1.5), "seed must be an integer"),
    (lambda c: c.update(checks=[]), "checks must be a nonempty list"),
    (lambda c: c.update(checks=[{"kind": "bogus"}]), "unknown check kind"),
    (lambda c: c.update(checks=[{"kind": "invariance", "pairs": 9}]),
     "unknown fields"),
    (lambda c: c.update(checks=[{"kind": "orbit", "x0": "{1:"}]),
     "bad x0 literal"),
    (lambda c: c.update(name="a/b"), "path separators"),
    (lambda c: c.update(checks=[{"kind": "uniform_profile",
                                 "n_list": ["a"]}]),
     "n_list entry must be an integer"),
    (lambda c: c.update(checks=[{"kind": "uniform_profile",
                                 "n_list": [1.7]}]),
     "n_list entry must be an integer"),
    (lambda c: c.update(checks=[{"kind": "displacement", "lambdas": ["x"]}]),
     "lambdas entry must be a finite number"),
    (lambda c: c.update(checks=[{"kind": "invariance",
                                 "tolerance": float("nan")}]),
     "tolerance must be a finite number"),
    (lambda c: c.update(seed=-1), "seed must be at least 0"),
    (lambda c: c.update(breadth=-3), "breadth must be at least 1"),
    (lambda c: c.update(domain=ball_override(r=float("inf"))),
     "domain params.r must be a finite number"),
    (lambda c: c.update(domain=ball_override(r=True)),
     "domain params.r must be a finite number"),
    (lambda c: c.update(domain=ball_override(mass=1.0)),
     "unknown ball domain params: ['mass']"),
    (lambda c: c.update(domain={**ball_override(), "breadth": 8}),
     "unknown domain fields: ['breadth']"),
    (lambda c: c.update(domain=ball_override(norm={"variant": "sup"})),
     "does not fit norming, whose l2 norm needs tail 0"),
    (lambda c: c.update(domain={"kind": "c_interval",
                                "params": {"cap": 1.0}}),
     "does not fit norming, whose l2 norm needs tail 0"),
], ids=["extra-field", "missing-seed", "schema-version", "float-seed",
        "empty-checks", "bad-kind", "foreign-check-key", "bad-x0",
        "path-in-name", "string-n_list", "fractional-n_list",
        "string-lambdas", "nan-tolerance", "negative-seed",
        "negative-breadth", "infinite-domain-r", "boolean-domain-r",
        "foreign-domain-param", "domain-breadth", "sup-ball-on-l2-map",
        "c_interval-on-l2-map"])
def test_config_schema_violations(tmp_path, capsys, mangle, fragment):
    cfg = base_config(tmp_path)
    mangle(cfg)
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert fragment in capsys.readouterr().err


def test_check_kind_map_mismatch_is_a_config_error(tmp_path, capsys):
    # goebel_kirk has no closed-form iterates to compare against.
    cfg = base_config(tmp_path, checks=[{"kind": "oracle_compare"}])
    cfg["map"] = {"name": "goebel_kirk"}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "no iterate oracle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run: parameter violations (exit 3) and unknown names (exit 4)


def test_parameter_violation(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["map"] = {"name": "hyperconvex", "params": {"N": 2}}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "N" in capsys.readouterr().err


def test_domain_parameter_violation(tmp_path, capsys):
    cfg = base_config(tmp_path, domain={
        "kind": "ball",
        "params": {"r": 0.0, "norm": {"variant": "lp", "p": 2}},
    })
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "r" in capsys.readouterr().err


def test_ball_domain_requires_a_norm(tmp_path, capsys):
    cfg = base_config(tmp_path, domain={"kind": "ball", "params": {"r": 1.0}})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "need a norm object" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["bogus", "orbit_mn"])
def test_bad_strategy_is_a_config_error(tmp_path, capsys, strategy):
    # the reader checks the name against STRATEGIES, as it checks check
    # kinds, so no check runs and no report is written
    cfg = base_config(tmp_path, checks=[
        {"kind": "holder_ratio", "pairs": 10},
        {"kind": "displacement", "strategy": strategy}])
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert strategy in err and "orbit_min" in err
    assert not list(tmp_path.glob("*.report.json"))


def test_a_strategy_the_map_cannot_take_is_a_parameter_error(tmp_path):
    cfg = base_config(tmp_path, map={"name": "shift_simplex"}, checks=[
        {"kind": "displacement", "strategy": "lambda_scaling"}])
    assert main(["run", write_config(tmp_path, cfg)]) == 3


def test_unknown_map_name(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["map"] = {"name": "shift_simple"}
    assert main(["run", write_config(tmp_path, cfg)]) == 4
    assert "shift_simplex" in capsys.readouterr().err


# Any JSON value, and values of each declared field type at tiny budgets.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 6), st.floats(), st.text(max_size=2)),
             max_size=3),
)
TYPED_VALUES = {
    "int": st.integers(-1, 4),
    "seed": st.integers(-1, 4),
    "number": st.floats(),
    "int list": st.lists(st.integers(-1, 4), max_size=3),
    "number list": st.lists(st.floats(), max_size=3),
    "string": st.sampled_from(["sample_min", "orbit_min", "lambda_scaling",
                               "cesaro_affine"]),
    "vector": st.sampled_from(["{}", "{1:0.5}", "{2:-0.25}", "{1:nan}",
                               "{0:1}", "{1:1e308}", "{1:0.1; tail:0.1}"]),
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_check_field_values_map_to_an_exit_code(tmp_path, data):
    kind = data.draw(st.sampled_from(sorted(CHECKS)), label="kind")
    check = {"kind": kind}
    for name in CHECKS[kind].fields + COMMON_FIELDS:
        typed = TYPED_VALUES[FIELDS[name].type]
        check[name] = data.draw(st.one_of(typed, JSON_VALUES), label=name)
    map_name = data.draw(st.sampled_from(["norming", "shift_simplex",
                                          "goebel_kirk"]), label="map")
    cfg = base_config(tmp_path, map={"name": map_name}, checks=[check])
    assert main(["run", write_config(tmp_path, cfg)]) in (0, 2, 3, 4, 5)


NORM_OBJECTS = st.sampled_from([
    {"variant": "sup"}, {"variant": "lp", "p": 1}, {"variant": "lp", "p": 2.5},
    {"variant": "max_pos_neg_l1"}, {"variant": "lp"}, {"variant": "sup", "p": 2},
])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_domain_values_map_to_an_exit_code(tmp_path, data):
    kind = data.draw(st.one_of(st.sampled_from(sorted(DOMAIN_KINDS)),
                               JSON_VALUES), label="kind")
    known = isinstance(kind, str) and kind in DOMAIN_KINDS
    declared = DOMAIN_KINDS[kind].params if known else ("r",)
    params = {}
    for name in dict.fromkeys(declared + ("mass", "tol")):
        typed = NORM_OBJECTS if name == "norm" else st.floats()
        if data.draw(st.booleans(), label=f"has {name}"):
            params[name] = data.draw(st.one_of(typed, JSON_VALUES), label=name)
    domain = {"kind": kind, "params": params}
    for key in ("tol", "breadth"):
        if data.draw(st.booleans(), label=f"has domain {key}"):
            domain[key] = data.draw(JSON_VALUES, label=f"domain {key}")
    map_name = data.draw(st.sampled_from(["norming", "prus", "shift_simplex",
                                          "goebel_kirk", "clamp"]),
                         label="map")
    cfg = base_config(tmp_path, map={"name": map_name}, domain=domain,
                      breadth=8, checks=[{"kind": "invariance", "samples": 8},
                                         {"kind": "holder_ratio", "pairs": 8}])
    assert main(["run", write_config(tmp_path, cfg)]) in (0, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# list / describe


def test_list_names_every_map_and_retraction(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in MAPS + RETRACTIONS:
        assert name in out
    assert out.count("[closed-form iterates]") == 3


def test_describe_prints_the_construction_sheet(capsys):
    assert main(["describe", "norming"]) == 0
    out = capsys.readouterr().out
    for fragment in ("name: norming", "formula:", "domain:", "claims:",
                     "classical lipschitz", "fixed points: singleton",
                     "oracle: closed-form iterates"):
        assert fragment in out


def test_describe_covers_retractions(capsys):
    assert main(["describe", "l1_sphere"]) == 0
    out = capsys.readouterr().out
    assert "name: l1_sphere" in out
    assert "holder constant = 8.0" in out


def test_describe_shows_every_enforced_rule(capsys):
    for name in catalog_names() + retraction_names():
        assert main(["describe", name]) == 0, name
    capsys.readouterr()
    for name, rules in (("hyperconvex", ("N >= 1", "N^alpha >= 2")),
                        ("affine_cube", ("r > 0", "(2r)^(1-alpha) <= lambda"))):
        main(["describe", name])
        out = capsys.readouterr().out
        for rule in rules:
            assert rule in out, (name, rule)


def test_describe_unknown_name(capsys):
    assert main(["describe", "nope"]) == 4
    assert "nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report bytes pinned across refactors

# SHA-256 of canonical_bytes for one small config per check kind plus one
# retraction, at master seed 11.  A change that alters a sampling stream on
# purpose re-records these digests and says so.
GOLDEN_REPORTS = [
    ("norming", {"kind": "holder_ratio", "pairs": 60, "iterate": 2,
                 "exponent": 1.0},
     "fad78f939b3105f7d368373bee646dcfa23dd9961b4e1faa4d07ff138abf3f4f"),
    ("prus", {"kind": "invariance", "samples": 40},
     "8af2b5b7fbf3c27b5199c5e5623886fc31bc5b15eaa30a83041720f46e605682"),
    ("shift_simplex", {"kind": "orbit", "x0": "{1:0.0625, 2:0.0625}",
                       "depth": 8},
     "f543d2f0456b623557cf43455adb05f3661a49d9746b3ab86d0b68e059415f67"),
    ("deficiency", {"kind": "displacement", "strategy": "sample_min",
                    "budget": 40},
     "a001aa93d1fbede4feeb5a999f98c14707bddb9d39e9f0b602dde93c0fae6465"),
    ("affine_cube", {"kind": "uniform_profile", "n_list": [1, 3],
                     "pairs": 40},
     "26fc783bc5e160f8d0ec1dfef65dc5825705c80df31e12ce89d3bef16bdae25e"),
    ("goebel_kirk", {"kind": "asymptotic_profile", "n_max": 3, "pairs": 40},
     "6ab0a8b68f37a69de8c7ffd2f6fc2accd48d5d22a3b9a465c9d0b6b775e84ef0"),
    ("norming", {"kind": "approx_fixed_set", "delta": 1.0, "samples": 40},
     "829560f7de775bffd5782c388c27749214ef3524d417575d9f2f0b8a7193f1de"),
    ("hyperconvex", {"kind": "oracle_compare", "n_max": 6},
     "e73eec3a18b0b4979e4874365de96e97add64f39494ab2abe196611d82b9cffa"),
    ("l1_sphere", {"kind": "holder_ratio", "pairs": 60},
     "22b60034860bb701c45a331be2e3051f9a02aca1131335317884298d68bf5011"),
]


@pytest.mark.parametrize("map_name, check, digest", GOLDEN_REPORTS,
                         ids=[f"{c['kind']}-{m}" for m, c, _ in GOLDEN_REPORTS])
def test_report_bytes_are_pinned(tmp_path, map_name, check, digest):
    cfg = base_config(tmp_path, map={"name": map_name}, seed=11,
                      checks=[check])
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    report = canonical_bytes((tmp_path / "probe.report.json").read_text())
    assert hashlib.sha256(report).hexdigest() == digest
