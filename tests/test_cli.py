"""Driver behaviour: config validation, exit codes, reports, list/describe."""

import hashlib
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holderlab.catalog import catalog_names, retraction_names
from holderlab import cli, report
from holderlab.cli import main
from holderlab.domains import DOMAIN_KINDS
from holderlab.report import canonical_bytes
from holderlab.verify import CHECKS, FIELDS, STRATEGIES

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


SUP_BALL = {"kind": "ball", "params": {"r": 1.0, "norm": {"variant": "sup"}}}
C_INTERVAL = {"kind": "c_interval", "params": {"cap": 1.0}}


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


# A report that cannot be written is a config error that names the path,
# and leaves no temp file behind.

def test_a_name_too_long_for_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, name="n" * 300))
    assert main(["run", path]) == 2
    assert "n" * 300 in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_an_out_that_names_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    assert main(["run", write_config(tmp_path, base_config(taken))]) == 2
    assert str(taken) in capsys.readouterr().err
    path = write_config(tmp_path, base_config(tmp_path / "unused"))
    assert main(["run", path, "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("field", ["name", "out"])
def test_a_nul_in_the_report_path_exits_2(tmp_path, capsys, field):
    out = tmp_path / "out"
    out.mkdir()
    cfg = base_config(out)
    cfg[field] += "\0x"
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert repr(cfg[field]) in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["nul-name", "nul-out", "nul-flag",
                                  "long-name", "long-utf8-name", "out-file"])
def test_an_unwritable_report_exits_2_before_any_check(tmp_path, monkeypatch,
                                                       capsys, case):
    """A report no file system could take is a config error found before
    the checks run, not after a whole budget is spent."""
    ran = []
    monkeypatch.setattr(cli, "run_check", lambda *args: ran.append(args))
    out, taken = tmp_path / "out", tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    cfg = base_config(out, map={"name": "affine_cube"},
                      checks=[{"kind": "displacement",
                               "strategy": "cesaro_affine", "budget": 3000}])
    flags = []
    if case == "nul-name":
        cfg["name"] += "\0x"
    elif case == "nul-out":
        cfg["out"] += "\0x"
    elif case == "nul-flag":
        flags = ["--out", str(out) + "\0x"]
    elif case == "long-name":
        cfg["name"] = "n" * 300
    elif case == "long-utf8-name":  # 244 bytes, and 12 more for the suffix
        cfg["name"] = "\u00e9" * 122
    else:
        cfg["out"] = str(taken)
    assert main(["run", write_config(tmp_path, cfg), *flags]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert ran == []
    assert not out.exists() or list(out.iterdir()) == []
    assert taken.read_text(encoding="utf-8") == "kept"


def test_a_report_write_that_fails_after_the_checks_exits_2(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    def write_report(report, out_dir):
        raise OSError("the disk is full")

    monkeypatch.setattr(cli, "write_report", write_report)
    assert main(["run", write_config(tmp_path, base_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert "cannot write report 'probe'" in err
    assert "the disk is full" in err


def test_a_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(report.os, "replace", replace)
    with pytest.raises(OSError, match="replace failed"):
        report._atomic_write(str(tmp_path / "probe.summary.txt"), "text")
    assert list(tmp_path.iterdir()) == []


def test_the_longest_name_the_directory_allows_is_written(tmp_path):
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    name = "n" * (limit - len(".summary.txt"))
    path = write_config(tmp_path, base_config(tmp_path, name=name))
    assert main(["run", path]) == 0
    assert (tmp_path / f"{name}.summary.txt").exists()
    assert (tmp_path / f"{name}.report.json").exists()


def test_one_parser_serves_every_call(tmp_path):
    """main reuses one parser per process: no option of one call reaches
    the next, and a bad command line exits 2 every time."""
    cfg = base_config(tmp_path, checks=[{"kind": "holder_ratio", "pairs": 50},
                                        {"kind": "orbit", "depth": 5}])
    cfg["map"] = {"name": "c0_family", "params": {"alpha": 0.9}}
    path = write_config(tmp_path, cfg)

    def run(name, *options):
        code = main(["run", path, *options, "--out", str(tmp_path / name)])
        return code, canonical_bytes(
            (tmp_path / name / "probe.report.json").read_text())

    cli._parser.cache_clear()
    fresh = run("fresh")
    assert run("options", "--strict", "--seed", "123",
               "--breadth", "32") != fresh
    assert fresh[0] == 0
    assert run("again") == fresh
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--seed", "x"])
        assert exc.value.code == 2


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


def test_a_domain_override_carries_its_tol(tmp_path, capsys):
    assert cli._domain_from_obj({**ball_override(), "tol": 1e-6},
                                None).tol == 1e-6
    cfg = base_config(tmp_path, domain={**ball_override(), "tol": -1})
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "'tol'" in capsys.readouterr().err


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


def test_an_override_is_probed_only_at_its_canonical_points(tmp_path, capsys):
    # c0_family on another band is inside its definition and runs
    cfg = base_config(tmp_path, map={"name": "c0_family"}, domain={
        "kind": "sigma_band", "params": {"delta": 0.25, "q": 0.5}})
    assert main(["run", write_config(tmp_path, cfg)]) in (0, 5)
    assert read_report(tmp_path)["checks"][0]["kind"] == "invariance"
    # a box whose canonical points have l1 mass <= 1 passes the probe, but
    # its draws reach mass 6.4 and stop the run with exit 3 and no report
    cfg = base_config(tmp_path / "box", map={"name": "l1_sphere"}, domain={
        "kind": "coefficient_box", "params": {"r": 0.1}},
        checks=[{"kind": "holder_ratio", "pairs": 50}])
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "l1_sphere_retract needs ||x||_1 <= r" in capsys.readouterr().err
    assert not (tmp_path / "box").exists()


def test_a_large_l2_ball_override_stays_invariant(tmp_path, capsys):
    # Coordinates near 1e200 square past the float range; the norm must not.
    cfg = base_config(tmp_path, map={"name": "positive_part"},
                      domain=ball_override(r=1e200))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert "[PASS] invariance" in capsys.readouterr().out


def test_a_huge_simplex_override_squares_past_the_float_range(tmp_path):
    # norming's batch form squares t1 = 1e155 to inf, as its scalar form
    # does, with no RuntimeWarning; T(K) leaves K and the run fails
    cfg = base_config(tmp_path, breadth=8, domain={
        "kind": "simplex", "params": {"mass": 1e155}},
        checks=[{"kind": "invariance", "samples": 8},
                {"kind": "holder_ratio", "pairs": 8}])
    assert main(["run", write_config(tmp_path, cfg)]) == 5


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


def test_a_config_nested_too_deeply_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config is not valid JSON: ")
    assert not (tmp_path / "out").exists()


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
    (lambda c: c.update(checks=[{"kind": "approx_fixed_set",
                                 "tolerance": float("nan")}]),
     "tolerance must be a finite number"),
    # a field the check kind does not read
    (lambda c: c.update(checks=[{"kind": "holder_ratio", "tolerance": 0}]),
     "unknown fields ['tolerance']"),
    (lambda c: c.update(checks=[{"kind": "orbit", "seed": 4}]),
     "unknown fields ['seed']"),
    # a field the displacement strategy does not read
    (lambda c: c.update(checks=[{"kind": "displacement",
                                 "strategy": "orbit_min", "lambdas": [0.5],
                                 "target": 7, "seed": 3}]),
     "strategy 'orbit_min' does not read ['lambdas', 'seed', 'target']"),
    (lambda c: c.update(checks=[{"kind": "displacement", "target": 0.1}]),
     "strategy 'sample_min' does not read ['target']"),
    (lambda c: c.update(checks=[{"kind": "displacement",
                                 "strategy": "lambda_scaling", "seed": 3}]),
     "strategy 'lambda_scaling' does not read ['seed']"),
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
    # override domains with a canonical point outside the map's definition
    (lambda c: c.update(map={"name": "c0_family"}, domain=SUP_BALL),
     "its point {1:-1.0} is outside the map's definition (c0_family needs "
     "nonnegative coords)"),
    (lambda c: c.update(map={"name": "clamp"}, domain=SUP_BALL),
     "does not fit clamp: its point {1:-1.0}"),
    (lambda c: c.update(map={"name": "affine_cube"}, domain=C_INTERVAL),
     "its point {; tail:1.0} is outside the map's definition (affine_cube "
     "is defined on c0 (tail 0))"),
    (lambda c: c.update(map={"name": "affine_cube"}, domain=SUP_BALL),
     "does not fit affine_cube: its point {; tail:1.0}"),
    (lambda c: c.update(map={"name": "c0_family"}, domain=C_INTERVAL),
     "does not fit c0_family: its point {; tail:1.0}"),
    (lambda c: c.update(map={"name": "l1_sphere"}, domain={
        "kind": "ball", "params": {"r": 2.0, "norm": {"variant": "lp",
                                                      "p": 1}}}),
     "does not fit l1_sphere: its point {1:2.0}"),
    (lambda c: c.update(map={"name": "l1_sphere"}, domain={
        "kind": "simplex", "params": {"mass": 1.5}}),
     "does not fit l1_sphere: its point {1:1.5}"),
    (lambda c: c.update(map={"name": "l1_sphere"}, domain={
        "kind": "sub_simplex", "params": {"mass_cap": 3.0}}),
     "does not fit l1_sphere: its point {1:3.0}"),
    (lambda c: c.update(map={"name": "shift_simplex"}, domain={
        "kind": "simplex", "params": {"p": 1.0, "mass": 0.125}}),
     "unknown simplex domain params: ['p']"),
    (lambda c: c.update(map={"name": "l1_sphere"}, domain={
        "kind": "coefficient_box", "params": {"r": 0.5}}),
     "l1_sphere_retract needs ||x||_1 <= r"),
    (lambda c: c.update(map={"name": "hyperconvex"}, domain=SUP_BALL),
     "its point {1:-1.0} is outside the map's definition (hyperconvex "
     "needs t1 >= 0)"),
], ids=["extra-field", "missing-seed", "schema-version", "float-seed",
        "empty-checks", "bad-kind", "foreign-check-key", "bad-x0",
        "path-in-name", "string-n_list", "fractional-n_list",
        "string-lambdas", "nan-tolerance", "unread-tolerance", "unread-seed",
        "orbit_min-unread-fields", "sample_min-unread-target",
        "lambda_scaling-unread-seed",
        "negative-seed",
        "negative-breadth", "infinite-domain-r", "boolean-domain-r",
        "foreign-domain-param", "domain-breadth", "sup-ball-on-l2-map",
        "c_interval-on-l2-map", "sup-ball-on-c0_family", "sup-ball-on-clamp",
        "c_interval-on-affine_cube", "sup-ball-on-affine_cube",
        "c_interval-on-c0_family", "l1-ball-2-on-l1_sphere",
        "simplex-1.5-on-l1_sphere", "sub_simplex-3-on-l1_sphere",
        "simplex-with-p",
        "coefficient_box-on-l1_sphere", "sup-ball-on-hyperconvex"])
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


def test_a_parameter_error_names_the_config_parameter(tmp_path, capsys):
    cfg = base_config(tmp_path, map={"name": "shift_simplex",
                                     "params": {"lambda": 1.5}})
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert ("parameter 'lambda' violates constraint: requires 0 < lambda < 1"
            in capsys.readouterr().err)


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


def test_an_asymptotic_profile_past_the_block_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", map={"name": "goebel_kirk"}, checks=[
        {"kind": "asymptotic_profile", "n_max": 10 ** 14, "pairs": 2}])
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: n_max 100000000000000 is above 16384\n")
    assert not (tmp_path / "out").exists()


def test_a_strategy_the_map_cannot_take_is_a_parameter_error(tmp_path):
    cfg = base_config(tmp_path, map={"name": "shift_simplex"}, checks=[
        {"kind": "displacement", "strategy": "lambda_scaling"}])
    assert main(["run", write_config(tmp_path, cfg)]) == 3


@pytest.mark.parametrize("N, n_max", [(16, 300), (1e200, 5)])
def test_hyperconvex_oracle_past_the_float_range(tmp_path, N, n_max):
    # N^(n - j) overflows a float; the closed form's t1 / N^(n - j) is then
    # 0, which is what iterating the map gives too
    cfg = base_config(tmp_path, map={"name": "hyperconvex", "params": {"N": N}},
                      checks=[{"kind": "oracle_compare", "n_max": n_max}])
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert read_report(tmp_path)["checks"][0]["measured"] == 0.0


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
    names = CHECKS[kind].fields
    if kind == "displacement":
        # a strategy, then only the fields a known strategy reads
        strategy = data.draw(st.one_of(TYPED_VALUES["string"], JSON_VALUES),
                             label="strategy")
        check["strategy"] = strategy
        names = [name for name in names if name != "strategy"]
        if isinstance(strategy, str) and strategy in STRATEGIES:
            unread = {name for s in STRATEGIES.values() for name in s.fields}
            unread -= set(STRATEGIES[strategy].fields)
            names = [name for name in names if name not in unread]
    for name in names:
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


# SHA-256 of the stdout of `list` and of `describe` on every name.  A change
# that rewords a construction sheet on purpose re-records these digests.
GOLDEN_SHEETS = {
    ("list",):
    "7c438055cd9758e9c148cdb3200169a60bf14cb4630f1ee6459f7ba5d3b5ac2e",
    ("describe", "affine_cube"):
    "ee6e1c3736ac355b9cbfa01f970578518b6bebd934b9dcebe9779ba4fe74d48c",
    ("describe", "affine_mixing"):
    "2418aef769bd76a4a4ace1cce848d8d55dc9f9daac96e243842011f164b09f5b",
    ("describe", "baseline_c"):
    "a740ea707ee6e28e16c8573b32054808c923bebb4a3388de19a1f3ad0469b1c0",
    ("describe", "c0_family"):
    "6db8e9b53ff99e9803e440af19cfa29b8d90bd4d9da0b12b2376c6cf8f977890",
    ("describe", "deficiency"):
    "0c111b82242d977cab23317bf6dc1a596e1499d400b7f289f2e3e6a4ef75b767",
    ("describe", "goebel_kirk"):
    "a547da55bd588700ff00b007890a15852f8e9174423c5270b2ef5ac6f4358544",
    ("describe", "hyperconvex"):
    "201efef87585b22154db70873c49418e4ae0c9f5db1346aa2dc681f8c71bcbe1",
    ("describe", "l1_ball_composite"):
    "01917c51c3a872d681e3baf5b0049b121bcb451845c17dd391afb092f1c69ce3",
    ("describe", "norming"):
    "d924e3e3d1c41f6b8f2f536181ff4998f93cee312b8043918c076b973bdad6b0",
    ("describe", "prus"):
    "0818a9b309489973accd2efd8265df4bf081760774d33898247728fdc4b20787",
    ("describe", "renormed_l1"):
    "920510d8cc3f857ca76e3294d1f67d190a7004a5cc7b20020319d4039baae0cd",
    ("describe", "shift_simplex"):
    "c2bc1b96c84ef18f92c38d56d5107ff1afd7e65ade2c57bb7968869f43cf5622",
    ("describe", "abs"):
    "9a34c44c8cc8d66b38d2774be337fbe9879380e7684d6813af91e1687ffa2758",
    ("describe", "clamp"):
    "ff64af0b8b044bdcb80b892def60e80a1d86fea9c2ae89afa6bfa4eb1b7e96ef",
    ("describe", "l1_sphere"):
    "d2521b9a2eb21d907e98e420ec520af09fde7b32f8f2ffd93530f270c0c58722",
    ("describe", "positive_part"):
    "43c77985b4d356de032c60ff571ed9df401cab16d2c720ef9d1ec74a0ce0962c",
    ("describe", "radial"):
    "df28a3c6e8a9dfbbe3373a372ddc33ebff052ff940dd36262cb8f65d7f5660f2",
}


@pytest.mark.parametrize("argv", GOLDEN_SHEETS, ids="-".join)
def test_construction_sheets_are_pinned(capsys, argv):
    described = {a[1] for a in GOLDEN_SHEETS if a[0] == "describe"}
    assert described == set(catalog_names() + retraction_names())
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHEETS[argv]


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
    # The SeqVec paths: l1_ball_composite has no batch form, and
    # deficiency's pair blocks outgrow the growth rule by iterate 3.
    ("l1_ball_composite", {"kind": "holder_ratio", "pairs": 60, "iterate": 2},
     "4e56d739929d98cadc1a46e852c8821ca295490fc5dffdbfaed966494940eb27"),
    ("l1_ball_composite", {"kind": "invariance", "samples": 40},
     "45c73acd3731448f8a89f89a807ea3b1e80cff1feb3b4bcf1651bdda02e80dca"),
    ("l1_ball_composite", {"kind": "displacement", "strategy": "sample_min",
                           "budget": 40},
     "54bae5c9a9d31eac13a86d001dd162ea3188e7dce1e2597f46712fb5647fbcf8"),
    ("deficiency", {"kind": "holder_ratio", "pairs": 60, "iterate": 3},
     "88b71d278854d9eb5101b651a7a38ff2b66df3ad0dffa2da3cbace9e715266d8"),
    # Long walks, recorded before their measurements went in chunks: each
    # crosses at least three chunk boundaries.
    ("affine_mixing", {"kind": "displacement", "strategy": "cesaro_affine",
                       "budget": 1000},
     "63a46fe37bf306e66aaec62a88d79a463a0cce75c9bdf1332464b8eb7b9e73e5"),
    ("affine_cube", {"kind": "displacement", "strategy": "cesaro_affine",
                     "budget": 800},
     "d3ca478cd5328bd88ea6017126725aaedf922ca435eafa9bec737aa99bc585f5"),
    ("c0_family", {"kind": "displacement", "strategy": "orbit_min",
                   "budget": 900},
     "9e0d89ec0cfb2b32fa118429b4ae67cfbe59358e028d73629b2e1bdcb6fe6e8e"),
    ("shift_simplex", {"kind": "orbit", "x0": "{1:0.0625, 2:0.0625}",
                       "depth": 600},
     "95968b9eccd5e847c701ef2b670e1662f3e762c5ab4e4b9aebd12c714b629e8e"),
    ("norming", {"kind": "oracle_compare", "n_max": 600},
     "7fddd7813a07ebc2e4408b87b750cdcc85df5cd17ce56cbf1637229405b47ede"),
    # Walk shapes recorded before the orbit kernel measured every chunk one
    # way: deficiency's rows outgrow the growth rule and its walks go by
    # points, l1_ball_composite walks SeqVecs and norms them, and the lambda
    # walks end a chunk at each checkpoint (hyperconvex's stops at 0.01).
    ("deficiency", {"kind": "displacement", "strategy": "orbit_min",
                    "budget": 300},
     "f30aa5695c94756ff784108f947874b2b049531e05cb7aed1be4f246f37a1752"),
    ("l1_ball_composite", {"kind": "orbit", "depth": 200},
     "2786bfa1c7b5cf8112dd9943de6d241c9078489a37351586738c88ac92c1396d"),
    ("prus", {"kind": "displacement", "strategy": "lambda_scaling",
              "budget": 1000},
     "51722b622a10e1fa7f3c1d1c4ed019e0a5b62ed8865644491afcda48ea861f7c"),
    ("hyperconvex", {"kind": "displacement", "strategy": "lambda_scaling",
                     "budget": 1000, "target": 0.01},
     "c9f493aaaef5f9c142732354f786c5b3ade14b7bca38b63fedb7308ac7138580"),
]


def _golden_ids(entries):
    """kind-map for each entry; a repeat of a kind and map gets -2, -3..."""
    seen: dict[str, int] = {}
    ids = []
    for map_name, check, _ in entries:
        key = f"{check['kind']}-{map_name}"
        seen[key] = seen.get(key, 0) + 1
        ids.append(key if seen[key] == 1 else f"{key}-{seen[key]}")
    return ids


@pytest.mark.parametrize("map_name, check, digest", GOLDEN_REPORTS,
                         ids=_golden_ids(GOLDEN_REPORTS))
def test_report_bytes_are_pinned(tmp_path, map_name, check, digest):
    cfg = base_config(tmp_path, map={"name": map_name}, seed=11,
                      checks=[check])
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    report = canonical_bytes((tmp_path / "probe.report.json").read_text())
    assert hashlib.sha256(report).hexdigest() == digest
