"""Command line driver: run experiment configs, list the catalog, describe
a map.

Exit codes (EXIT_CODES maps each exception class to one of them)
    0  every non-report-only check passed (all checks, under --strict)
    2  unreadable, malformed or schema-invalid config
    3  a parameter violated its constraint
    4  unknown map or retraction name
    5  at least one check failed

Configs are JSON objects; unknown fields anywhere are errors, not warnings,
because a silent typo would invalidate a verification run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .catalog import CATALOG, RETRACTION_CATALOG, build_map
from .domains import DOMAIN_KINDS, MAX_BREADTH, DomainSpec, _is_finite
from .errors import (
    ConfigError,
    DomainViolationError,
    HolderLabError,
    InsufficientSamplesError,
    InvalidBudgetError,
    InvalidCheckError,
    InvalidCompositionError,
    InvalidIndexError,
    InvalidParameterError,
    InvalidStrategyError,
    NotInSpaceError,
    UnknownNameError,
)
from .report import VerificationReport, report_paths, write_report
from .seqvec import NORM_VARIANTS, NormKind, format_vec, parse_vec
from .verify import CHECKS, FIELDS, CheckRequest, run_check, unread_fields

__all__ = ["main", "EXIT_CODES"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARAMETER = 3
EXIT_UNKNOWN_NAME = 4
EXIT_CHECK_FAILED = 5

# The exit code of every deliberate error; a class not listed takes the code
# of its nearest listed base.
EXIT_CODES: dict[type[HolderLabError], int] = {
    ConfigError: EXIT_CONFIG,
    InvalidCheckError: EXIT_CONFIG,
    InvalidIndexError: EXIT_CONFIG,
    InvalidParameterError: EXIT_PARAMETER,
    InvalidCompositionError: EXIT_PARAMETER,
    InvalidBudgetError: EXIT_PARAMETER,
    InvalidStrategyError: EXIT_PARAMETER,
    DomainViolationError: EXIT_PARAMETER,
    NotInSpaceError: EXIT_PARAMETER,
    UnknownNameError: EXIT_UNKNOWN_NAME,
    InsufficientSamplesError: EXIT_CHECK_FAILED,
    HolderLabError: EXIT_CONFIG,
}

_TOP_KEYS = {"schema_version", "name", "map", "domain", "seed", "checks",
             "strict", "out", "breadth", "tolerance"}
_MAP_KEYS = {"name", "params"}
_DOMAIN_KEYS = {"kind", "params", "tol"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# JSON value parsers: parse(value, name, where) returns the value or raises
# ConfigError naming `where` + `name`.

def _integer(value: object, name: str, where: str = "",
             minimum: int | None = None, maximum: int | None = None) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}{name} must be an integer")
    _require(minimum is None or value >= minimum,
             f"{where}{name} must be at least {minimum}")
    _require(maximum is None or value <= maximum,
             f"{where}{name} must be at most {maximum}")
    return value


_breadth = functools.partial(_integer, minimum=1, maximum=MAX_BREADTH)


def _number(value: object, name: str, where: str = "") -> float:
    _require(_is_finite(value), f"{where}{name} must be a finite number")
    return float(value)


def _string(value: object, name: str, where: str = "") -> str:
    _require(isinstance(value, str), f"{where}{name} must be a string")
    return value


def _vector(value: object, name: str, where: str = ""):
    _require(isinstance(value, str),
             f"{where}{name} must be a vector literal string")
    try:
        vec = parse_vec(value)
    except (ValueError, InvalidIndexError) as exc:
        raise ConfigError(f"{where}bad {name} literal: {exc}") from exc
    _require(all(math.isfinite(v) for _, v in vec.support)
             and math.isfinite(vec.tail),
             f"{where}{name} must have finite coordinates")
    return vec


def _list_of(item):
    def parse(value: object, name: str, where: str = "") -> tuple:
        _require(isinstance(value, list) and value,
                 f"{where}{name} must be a nonempty list")
        return tuple(item(v, f"{name} entry", where) for v in value)
    return parse


_PARSERS = {
    "int": _integer,
    "seed": functools.partial(_integer, minimum=0),
    "number": _number,
    "int list": _list_of(_integer),
    "number list": _list_of(_number),
    "string": _string,
    "vector": _vector,
}


def _norm_from_obj(obj: object) -> NormKind:
    _require(isinstance(obj, dict), "norm must be an object")
    extra = set(obj) - {"variant", "p"}
    _require(not extra, f"unknown norm fields: {sorted(extra)}")
    variant = obj.get("variant")
    _require(isinstance(variant, str) and variant in NORM_VARIANTS,
             f"unknown norm variant {variant!r}")
    takes_p = NORM_VARIANTS[variant].takes_p
    _require(("p" in obj) == takes_p,
             f"{variant} norm {'needs a' if takes_p else 'takes no'} p field")
    return NormKind(variant, _number(obj["p"], "p", f"{variant} norm ")
                    if takes_p else None)


def _domain_from_obj(obj: object, breadth: int | None) -> DomainSpec:
    _require(isinstance(obj, dict), "domain must be an object")
    extra = set(obj) - _DOMAIN_KEYS
    _require(not extra, f"unknown domain fields: {sorted(extra)}")
    kind = obj.get("kind")
    _require(isinstance(kind, str) and kind in DOMAIN_KINDS,
             f"unknown domain kind {kind!r}; expected one of "
             f"{', '.join(DOMAIN_KINDS)}")
    params = obj.get("params", {})
    _require(isinstance(params, dict), "domain params must be an object")
    declared = DOMAIN_KINDS[kind].params
    extra = set(params) - set(declared)
    _require(not extra, f"unknown {kind} domain params: {sorted(extra)}")
    for name in declared:
        _require(name in params, f"{kind} domain params need "
                 f"{'a norm object' if name == 'norm' else name}")
    kwargs = {name: _norm_from_obj(value) if name == "norm"
              else _number(value, name, "domain params.")
              for name, value in params.items()}
    if "tol" in obj:
        kwargs["tol"] = _number(obj["tol"], "tol", "domain ")
    if breadth is not None:
        kwargs["breadth"] = breadth
    return DomainSpec(kind, **kwargs)


def _check_from_obj(obj: object, index: int) -> tuple[str, dict]:
    """A check's kind and its parsed fields."""
    where = f"checks[{index}]: "
    _require(isinstance(obj, dict), f"checks[{index}] must be an object")
    kind = obj.get("kind")
    _require(isinstance(kind, str) and kind in CHECKS,
             f"{where}unknown check kind {kind!r}; expected one of "
             f"{', '.join(CHECKS)}")
    extra = unread_fields(kind, set(obj) - {"kind"})
    _require(not extra,
             f"checks[{index}] ({kind}): unknown fields {extra}; "
             f"allowed: {sorted({'kind', *CHECKS[kind].fields})}")
    fields = {key: _PARSERS[FIELDS[key].type](value, key, where)
              for key, value in obj.items() if key != "kind"}
    for key, value in fields.items():
        choices = FIELDS[key].choices
        if choices is not None:
            _require(value in choices, f"{where}unknown {key} {value!r}; "
                     f"expected one of {', '.join(choices)}")
    # the kind reads every key left, so only a strategy can leave one unread
    strategy = fields.get("strategy", FIELDS["strategy"].default)
    unread = unread_fields(kind, fields, strategy)
    _require(not unread,
             f"{where}strategy {strategy!r} does not read {unread}")
    return kind, fields


def _parse_config(obj: object) -> dict:
    _require(isinstance(obj, dict), "config must be a JSON object")
    extra = set(obj) - _TOP_KEYS
    _require(not extra, f"unknown config fields: {sorted(extra)}")
    for key in ("schema_version", "name", "map", "seed", "checks"):
        _require(key in obj, f"config is missing required field {key!r}")
    _require(obj["schema_version"] == 1,
             f"unsupported schema_version {obj['schema_version']!r} "
             f"(this build reads version 1)")
    name = obj["name"]
    _require(isinstance(name, str) and name and "/" not in name
             and "\\" not in name,
             "name must be a nonempty string without path separators")
    map_obj = obj["map"]
    _require(isinstance(map_obj, dict), "map must be an object")
    extra = set(map_obj) - _MAP_KEYS
    _require(not extra, f"unknown map fields: {sorted(extra)}")
    _require(isinstance(map_obj.get("name"), str), "map.name must be a string")
    params = map_obj.get("params", {})
    _require(isinstance(params, dict), "map.params must be an object")
    for key, value in params.items():
        _number(value, key, "map.params.")
    seed = _integer(obj["seed"], "seed", minimum=0)
    checks_obj = obj["checks"]
    _require(isinstance(checks_obj, list) and checks_obj,
             "checks must be a nonempty list")
    checks = [_check_from_obj(c, i) for i, c in enumerate(checks_obj)]
    strict = obj.get("strict", False)
    _require(isinstance(strict, bool), "strict must be a boolean")
    out = obj.get("out", ".")
    _require(isinstance(out, str) and out, "out must be a nonempty string")
    breadth = obj.get("breadth")
    if breadth is not None:
        _breadth(breadth, "breadth")
    tolerance = obj.get("tolerance")
    if tolerance is not None:
        tolerance = _number(tolerance, "tolerance")
    for kind, fields in checks:  # the top-level tolerance, where none is set
        if "tolerance" in CHECKS[kind].fields:
            fields.setdefault("tolerance", tolerance)
    return {
        "name": name,
        "map_name": map_obj["name"],
        "map_params": params,
        "domain": obj.get("domain"),
        "seed": seed,
        "checks": [CheckRequest(kind, **fields) for kind, fields in checks],
        "strict": strict,
        "out": out,
        "breadth": breadth,
    }


def _derive_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _parse_config(obj)


def _make_out_dir(name: str, out_dir: str) -> list[str]:
    """Make the report directory, as writing the report would, and reject
    a report it cannot take: a NUL in its name or directory, a directory
    that cannot be made (a file stands there), or a file name longer than
    the directory allows (255 bytes where that cannot be read).  Returns
    the directories it made, deepest first."""
    where = f"cannot write report {name!r} under {out_dir!r}"
    _require("\0" not in name and "\0" not in out_dir,
             f"{where}: a path holds a NUL")
    made, missing = [], os.path.abspath(out_dir)
    while not os.path.exists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(out_dir, exist_ok=True)
        size = max(len(os.fsencode(os.path.basename(path)))
                   for path in report_paths(name, out_dir))
    except (OSError, ValueError) as exc:  # ValueError: a lone surrogate
        raise ConfigError(f"{where}: {exc}") from exc
    try:
        limit = os.pathconf(out_dir, "PC_NAME_MAX")
    except (OSError, ValueError):
        limit = 255
    _require(size <= limit,
             f"{where}: a file name of {size} bytes, past the {limit} the "
             f"directory allows")
    return made


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    seed = (cfg["seed"] if args.seed is None
            else _integer(args.seed, "--seed", minimum=0))
    breadth = (cfg["breadth"] if args.breadth is None
               else _breadth(args.breadth, "--breadth"))
    strict = args.strict or cfg["strict"]
    out_dir = args.out if args.out is not None else cfg["out"]

    T = build_map(cfg["map_name"], cfg["map_params"], breadth=breadth)
    if cfg["domain"] is not None:
        domain = _domain_from_obj(cfg["domain"], breadth)
        _require(T.norm.allows_tail or not domain.carries_tail,
                 f"a {domain.kind} domain with nonzero tails does not fit "
                 f"{T.name}, whose {T.norm.label()} norm needs tail 0")
        # the map's own definition checks decide whether the override fits
        for x in domain.canonical_points():
            try:
                T.apply(x)
            except HolderLabError as exc:
                raise ConfigError(
                    f"a {domain.kind} domain does not fit {T.name}: its point "
                    f"{format_vec(x)} is outside the map's definition "
                    f"({exc})") from exc
        T = replace(T, domain=domain)

    # before a check spends its budget; a run that stops in a check leaves
    # no directory behind
    made = _make_out_dir(cfg["name"], out_dir)
    try:
        records = [run_check(T, req, _derive_seed(seed, index))
                   for index, req in enumerate(cfg["checks"])]
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise

    report = VerificationReport(
        name=cfg["name"],
        map_name=cfg["map_name"],
        map_params=cfg["map_params"],
        seed=seed,
        strict=strict,
        checks=records,
    )
    try:
        json_path, summary_path = write_report(report, out_dir)
    except (OSError, ValueError) as exc:  # say, a directory it may not write
        raise ConfigError(f"cannot write report {report.name!r} under "
                          f"{out_dir!r}: {exc}") from exc
    sys.stdout.write(report.summary)
    print(f"report: {json_path}")
    print(f"summary: {summary_path}")
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def _schema(entry) -> str:
    return (", ".join(f"{p.name}={p.default!r}" for p in entry.params)
            or "no parameters")


def _cmd_list(_args: argparse.Namespace) -> int:
    print("catalog maps:")
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        inst = entry.factory()
        oracle = ("  [closed-form iterates]"
                  if inst.iterate_oracle is not None else "")
        print(f"  {name}  ({_schema(entry)}){oracle}")
        print(f"      {entry.summary}")
        print(f"      {inst.formula}")
    print()
    print("retractions (addressable as map names in configs):")
    for name in sorted(RETRACTION_CATALOG):
        entry = RETRACTION_CATALOG[name]
        print(f"  {name}  ({_schema(entry)})")
        print(f"      {entry.summary}")
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace) -> int:
    T = build_map(args.name)
    entry = CATALOG.get(args.name) or RETRACTION_CATALOG[args.name]
    claims = T.claims
    print(f"name: {T.name}")
    print(f"summary: {entry.summary}")
    print(f"formula: {T.formula}")
    print(f"domain: {T.domain.describe()}")
    print(f"norm: {T.norm.label()}")
    if entry.params:
        print("parameters:")
        for p in entry.params:
            print(f"  {p.name} = {p.default!r}  ({p.constraint})")
    else:
        print("parameters: none")
    print("claims:")
    print(f"  exponent alpha = {claims.alpha!r}")
    uniform = "uniform over iterates" if claims.uniform else "single application"
    print(f"  holder constant = {claims.holder_constant!r}  ({uniform})")
    if claims.classical_lipschitz is not None:
        print(f"  classical lipschitz = {claims.classical_lipschitz!r}")
    if claims.asymptotic_profile is not None:
        profile = ", ".join(
            f"n={n}: {claims.asymptotic_profile(n):.6g}" for n in (1, 2, 5, 10)
        )
        print(f"  asymptotic profile: {profile}")
    if claims.displacement_bound is not None:
        print(f"  displacement bound = {claims.displacement_bound!r}")
    if claims.lower_bound is not None:
        print(f"  expansion floor (report-only) = {claims.lower_bound!r}")
    if not claims.hard:
        print("  (claims are report-only: measured, never hard-failed)")
    fps = claims.fixed_points
    if fps.kind == "singleton":
        residual = (f" (truncation residual {fps.residual!r})"
                    if fps.residual else "")
        print(f"  fixed points: singleton {fps.point}{residual}")
    elif fps.kind == "empty":
        print("  fixed points: none")
    else:
        print("  fixed points: not pinned down")
    if T.iterate_oracle is not None:
        print("oracle: closed-form iterates available (oracle_compare)")
    if T.notes:
        print(f"notes: {T.notes}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description=("Measure Holder constants, invariance and minimal "
                     "displacement for the bundled catalog of sequence-space "
                     "self-maps."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--strict", action="store_true",
                       help="report-only findings also fail the run")
    p_run.add_argument("--out", default=None,
                       help="directory for report files (default: config "
                            "'out' field, then current directory)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
    p_run.add_argument("--breadth", type=int, default=None,
                       help="override the domain truncation breadth")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list catalog maps and retractions")
    p_list.set_defaults(func=_cmd_list)

    p_desc = sub.add_parser("describe",
                            help="print one map's construction sheet")
    p_desc.add_argument("name")
    p_desc.set_defaults(func=_cmd_describe)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except HolderLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
