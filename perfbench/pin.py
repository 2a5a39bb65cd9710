"""Record or check the pinned verdicts and exit codes in expected.json.

    python3 perfbench/pin.py --seeds 1 2 3 4 5 --write   # record the pins
    python3 perfbench/pin.py --seeds 101 102             # check held-out seeds

Runs one untimed pass of every workload per seed, at full scale and at the
smoke test's tiny scale, and collects the exit code of every config and the
verdict of every check, keyed as expected.json keys them.  A value that
differs between seeds or scales is pinned as the list of values seen, and
reported as seed-dependent.  Without --write, every observation is compared
with expected.json and the command exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads

SMOKE_SCALE = 0.05


def observe_workload(main, workload: str, seed: int, scale: float,
                     work: str) -> dict[str, tuple]:
    configs = workloads.GENERATORS[workload](seed, scale)
    shutil.rmtree(work, ignore_errors=True)
    paths = run.write_configs(configs, os.path.join(work, "configs"))
    out_dir = os.path.join(work, "out")
    _, _, outcomes = run.run_pass(main, paths, out_dir)
    seen: dict[str, set] = {}
    for cfg, outcome in zip(configs, outcomes):
        code, verdicts, _ = run.observe(cfg, outcome, out_dir)
        seen.setdefault(cfg.key, set()).add(
            (code, None if verdicts is None else tuple(verdicts)))
    return seen


def merge(observations: set) -> dict:
    """One pin from every (exit, verdicts) seen for a key."""
    def pin(values):
        values = sorted(set(values), key=str)
        return values[0] if len(values) == 1 else values

    codes = [code for code, _ in observations]
    lists = [v for _, v in observations]
    if any(v is None for v in lists):
        verdicts = None
    else:
        verdicts = [pin(column) for column in zip(*lists)]
    return {"exit": pin(codes), "verdicts": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--write", action="store_true",
                        help="write expected.json instead of checking it")
    args = parser.parse_args(argv)
    holderlab = run.import_holderlab()
    work = os.path.join(run.RUN_DIR, f"pin-{os.getpid()}")
    observed: dict[str, dict[str, set]] = {w: {} for w in workloads.WORKLOADS}
    try:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                for scale in (1.0, SMOKE_SCALE):
                    seen = observe_workload(holderlab.cli.main, workload,
                                            seed, scale, work)
                    for key, obs in seen.items():
                        observed[workload].setdefault(key, set()).update(obs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pins = {w: {k: merge(v) for k, v in sorted(keys.items())}
            for w, keys in observed.items()}
    for workload, keys in pins.items():
        for key, pin in keys.items():
            varying = isinstance(pin["exit"], list) or any(
                isinstance(v, list) for v in pin["verdicts"] or ())
            if varying:
                print(f"seed-dependent: {workload}/{key}: {pin}")
    if args.write:
        with open(run.EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {run.EXPECTED}")
        return 0

    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    mismatches = 0
    for workload, keys in observed.items():
        for key, obs in keys.items():
            pin = expected[workload].get(key)
            for code, verdicts in obs:
                ok = pin is not None and run.pin_matches(pin, code, verdicts)
                if not ok:
                    mismatches += 1
                    print(f"MISMATCH {workload}/{key}: exit {code}, "
                          f"verdicts {verdicts}, pinned {pin}")
    print(f"checked seeds {args.seeds}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
