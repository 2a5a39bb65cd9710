"""holderlab benchmark: config workloads through `holderlab run`, in process.

    python3 perfbench/run.py --workload sampled_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; holderlab is imported from its `src/`.  The
workload's configs are generated from `--seed` and written under
`.perfbench_run/`.  One pass calls `holderlab.cli.main(["run", config,
"--out", dir])` for each config in turn, in this process and thread, as one
closed-loop caller.

With `--trace 0` passes repeat for `--seconds` (at least three) and the
end-to-end metrics are printed.  With `--trace 1` untraced passes fill half
of `--seconds`, then one pass runs with every module's entry points wrapped
in spans (see tracing.py) and the per-layer metrics are printed.  Every pass is
checked against the pinned verdicts and exit codes in expected.json, and
canonical report bytes must repeat exactly across the passes of a run.

The last line of standard output is the result object; the line before it
carries the run environment and the sample counts.  README.md has the
rationale for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_PASSES = 3
SETUP_REPEATS = 9
RUN_CAP_S = 120.0  # stop adding passes past this, whatever --seconds says

import workloads  # noqa: E402  (sibling module; HERE is sys.path[0])


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def import_holderlab():
    if not os.path.isfile(os.path.join(SRC, "holderlab", "__init__.py")):
        raise BenchError(f"no holderlab package under {SRC}")
    sys.path.insert(0, SRC)
    import holderlab.cli

    if not os.path.abspath(holderlab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported holderlab from {holderlab.__file__}, "
                         f"not from {SRC}")
    return holderlab


def write_configs(configs, config_dir: str) -> list[str]:
    os.makedirs(config_dir)
    paths = []
    for cfg in configs:
        path = os.path.join(config_dir, cfg.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cfg.text)
        paths.append(path)
    return paths


def measure_setup(config_dir: str) -> list[float]:
    """First import plus parse and build_map, in fresh interpreters run one
    after another."""
    child = os.path.join(HERE, "setup_child.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, child, ROOT, config_dir],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            raise BenchError(f"set-up run failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(main, paths: list[str], out_dir: str):
    """One pass over the configs.  Returns the pass wall time, per-config
    latencies and per-config (exit code, error) outcomes."""
    latencies, outcomes = [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        clock = time.perf_counter
        t_pass = clock()
        for path in paths:
            t0 = clock()
            try:
                outcomes.append((main(["run", path, "--out", out_dir]), None))
            except SystemExit as exc:
                outcomes.append((exc.code, None))
            except Exception as exc:  # counted as a failed config
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
            latencies.append(clock() - t0)
        wall = clock() - t_pass
    return wall, latencies, outcomes


def _allowed(pin, value) -> bool:
    return value in pin if isinstance(pin, list) else value == pin


def pin_matches(pin: dict, code, verdicts) -> bool:
    """Whether an exit code and verdict list meet a pin; a pinned list means
    any of its values (a seed-dependent outcome)."""
    want = pin["verdicts"]
    if not _allowed(pin["exit"], code) or (want is None) != (verdicts is None):
        return False
    return verdicts is None or (len(want) == len(verdicts)
                                and all(map(_allowed, want, verdicts)))


def observe(cfg, outcome, out_dir: str):
    """(exit code, verdicts, canonical report bytes) of one config run."""
    from holderlab.report import canonical_bytes

    code, error = outcome
    if error is not None:
        raise RuntimeError(error)
    report = os.path.join(out_dir, cfg.name + ".report.json")
    if code not in (0, 5):
        return code, None, None
    with open(report, encoding="utf-8") as fh:
        text = fh.read()
    verdicts = [check["verdict"] for check in json.loads(text)["checks"]]
    return code, verdicts, canonical_bytes(text)


class Gate:
    """The correctness gate: every config run must meet its pin, and its
    canonical report bytes must repeat those of the run's first pass."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.first_bytes: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, configs, outcomes, out_dir: str) -> None:
        for cfg, outcome in zip(configs, outcomes):
            self.attempted += 1
            try:
                code, verdicts, canon = observe(cfg, outcome, out_dir)
                pin = self.expected.get(cfg.key)
                if pin is None or not pin_matches(pin, code, verdicts):
                    raise RuntimeError(f"exit {code}, verdicts {verdicts}; "
                                       f"pinned {pin}")
                if canon is not None and self.first_bytes.setdefault(
                        cfg.name, canon) != canon:
                    raise RuntimeError("canonical report bytes changed "
                                       "between passes")
            except (RuntimeError, OSError, ValueError, KeyError,
                    TypeError) as exc:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{cfg.name}: {exc}")


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _git_head():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(holderlab) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "holderlab": getattr(holderlab, "__version__", None),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_head": _git_head()}


def bench(args) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    load_start = _loadavg()
    holderlab = import_holderlab()
    env = environment(holderlab)
    env["loadavg_start"] = load_start
    configs = workloads.GENERATORS[args.workload](args.seed, args.scale)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = write_configs(configs, os.path.join(work, "configs"))
        out_dir = os.path.join(work, "out")
        setup = measure_setup(os.path.join(work, "configs"))
        main = holderlab.cli.main

        gate = Gate(expected)
        walls, latencies = [], []
        budget = args.seconds / 2 if args.trace else args.seconds
        min_passes = 1 if args.trace else MIN_PASSES
        t0 = time.perf_counter()
        while True:
            wall, lat, outcomes = run_pass(main, paths, out_dir)
            walls.append(wall)
            latencies.extend(lat)
            gate.check(configs, outcomes, out_dir)
            elapsed = time.perf_counter() - t0
            if len(walls) >= min_passes and (elapsed + wall > budget
                                             or elapsed > RUN_CAP_S):
                break

        details = {"workload": args.workload, "seed": args.seed,
                   "scale": args.scale, "configs": len(configs),
                   "passes": len(walls), "pass_walls_s": walls,
                   "setup_samples_s": setup,
                   "config_latency_samples": len(latencies)}
        if args.trace:
            from tracing import Tracer, instrument, layer_metrics

            tracer = Tracer()
            patches, counters = instrument(tracer)
            try:
                traced_main = tracer.wrap("cli.main", main)
                wall, _, outcomes = run_pass(traced_main, paths, out_dir)
            finally:
                patches.restore()
            gate.check(configs, outcomes, out_dir)
            metrics, shares = layer_metrics(tracer, counters, wall,
                                            statistics.median(walls))
            spans = os.path.join(RUN_DIR, f"spans-{args.workload}.npz")
            tracer.write(spans)
            details.update(traced_wall_s=wall, spans=len(tracer.end),
                           spans_file=os.path.relpath(spans, ROOT),
                           self_time_shares=shares)
        else:
            ms = [v * 1000.0 for v in latencies]
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "config_ms_p50": {"value": statistics.median(ms),
                                  "unit": "ms"},
                "config_ms_p90": {"value": statistics.quantiles(ms, n=10)[8],
                                  "unit": "ms"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF)
                    .ru_maxrss / 1024.0, "unit": "MB"},
                "ok_share": {"value": 1.0 - gate.failed / gate.attempted,
                             "unit": "ratio"},
            }
            details["samples_beyond_p90"] = sum(v > metrics["config_ms_p90"]
                                                ["value"] for v in ms)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_end"] = _loadavg()
    details.update(environment=env,
                   failed_share=gate.failed / gate.attempted,
                   problems=gate.problems, run_s=time.perf_counter() - t_start)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every budget (smoke test only)")
    args = parser.parse_args(argv)
    try:
        result, details = bench(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    record = os.path.join(RUN_DIR,
                          f"result-{args.workload}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=2)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
