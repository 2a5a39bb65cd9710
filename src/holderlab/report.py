"""Assemble check results into a JSON report plus a plain-text summary.

Reports are deterministic for a fixed (map, params, seed, checks) apart
from the generated_at timestamp and per-check runtimes; canonical_bytes
strips exactly those fields so byte comparison works.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

from .verify import CheckRecord

__all__ = [
    "SCHEMA_VERSION",
    "VerificationReport",
    "canonical_bytes",
    "report_paths",
    "write_report",
]

SCHEMA_VERSION = 1


@dataclass
class VerificationReport:
    name: str
    map_name: str
    map_params: dict
    seed: int
    strict: bool
    checks: list[CheckRecord]
    generated_at: str = ""

    def __post_init__(self) -> None:
        if not self.generated_at:
            self.generated_at = datetime.now(timezone.utc).isoformat()

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "report_only": 0}
        for rec in self.checks:
            out[rec.verdict] += 1
        return out

    @property
    def failed(self) -> bool:
        """True when the report should be treated as a failure: any hard
        fail, or any non-pass at all under strict."""
        counts = self.counts()
        if counts["fail"]:
            return True
        return self.strict and counts["report_only"] > 0

    def to_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "generated_at": self.generated_at,
            "map": {"name": self.map_name, "params": self.map_params},
            "seed": self.seed,
            "strict": self.strict,
            "counts": self.counts(),
            "checks": [dict(vars(rec)) for rec in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"

    @functools.cached_property
    def summary(self) -> str:
        """The plain-text summary, rendered on first use: build a new report
        rather than change one."""
        counts = self.counts()
        lines = [
            f"verification summary: {self.name}",
            f"map: {self.map_name}  params: "
            + (json.dumps(self.map_params, sort_keys=True)
               if self.map_params else "(defaults)"),
            f"seed: {self.seed}  strict: {'yes' if self.strict else 'no'}",
            f"checks: {len(self.checks)}  pass: {counts['pass']}  "
            f"fail: {counts['fail']}  report_only: {counts['report_only']}",
            "-" * 72,
        ]
        for rec in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL",
                   "report_only": "INFO"}[rec.verdict]
            lines.append(
                f"[{tag}] {rec.kind:<20} claimed={_fmt(rec.claimed):<24} "
                f"measured={_fmt(rec.measured)}"
            )
            lines.append(f"       {rec.direction}")
            if rec.verdict == "fail" and rec.witness:
                lines.append(f"       witness: {rec.witness}")
        return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_bytes(report_json: str | bytes) -> bytes:
    """Report bytes with the run-dependent fields removed.

    Two runs of the same configuration agree on this value exactly."""
    obj = json.loads(report_json)
    obj.pop("generated_at", None)
    for rec in obj.get("checks", ()):
        rec.pop("runtime_ms", None)
    return json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_paths(name: str, out_dir: str) -> tuple[str, str]:
    """The paths of <name>.report.json and <name>.summary.txt under
    out_dir."""
    return (os.path.join(out_dir, f"{name}.report.json"),
            os.path.join(out_dir, f"{name}.summary.txt"))


def write_report(report: VerificationReport, out_dir: str) -> tuple[str, str]:
    """Write the report and its summary at report_paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path, summary_path = report_paths(report.name, out_dir)
    _atomic_write(json_path, report.to_json())
    _atomic_write(summary_path, report.summary)
    return json_path, summary_path
