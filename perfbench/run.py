"""End-to-end and per-layer benchmark of the jetfibers command line.

    python3 perfbench/run.py --workload an-verify --seed 1 --seconds 30 --trace 0

Every measured iteration is a fresh process (perfbench/child.py) that
imports jetfibers from ./src and calls jetfibers.cli.main with the
workload's commands, the way a user's command runs.  Iterations repeat,
one after another, while the next one is expected to end within --seconds;
at least one runs.  The seed fixes the order of the workload's commands
inside each process; the commands and their parameters are fixed.

--trace 0 reports the end-to-end metrics: medians over the iterations.
Their times are in reference seconds: the machine this was built on
changes speed by half or more within minutes, so each measured process
times a fixed speed probe on its own CPU while its commands run
(perfbench/child.py), and its wall time is scaled by the probe's reference
time over the probe's measured time.  setup_s is scaled by the median of
those scales.  The record line keeps the unscaled samples and the scales.
--trace 1 measures the same way, then makes two more iterations with the
functions of each layer wrapped from outside (perfbench/tracing.py): one
that times the spans and one that only counts the hottest kernel
primitives, so that the counting does not inflate the span times.  It
reports the per-layer metrics of those two traced iterations.

Every output is checked outside the timed region (perfbench/checks.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the backend, the
interpreter, the commit and the samples behind each median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 20  # import-only processes per run, half before and half after the iterations


WORKLOADS = {
    "an-verify": tuple(("an", "verify", "--n", str(n), "--m", "7", "--format", "json") for n in (2, 4)),
    "d4-verify": tuple(("d4", "verify", "--m", str(m), "--format", "json") for m in (5, 6, 7, 8)),
    "jet-expand": (("expand", "x*y-z^5", "--m", "40", "--format", "json"),),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _calls_and(time_key, *names):
    """'<name>.calls' and '<name>.<time_key>' for each span name."""
    return {f"{n}.{k}": u for n in names for k, u in (("calls", "count"), (time_key, "s"))}


PER_LAYER = {
    **_calls_and("s", "cli.main"),
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.s": "s",
    "groebner.buchberger.self_s": "s",
    "groebner.buchberger.repeat_share": "share",
    "groebner.spairs": "count",
    "groebner.basis_size.max": "count",
    **_calls_and(
        "s",
        "groebner.member",
        "groebner.radical_member",
        "groebner.saturate",
        "groebner.linear_presolve",
        "groebner.ideal_intersect_elim",
        "groebner.krull_dim",
        "groebner.GroebnerBasis.reduce",
    ),
    "kernel.normal_form.spoly.calls": "count",
    "kernel.normal_form.spoly.zero_share": "share",
    "kernel.normal_form.member.calls": "count",
    "kernel.normal_form.s": "s",
    "kernel.mono_cmp.calls": "count",
    "kernel.mono_deg.calls": "count",
    "kernel.mono_div.calls": "count",
    **_calls_and("s", "kernel.mul_terms", "jets.expand_ambient", "jets.substitute_series"),
    "jets.jet_coeffs.s": "s",
    "jets.jet_coeffs.hits": "count",
    "jets.jet_coeffs.misses": "count",
    **_calls_and("s", "poly.format_polynomial"),
    "d4.d4_ideals.calls": "count",
    **_calls_and(
        "self_s",
        "d4.witness_checks",
        "d4.verify_coordinate_lemma",
        "d4.verify_component_ideals",
        "d4.d4_maximal_intersections",
    ),
    **_calls_and("s", "an.verify_decomposition"),
    "cli.reports": "count",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}

# Counters that depend only on the code and the inputs, never on timing.
DETERMINISTIC = (
    "groebner.spairs",
    "groebner.buchberger.calls",
    "groebner.buchberger.repeat_share",
    "kernel.normal_form.spoly.calls",
    "kernel.normal_form.spoly.zero_share",
    "kernel.mono_cmp.calls",
    "kernel.mono_deg.calls",
    "kernel.mono_div.calls",
    "d4.d4_ideals.calls",
    "cli.output_bytes",
)


class HarnessError(RuntimeError):
    pass


def _spawn(commands, trace: str = "off") -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), repr(spawned), trace, json.dumps(commands)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"measured process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_session(commands, seconds: float, trace: bool) -> dict:
    """Measure the command list; return the result line and the record line."""
    checker = Checker()
    _spawn([])  # warm-up: file cache, and the bytecode cache where Python writes one
    imports = [_spawn([]) for _ in range(SETUP_SAMPLES // 2)]
    iterations = []
    started = time.monotonic()
    while True:
        iterations.append(_spawn(commands))
        elapsed = time.monotonic() - started
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    imports += [_spawn([]) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    traced = [_spawn(commands, mode) for mode in ("spans", "counts")] if trace else []

    for it in iterations + traced:
        for r in it["runs"]:
            checker.check(r["argv"], r["exit_code"], r["output"])
    setup = [it["setup_s"] for it in imports + iterations]
    walls = [it["wall_s"] for it in iterations]
    wall_scales = [it["wall_scale"] for it in iterations]
    if trace:
        spans, counts = traced
        layers = {**spans["layers"], **counts["layers"]}
        layers["cli.reports"] = sum(
            len(json.loads(r["output"]).get("reports", ())) for r in spans["runs"] if r["exit_code"] == 0
        )
        layers["cli.output_bytes"] = sum(len(r["output"].encode()) for r in spans["runs"])
        layers["trace.overhead_s"] = spans["wall_s"] - statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(t * k for t, k in zip(walls, wall_scales)),
            "setup_s": statistics.median(setup) * statistics.median(wall_scales),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    first = iterations[0]
    record = {
        "backend": first["backend"],
        "jetfibers_pure": first["jetfibers_pure"],
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "argv": sys.argv,
        "commands": [list(c) for c in commands],
        "iterations": len(iterations),
        "wall_s_samples": walls,
        "setup_s_samples": setup,
        "wall_scales": wall_scales,
        "probes": [it["probes"] for it in iterations],
        "command_s_samples": [[r["seconds"] for r in it["runs"]] for it in iterations],
        "problems": checker.problems,
        "layers": layers if trace else None,
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    commands = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(commands)
    try:
        out = run_session(commands, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
