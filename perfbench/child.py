"""One measured process: import jetfibers from the checkout and run commands.

    python3 perfbench/child.py SPAWN_TIME TRACE COMMANDS_JSON

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s covers interpreter start-up
and the import of jetfibers.cli.  TRACE is "off", "spans" (time the traced
functions) or "counts" (only count the hottest kernel primitives); see
perfbench/tracing.py.  COMMANDS_JSON is a JSON list of argument lists for
jetfibers.cli.main, or [] to stop after the import.  The last line on
standard output is one JSON object with the timings, the speed probe's
scale, the peak RSS and every command's exit code and output.
"""

import os
import signal
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROBE_PERIOD_S = 0.125
# About what one probe took on the 2-vCPU Xeon VM the benchmark was built on,
# so that a reference second reads close to a second there.
PROBE_REF_S = 0.0005


class SpeedProbe:
    """Times a fixed loop of dict and integer work on this process's CPU.

    The loop allocates no container, so it never triggers the collector and
    its time does not depend on the heap of the code under test.  It runs
    from a SIGALRM handler while the measured code runs, and its own time
    is taken out of the measured time."""

    def __init__(self):
        self.table = {(i & 31, i >> 5): 0 for i in range(1024)}
        self.keys = list(self.table)
        self.samples: list[float] = []

    def __call__(self, *_signal_args) -> None:
        start = time.perf_counter()
        table = self.table
        for _ in range(2):
            for i, key in enumerate(self.keys):
                table[key] = table[key] + i * i % 7
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Stop probing; return the time the probes took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:  # the measured code ended before the first probe
            self()
            return 0.0
        return sum(self.samples)

    def scale(self) -> float:
        """Reference seconds per measured second."""
        samples = sorted(self.samples)
        return PROBE_REF_S / samples[len(samples) // 2]


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.  Not ru_maxrss: Linux
    carries the parent's resident set at the fork across the exec into it."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    spawned = float(sys.argv[1])
    sys.path.insert(0, SRC)
    import jetfibers.cli as cli

    setup_s = time.monotonic() - spawned
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"jetfibers was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import contextlib
    import io
    import json
    import traceback

    import jetfibers

    trace = sys.argv[2]
    commands = json.loads(sys.argv[3])
    tracer = None
    if trace != "off":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(counts_only=trace == "counts")
    probe = SpeedProbe()
    if trace == "off":
        probe.start()
    runs = []
    try:
        start = time.perf_counter()
        for argv in commands:
            t0 = time.perf_counter()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(list(argv))
                except Exception:  # a crash is a failed check, not a harness error
                    traceback.print_exc()
                    code = None
            runs.append(
                {
                    "argv": argv,
                    "exit_code": code,
                    "seconds": time.perf_counter() - t0,
                    "output": out.getvalue(),
                }
            )
        wall_s = time.perf_counter() - start
    finally:
        probed_s = probe.stop()
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s - probed_s if commands else None,
        "wall_scale": probe.scale(),
        "probes": len(probe.samples),
        "peak_rss_mb": _peak_rss_mb(),
        "backend": jetfibers.BACKEND,
        "jetfibers_pure": bool(os.environ.get("JETFIBERS_PURE")),
        "runs": runs,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
