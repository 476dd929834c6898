"""Fast self-test of the benchmark harness, at small sizes.

    python3 -m pytest -q perfbench/test_harness.py
"""

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from checks import Checker

SMALL = {
    "an-verify": (("an", "verify", "--n", "2", "--m", "5", "--format", "json"),),
    "d4-verify": (("d4", "verify", "--m", "5", "--format", "json"),),
    "jet-expand": (("expand", "x*y-z^5", "--m", "8", "--format", "json"),),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_twice(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_SAMPLES", 2)
        return [run.run_session(SMALL[request.param], 0, True) for _ in range(2)]


def test_traced_runs_report_every_layer_metric(traced_twice):
    for session in traced_twice:
        result = session["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(run.PER_LAYER)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == run.PER_LAYER[name]
            assert isinstance(metric["value"], (int, float))


def test_self_time_within_total_time(traced_twice):
    layers = traced_twice[0]["record"]["layers"]
    spans = [name[: -len(".self_s")] for name in layers if name.endswith(".self_s")]
    assert spans
    for span in spans:
        assert 0 <= layers[f"{span}.self_s"] <= layers[f"{span}.s"] + 1e-9, span


def test_deterministic_counters_repeat(traced_twice):
    first, second = (s["result"]["metrics"] for s in traced_twice)
    for name in run.DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


def test_untraced_run_reports_end_to_end_metrics(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    result = run.run_session(SMALL["jet-expand"], 0, False)["result"]
    assert result["correct"]
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_probe_samples_while_code_runs_and_reports_its_own_time():
    from child import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    deadline = time.perf_counter() + 0.5
    while time.perf_counter() < deadline:
        pass
    probed_s = probe.stop()
    assert len(probe.samples) >= 2
    assert probed_s == sum(probe.samples) > 0
    assert probe.scale() > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize(
    "counts_only, bindings, counters",
    [
        (
            False,
            [("an", "jet_coeffs"), ("jets", "substitute_series"), ("groebner.GroebnerBasis", "reduce")],
            ["jets.substitute_series.calls", "groebner.GroebnerBasis.reduce.calls"],
        ),
        (True, [("kernel.impl", "mono_cmp")], ["kernel.mono_cmp.calls"]),
    ],
)
def test_tracer_rebinds_callers_names_and_restores(monkeypatch, counts_only, bindings, counters):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    import jetfibers
    from jetfibers import an, cli, groebner, jets, kernel  # noqa: F401  (bound as attributes)

    from tracing import Tracer

    bindings = [(functools.reduce(getattr, path.split("."), jetfibers), attr) for path, attr in bindings]
    originals = [getattr(o, attr) for o, attr in bindings]
    tracer = Tracer()
    tracer.install(counts_only=counts_only)
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(bindings, originals))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(SMALL["an-verify"][0])) == 0
    finally:
        tracer.restore()
    assert all(getattr(o, a) is f for (o, a), f in zip(bindings, originals))
    layers = tracer.metrics()
    for name in counters:
        assert layers[name] > 0, name


def _expand_output(coefficients):
    return json.dumps({"config": {"f": "x*y-z^5", "m": 2}, "coefficients": coefficients})


def test_checker_rejects_wrong_outputs():
    good = [
        "x0*y0 - z0^5",
        "x1*y0 + x0*y1 - 5*z0^4*z1",
        "x2*y0 + x1*y1 + x0*y2 - 10*z0^3*z1^2 - 5*z0^4*z2",
    ]
    argv = ["expand", "x*y-z^5", "--m", "2", "--format", "json"]
    checker = Checker()
    checker.check(argv, 0, _expand_output(good))
    assert (checker.attempted, checker.failed) == (4, 0)

    wrong = good[:2] + ["x2*y0 + x1*y1 + x0*y2 - 10*z0^3*z1^2 - 4*z0^4*z2"]
    checker.check(argv, 0, _expand_output(wrong))
    assert checker.failed == 2  # the coefficient, and the output changed within the session

    refuted = json.dumps({"reports": [{"outcome": "verified"}, {"outcome": "refuted"}]})
    checker = Checker()
    checker.check(["an", "verify"], 2, refuted)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "jet-expand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
