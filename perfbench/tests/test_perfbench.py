"""Tests of the benchmark's own arithmetic, on a tiny synthetic workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, patched, self_times, totals_by_name  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS, LatticeFile, LatticeScan  # noqa: E402


# -- summaries ------------------------------------------------------------------

def test_median_and_sample_count():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
    # the tail percentile needs ten samples beyond it, above the median
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)


def test_rms_and_relative_error():
    assert stats.rms([3.0, -4.0]) == pytest.approx(math.sqrt(12.5))
    assert stats.relative_error(99.0, -100.0) == pytest.approx(1.99)


# -- spans ----------------------------------------------------------------------

def test_self_time_from_nested_spans():
    # estimate [0, 10] > bounds [0, 1], logdet [1, 9.5] > action [2, 5], action [5, 8]
    spans = [Span("estimate", 0.0, 10.0, None, 0),
             Span("spectral.bounds", 0.0, 1.0, 0, 0),
             Span("logdet", 1.0, 9.5, 0, 0),
             Span("action", 2.0, 5.0, 2, 0),
             Span("action", 5.0, 8.0, 2, 0),
             Span("estimate", 10.0, 11.0, None, 1)]
    own = self_times(spans)
    assert own == pytest.approx([0.5, 1.0, 2.5, 3.0, 3.0, 1.0])
    per = totals_by_name(spans, own, {0})
    assert per == pytest.approx({"estimate": 0.5, "spectral.bounds": 1.0,
                                 "logdet": 2.5, "action": 6.0})
    # the layers of one estimate add up to its span
    assert sum(per.values()) == pytest.approx(spans[0].seconds)


def test_tracer_records_parents_estimate_ids_and_results():
    tr = Tracer()
    seen = []
    double = tr.wrap("inner", lambda x: 2 * x, seen.append)
    tr.estimate = 7
    with tr.span("outer"):
        assert double(3) == 6
    tr.estimate = None
    with tr.span("after"):
        pass
    outer, inner, after = tr.spans
    assert (outer.parent, inner.parent, after.parent) == (None, 0, None)
    assert (outer.estimate, inner.estimate, after.estimate) == (7, 7, None)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert seen == [6]
    assert json.loads(json.dumps(tr.to_json()))[1]["name"] == "inner"


def test_patched_restores_on_error():
    class Mod:
        f = staticmethod(lambda: "orig")
    with pytest.raises(RuntimeError):
        with patched(Mod, {"f": lambda: "wrapped"}):
            assert Mod.f() == "wrapped"
            raise RuntimeError
    assert Mod.f() == "orig"


# -- failure classification -----------------------------------------------------

@pytest.mark.parametrize("estimate, converged, warned, error, expect", [
    (100.5, True, [], None, None),
    (100.5, True, [], "ValueError: boom", "raised"),
    (float("nan"), True, [], None, "non-finite"),
    (None, None, [], None, "non-finite"),
    (100.5, False, [], None, "converged"),
    (100.5, True, ["degree cap"], None, "warning"),
    (102.0, True, [], None, "tolerance"),
])
def test_failure_classification(estimate, converged, warned, error, expect):
    verdict = stats.classify(estimate, converged, warned, exact=100.0, tol=0.01,
                             error=error)
    if expect is None:
        assert verdict is None
    else:
        assert expect in verdict


# -- computed SpMV bytes ----------------------------------------------------------

def test_spmv_bytes():
    # 3x3 tridiagonal: 7 entries, 4 row pointers, x and y of 3
    assert stats.spmv_bytes(3, 7) == 7 * 12 + 4 * 4 + 2 * 3 * 8
    # pentadiagonal n = 10^6 is about 80 MB per product
    penta = stats.spmv_bytes(10**6, 5 * 10**6 - 6)
    assert 79e6 < penta < 81e6
    # lattice g = 300 is about 7 MB
    g = 300
    lattice = stats.spmv_bytes(g * g, g * g + 4 * g * (g - 1))
    assert 7.0e6 < lattice < 7.4e6


# -- seeds and the workload table -------------------------------------------------

def test_seeds_are_pure_functions_of_the_benchmark_seed():
    a = [run.derive_seed(5, run.ESTIMATE_STREAM, k) for k in range(4)]
    assert a == [run.derive_seed(5, run.ESTIMATE_STREAM, k) for k in range(4)]
    assert len(set(a)) == 4
    assert run.derive_seed(6, run.ESTIMATE_STREAM, 0) != a[0]
    assert run.derive_seed(5, run.MATRIX_STREAM) != a[0]


def test_workloads_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]


# -- a tiny synthetic workload, end to end -----------------------------------------

class TinyFile(LatticeFile):
    g, theta = 12, -0.2


class TinyScan(LatticeScan):
    g = 10
    thetas = (-0.2, -0.1)


def tiny(cls, **kw):
    # the Monte Carlo error of a 144-unknown lattice is tens of percent
    base = dict(name="tiny", why="test", tol=5.0, spread="",
                min_estimates=3)
    base.update(kw)
    return cls(**base)


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(tmp_path, trace):
    r = run.Run(tiny(TinyFile), seed=3, seconds=0.05, trace=trace, workdir=tmp_path)
    r.setup()
    r.measure()
    assert list(tmp_path.iterdir()) == []            # the Matrix Market file is removed
    assert len(r.setup_spans) == run.SETUPS
    assert len(r.records) >= 3
    assert all(rec["failure"] is None for rec in r.records)
    assert r.checks()["determinism"] and r.checks()["warmup_passed"]
    e2e = r.end_to_end()
    assert set(e2e) == set(run.END_TO_END)
    assert e2e["matvecs_per_estimate"] == r.records[0]["matvecs"]
    if trace:
        layers = r.per_layer()
        assert layers["sparse.mm_write_s"] > 0 and layers["sparse.mm_read_s"] > 0
        assert layers["action.calls"] == 12
        assert layers["trace.coverage"] == pytest.approx(1.0, abs=0.05)
        assert layers["action.glue_s"] == pytest.approx(
            layers["action.s"] - layers["action.spmv_s"])
        # the wrappers are gone once the traced phase ends
        assert sys.modules["lejadet.logdet"].log_matvec.__module__ == "lejadet.action"


def test_tiny_run_counts_misses_as_failures(tmp_path):
    r = run.Run(tiny(TinyFile, tol=1e-12), seed=3, seconds=0.01, trace=False,
                workdir=tmp_path)
    r.setup()
    r.measure()
    assert all("tolerance" in rec["failure"] for rec in r.records)
    assert "tolerance" in r.warm["failure"]
    assert r.checks()["determinism"] and not r.checks()["warmup_passed"]


def test_tiny_scan_ends_on_a_sweep_and_shares_its_seed(tmp_path):
    wl = tiny(TinyScan, min_estimates=2, block=2)
    r = run.Run(wl, seed=0, seconds=0.01, trace=False, workdir=tmp_path)
    r.setup()
    r.measure()
    assert len(r.records) % 2 == 0
    assert r.records[0]["seed"] == r.records[1]["seed"]
    assert [rec["matrix"] for rec in r.records[:2]] == [0, 1]
    assert [rec["exact"] for rec in r.records[:2]] == r.exact


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "penta-1e6",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
