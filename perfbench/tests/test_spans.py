"""Tests of the benchmark's span recorder, wrappers and result check.

    python3 -m pytest -q perfbench/tests

Run from the repository root.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from mpmath import mp  # noqa: E402

import run  # noqa: E402
import zetamoments.cli  # noqa: E402,F401
import zetamoments.moments  # noqa: E402,F401
from spans import TARGETS, Recorder, instrument  # noqa: E402
from zetamoments import symseries, zeta_numerics  # noqa: E402
from zetamoments.symseries import EMPTY_KEY, POWERSUM, PairSeries  # noqa: E402


def _bound_targets():
    out = {}
    for modname, mod in sys.modules.items():
        if mod is None or not modname.startswith("zetamoments"):
            continue
        for _, attr, _ in TARGETS:
            if hasattr(mod, attr):
                out[(modname, attr)] = getattr(mod, attr)
    return out


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_wrappers_restored_after_traced_run():
    before = _bound_targets()
    rec = Recorder()
    with instrument(rec):
        during = _bound_targets()
        zeta_numerics.prime_zeta_beyond(2, 1, [2, 3], 10)
    after = _bound_targets()
    assert after == before
    # every place that held an original held a wrapper during the run
    assert all(during[key] is not before[key] for key in before)
    assert rec.spans


def test_wrappers_restored_when_the_call_raises():
    before = _bound_targets()
    with pytest.raises(ValueError):
        with instrument(Recorder()):
            zeta_numerics.prime_zeta_taylor(0, 1)
    assert _bound_targets() == before


def test_host_gauge_takes_its_bursts_out_of_the_clock():
    import signal
    import time

    from gauge import HostGauge

    before = signal.getsignal(signal.SIGALRM)
    with HostGauge() as gauge:
        t0, g0 = time.perf_counter(), gauge.clock()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1, g1, spent = time.perf_counter(), gauge.clock(), gauge.spent
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(gauge.bursts) >= 2
    assert 0 < gauge.gauge_s() < 0.1
    assert g1 - g0 == pytest.approx((t1 - t0) - spent, abs=1e-3)


def test_self_time_is_duration_minus_child_cover():
    # outer [0, 10] holds children [2, 5] and [6, 7]; the first child holds
    # a grandchild [3, 4] of the same name as the outer span
    rec = Recorder(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    with rec.span("a"):
        with rec.span("b"):
            with rec.span("a"):
                pass
        with rec.span("c"):
            pass
    got = rec.summary()
    assert got["a"] == {"s": 10, "self_s": (10 - 3 - 1) + 1, "calls": 2}
    assert got["b"] == {"s": 3, "self_s": 2, "calls": 1}
    assert got["c"] == {"s": 1, "self_s": 1, "calls": 1}


def test_beyond_self_time_excludes_nested_taylor():
    zeta_numerics._compute_prime_zeta.cache_clear()
    rec = Recorder()
    with instrument(rec):
        zeta_numerics.prime_zeta_beyond(3, 2, [2, 3, 5, 7], 20)
    names = [s[0] for s in rec.spans]
    assert names == ["zeta_numerics.prime_zeta_beyond",
                     "zeta_numerics.prime_zeta_taylor"]
    (_, b0, b1, _), (_, t0, t1, parent) = rec.spans
    assert parent == 0 and b0 <= t0 <= t1 <= b1
    got = rec.summary()
    beyond = got["zeta_numerics.prime_zeta_beyond"]
    assert beyond["self_s"] == pytest.approx((b1 - b0) - (t1 - t0), abs=1e-12)
    assert got["zeta_numerics.prime_zeta_taylor"]["calls"] == 1


def test_cache_served_counts_installed_entries_only():
    zeta_numerics._compute_prime_zeta.cache_clear()
    entry = zeta_numerics._compute_prime_zeta(5, 3, 30)
    rec = Recorder()
    zeta_numerics.install_prime_zeta(5, entry)
    try:
        with instrument(rec):
            # the entry holds exactly the digits asked for: still served
            zeta_numerics.prime_zeta_taylor(5, 3, 30)
            zeta_numerics.prime_zeta_taylor(5, 2, 20)
            zeta_numerics.prime_zeta_taylor(5, 3, 40)
    finally:
        zeta_numerics.install_prime_zeta(5, None)
    assert rec.summary()["zeta_numerics.prime_zeta_taylor"]["calls"] == 3
    assert rec.counts["zeta_numerics.prime_zeta_taylor.cache_served"] == 2


def test_series_log_split_by_coefficient_type():
    key = ((1,), (1,))
    exact = PairSeries(POWERSUM, 2, {EMPTY_KEY: 1, key: Fraction(1, 3)})
    with mp.workdps(20):
        big = PairSeries(POWERSUM, 2, {EMPTY_KEY: mp.mpf(1), key: mp.mpf(1) / 3})
    rec = Recorder()
    with instrument(rec):
        symseries.series_log(exact)
        symseries.series_log(big)
        symseries.series_log(exact)
    got = rec.summary()
    assert got["symseries.series_log.exact"]["calls"] == 2
    assert got["symseries.series_log.mp"]["calls"] == 1


PRECALL_SCRIPT = """
import json, sys
sys.path[:0] = [%(src)r, %(bench)r]
import sample
from spans import Recorder
wl = json.loads(sys.argv[1])
rec = Recorder() if sys.argv[2] == "1" else None
got = sample.run_request(wl, sys.argv[3], rec)
print(json.dumps({"coefficients": got, "counts": sample._w_counts(wl["k"])}))
"""


def _request(wl, trace, cache_dir, tmp_path):
    script = tmp_path / "req.py"
    script.write_text(PRECALL_SCRIPT % {
        "src": os.path.join(ROOT, "src"), "bench": BENCH})
    out = subprocess.run(
        [sys.executable, str(script), json.dumps(wl), "1" if trace else "0",
         cache_dir],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("wl", [
    {"kind": "coeffs", "k": 2, "digits": 8, "ns": [2, 1, 0]},
    {"kind": "coeffs", "k": 3, "digits": 12, "ns": [0]},
    {"kind": "cli", "k": 1, "digits": 8, "ns": [0, 1]},
])
def test_w_precall_leaves_results_bit_identical(wl, tmp_path):
    cache_dir = str(tmp_path / "cache")
    if wl["kind"] == "cli":
        subprocess.run(
            [sys.executable, "-m", "zetamoments.cli", "precompute", "--nmax",
             str(max(wl["ns"])), "--digits", str(wl["digits"]), "--cache-dir",
             cache_dir],
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            capture_output=True, cwd=ROOT, timeout=300, check=True)
    plain = _request(wl, False, cache_dir, tmp_path)
    traced = _request(wl, True, cache_dir, tmp_path)
    assert traced == plain
    assert plain["counts"]["moments.r_max_used"] > 0
    assert plain["counts"]["moments.prime_cutoff"] > 0


def _fake_sample(name):
    refs = run.load_refs()
    coeffs = [[int(n), r["value"], r["error"]]
              for n, r in refs["workloads"][name].items()]
    return refs, {"coefficients": coeffs}


@pytest.mark.parametrize("name", ["lead5-k3-d15", "cli-k2-d10-cached"])
def test_check_accepts_references_and_rejects_a_miss(name):
    wl = run.WORKLOADS[name]
    refs, sample = _fake_sample(name)
    if wl["kind"] == "cli":
        # what the CLI prints: the value rounded to the requested digits
        with mp.workdps(60):
            for row in sample["coefficients"]:
                row[1] = mp.nstr(mp.mpf(row[1]), wl["digits"])
    assert run.check_sample(sample, name, wl, refs) is None
    assert sample["rel_err_digits"] > 0
    with mp.workdps(60):
        row = sample["coefficients"][-1]
        row[1] = mp.nstr(mp.mpf(row[1]) * (1 + mp.mpf(10) ** (2 - wl["digits"])), 40)
    assert "misses" in run.check_sample(sample, name, wl, refs)


def test_metric_names_and_units_match_benchmark_spec():
    import sample

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = {"moments.r_max_used": 1, "moments.prime_cutoff": 1, "moments.keys": 1}
    traced = {"traced": True, "wall_ref_s": 1.0, "gauge_s": 0.001, "counts": counts, "cache_files": 1,
              "cache_bytes": 1, "layers": sample.layer_metrics(Recorder(), 0)}
    plain = dict(traced, traced=False)
    got = run.layer_metrics([traced, plain], run.WORKLOADS["cli-k2-d10-cached"])
    assert {k: u for k, (_, u) in got.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    one = {"wall_ref_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0, "rel_err_digits": 1.0}
    got = run.end_to_end_metrics([one], 1)
    assert {k: u for k, (_, u) in got.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
