"""Benchmark harness: timed user requests in fresh processes, checked results.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--out results.jsonl]

Run from the repository root; the package is imported from ./src.  Each
sample runs one request of the workload in a fresh Python process
(perfbench/sample.py) and is checked against the pinned references in
perfbench/refs.json.  Samples repeat until --seconds have passed (at least
MIN_SAMPLES).  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 traced and untraced samples alternate
and it carries the per-layer metrics.  The requests are fixed; the seed sets
PYTHONHASHSEED of each sample and the order of traced and untraced samples.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
# Times are scaled to a host on which the loop of gauge.HostGauge takes
# REF_GAUGE_S; each process gauges the host while it works.
REF_GAUGE_S = 0.001
# a run must end well inside three minutes, however slow the host is
HARD_STOP_S = 150.0
WORK_DIR = ".perfbench_work"


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    """The facts that decide whether two results may be compared."""
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def _child_env(root, hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _spawn(argv, env, timeout):
    """Run a child to completion: (spawn time, exit code, stdout, stderr).

    The child is killed and reaped if it overruns or the harness is stopped.
    """
    start = clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return start, None, "", "timed out after %.0f s" % timeout
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return start, proc.returncode, out, err


def _dir_usage(path):
    names = os.listdir(path)
    return len(names), sum(os.path.getsize(os.path.join(path, n)) for n in names)


def _to_ref(seconds, gauge_s):
    return seconds * REF_GAUGE_S / gauge_s


def _run_child(argv, env, timeout):
    """Run one sample.py process: (spawn time, its JSON line) or an error."""
    start, code, out, err = _spawn(argv, env, timeout)
    if code != 0:
        return start, "exited with %s: %s" % (code, err[-500:])
    try:
        return start, json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return start, "printed no result: %r" % out[-500:]


def run_sample(root, name, wl, trace, hash_seed, index, timeout):
    """One sample; a dict with its measurements, or with an 'error'.

    setup_s is the interpreter start and imports of the sample process, and
    for the CLI workload also the whole precompute process; it and wall_ref_s
    are scaled to the reference host speed by each process's own gauge.
    """
    env = _child_env(root, hash_seed)
    argv = [sys.executable, os.path.join(HERE, "sample.py"), name]
    got = {"traced": trace, "setup_s": 0.0}
    cache_dir = None
    try:
        if wl["kind"] == "cli":
            cache_dir = os.path.join(root, WORK_DIR, "cache-%d-%d" % (os.getpid(), index))
            shutil.rmtree(cache_dir, ignore_errors=True)
            argv += ["--cache-dir", cache_dir]
            t0 = clock()
            start, pre = _run_child(argv + ["--precompute"], env, timeout)
            if isinstance(pre, str):
                got["error"] = "precompute " + pre
                return got
            got["setup_s"] = (_to_ref(pre["imported_at"] - start, pre["import_gauge_s"])
                              + _to_ref(pre["wall_s"], pre["gauge_s"]))
            got["cache_files"], got["cache_bytes"] = _dir_usage(cache_dir)
            timeout = max(1.0, timeout - (clock() - t0))
        if trace:
            argv.append("--trace")
        start, doc = _run_child(argv, env, timeout)
        if isinstance(doc, str):
            got["error"] = "sample " + doc
            return got
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    got.update(doc)
    got["setup_s"] += _to_ref(doc["imported_at"] - start, doc["import_gauge_s"])
    got["wall_ref_s"] = _to_ref(doc["wall_s"], doc["gauge_s"])
    return got


def check_sample(sample, name, wl, refs):
    """Compare every coefficient with its reference; None or a complaint.

    A coefficient passes when it is within its reported error plus the
    reference's error.  Values the CLI prints are rounded to the requested
    digits, so half a unit in their last printed place is allowed too.
    """
    from mpmath import mp, mpf

    want = refs["workloads"][name]
    got = {n: (v, e) for n, v, e in sample["coefficients"]}
    if sorted(got) != sorted(int(n) for n in want):
        return "returned indices %s, expected %s" % (sorted(got), sorted(want))
    with mp.workdps(150):
        for n_str, ref in want.items():
            value, error = (mpf(s) for s in got[int(n_str)])
            if not (mp.isfinite(value) and mp.isfinite(error)) or error < 0:
                return "c_%s is not a finite value with an error" % n_str
            slack = error * (1 + mpf("1e-5")) + mpf(ref["error"])
            if wl["kind"] == "cli" and value:
                slack += mpf(10) ** (mp.floor(mp.log10(abs(value))) - wl["digits"] + 1) / 2
            dev = abs(value - mpf(ref["value"]))
            if dev > slack:
                return "c_%s = %s misses %s by %s > %s" % (
                    n_str, mp.nstr(value, 20), mp.nstr(mpf(ref["value"]), 20),
                    mp.nstr(dev, 5), mp.nstr(slack, 5))
        rel = [mpf(e) / abs(mpf(v)) for _, v, e in sample["coefficients"]
               if mpf(v) != 0]
        if not rel or min(rel) <= 0:
            return "a nonzero coefficient came back with no error bar"
        digits = float(-mp.log10(max(rel)))
    sample["rel_err_digits"] = digits
    return None


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(samples, attempted):
    ok = [s for s in samples if not s.get("error")]
    return {
        "wall_ref_s": (statistics.median(s["wall_ref_s"] for s in ok), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in ok), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in ok), "MB"),
        "rel_err_digits": (min(s["rel_err_digits"] for s in ok), "digits"),
        "ok_frac": (len(ok) / attempted, "frac"),
    }


def layer_metrics(samples, wl):
    """Medians over the traced samples; the overhead against the untraced.

    Span times are scaled to the reference host speed, like wall_ref_s.
    """
    ok = [s for s in samples if not s.get("error")]
    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        if key.endswith(("_s", ".s")):
            out[key] = (statistics.median(
                _to_ref(s["layers"][key], s["gauge_s"]) for s in traced), "s")
        else:
            out[key] = (statistics.median(s["layers"][key] for s in traced), "count")
    for key in ("moments.r_max_used", "moments.prime_cutoff", "moments.keys"):
        out[key] = (traced[0]["counts"][key], "count")
    is_cli = wl["kind"] == "cli"
    out["cli.cache_files"] = (
        statistics.median(s["cache_files"] for s in traced) if is_cli else 0, "count")
    out["cli.cache_bytes"] = (
        statistics.median(s["cache_bytes"] for s in traced) if is_cli else 0, "B")
    out["trace.overhead_frac"] = (
        statistics.median(s["wall_ref_s"] for s in traced)
        / statistics.median(s["wall_ref_s"] for s in plain) - 1, "frac")
    return out


def _consistent_counts(samples):
    """Truncation counts and accuracy must not depend on tracing or order."""
    ok = [s for s in samples if not s.get("error")]
    seen = {json.dumps(s["counts"], sort_keys=True) for s in ok}
    seen_digits = {s["rel_err_digits"] for s in ok}
    return len(seen) <= 1 and len(seen_digits) <= 1


def run_workload(root, name, args, refs, env):
    """Sample one workload for --seconds; print its metrics and result line."""
    wl = WORKLOADS[name]
    rng = random.Random(args.seed)
    began = clock()
    deadline = began + args.seconds
    samples, durations, failed, order = [], [], 0, []
    while True:
        if args.trace:
            if not order:
                order = [True, False]
                rng.shuffle(order)
            trace = order.pop()
        else:
            trace = False
        left = HARD_STOP_S - (clock() - began)
        t0 = clock()
        sample = run_sample(root, name, wl, trace, rng.randrange(2 ** 32),
                            len(samples), left)
        took = clock() - t0
        if not sample.get("error"):
            complaint = check_sample(sample, name, wl, refs)
            if complaint:
                sample["error"] = complaint
        if sample.get("error"):
            failed += 1
            print("sample %d failed: %s" % (len(samples), sample["error"]))
        samples.append(sample)
        now = clock()
        if now - began + took > HARD_STOP_S or (failed and now >= deadline):
            break
        durations.append(took)
        # stop where the next sample would end nearer past the deadline
        # than this one: the run lasts --seconds on average
        if (len(samples) >= MIN_SAMPLES and not order
                and now + statistics.median(durations) / 2 >= deadline):
            break

    attempted = len(samples)
    ok = [s for s in samples if not s.get("error")]
    enough = ok and (not args.trace or (
        any(s["traced"] for s in ok) and any(not s["traced"] for s in ok)))
    correct = failed == 0 and bool(enough) and _consistent_counts(samples)
    metrics = {}
    if enough:
        metrics = (layer_metrics(samples, wl) if args.trace
                   else end_to_end_metrics(samples, attempted))
    for key in ("wall_s", "wall_ref_s", "gauge_s"):
        if ok:
            q1, q2, q3 = _quartiles([s[key] for s in ok])
            print("%s %s: median %.6g s, quartiles %.6g .. %.6g s, %d samples"
                  % (name, key, q2, q1, q3, len(ok)))
    print("%s fail_frac %.3f (%d of %d failed)"
          % (name, failed / attempted, failed, attempted))
    for key, (value, unit) in metrics.items():
        print("%s %s = %.6g %s" % (name, key, value, unit))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "workload": name, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "samples": samples,
            }, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append each full result as one JSON line")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zetamoments", "__init__.py")):
        sys.stderr.write("no src/zetamoments under %s; run from the repository root\n" % root)
        return 2
    # a terminated harness unwinds, so _spawn kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    refs = load_refs()
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(root, name, args, refs, env)
    finally:
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
