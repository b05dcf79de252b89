"""One benchmark sample: one user request in this fresh process.

    python3 perfbench/sample.py WORKLOAD [--trace] [--cache-dir DIR]
    python3 perfbench/sample.py WORKLOAD --precompute --cache-dir DIR

Run from the repository root.  Prints one JSON line: the monotonic time at
which the imports finished, the wall time of the request, the host-speed
gauge taken during the imports and during the request, the peak resident
memory, every returned coefficient as decimal strings, the truncation
counts, and with --trace the per-layer spans.  With --precompute the request
is the CLI workload's set-up, `zetamoments precompute` into DIR.
"""

import os
import sys

from gauge import HostGauge

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

with HostGauge() as IMPORT_GAUGE:
    import argparse
    import io
    import json
    import resource
    from contextlib import redirect_stdout

    import mpmath
    import zetamoments.cli as cli
    import zetamoments.characters as characters
    import zetamoments.moments as moments

IMPORTED_AT = IMPORT_GAUGE.clock()

from spans import Recorder, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _big_str(x):
    return mpmath.libmp.to_str(x._mpf_, 80)


def _w_counts(k):
    """Truncation actually used, read from the engine's in-process W cache."""
    best = None
    for (ck, cw, _, _), hit in moments._w_cache.items():
        if ck == k and (best is None or cw > best[0]):
            best = (cw, hit)
    if best is None:
        return {}
    meta = best[1][2]
    return {
        "moments.r_max_used": meta["r_max_used"],
        "moments.prime_cutoff": meta["prime_cutoff"],
        "moments.keys": len(best[1][0]),
    }


def _request(wl, cache_dir):
    """The workload's user call; returns [(N, value, error)] as strings."""
    k, digits = wl["k"], wl["digits"]
    if wl["kind"] == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["poly", "--k", str(k), "--digits", str(digits),
                             "--format", "json", "--cache-dir", cache_dir])
        if code != 0:
            raise RuntimeError("zetamoments poly exited with %d" % code)
        doc = json.loads(buf.getvalue())
        return [(c["N"], c["value"], c["error"]) for c in doc["coefficients"]]
    out = []
    for n in wl["ns"]:
        got = moments.c_coeff(n, k, digits=digits)
        out.append((n, _big_str(got.value), _big_str(got.error)))
    return out


def run_request(wl, cache_dir, rec=None):
    """The user call; with a recorder, traced after a W_coeff pre-call.

    The pre-call at the request's top weight gives the W engine a span of
    its own; the request then reuses that W table through the engine's
    in-process cache.  For the CLI the cache is loaded first, untraced, so
    the pre-call sees the installed entries the CLI will see, and
    cli.load_cache is timed only for the CLI's own load.
    """
    if rec is None:
        return _request(wl, cache_dir)
    if wl["kind"] == "cli":
        cli.load_cache(cache_dir)
    wmax = max(wl["ns"])
    with instrument(rec):
        moments.W_coeff((wmax,) if wmax else (), (), wl["k"], wl["digits"])
        return _request(wl, cache_dir)


def layer_metrics(rec, table_misses):
    """The per-layer metrics of one traced sample, by benchmark name."""
    s = rec.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    return {
        "moments.W_coeff.s": get("moments.W_coeff", "s"),
        "moments.W_coeff.self_s": get("moments.W_coeff", "self_s"),
        "moments.d_table.self_s": get("moments.d_table", "self_s"),
        "moments.assemble.self_s": get("moments.assemble", "self_s"),
        "moments.head_primes": rec.counts["moments.head_primes"],
        "symseries.series_log.exact_s": get("symseries.series_log.exact", "s"),
        "symseries.series_log.exact_calls":
            get("symseries.series_log.exact", "calls"),
        "symseries.series_log.mp_s": get("symseries.series_log.mp", "s"),
        "symseries.series_log.mp_calls": get("symseries.series_log.mp", "calls"),
        "symseries.series_exp_s": get("symseries.series_exp", "s"),
        "symseries.p_to_schur_s": get("symseries.p_to_schur", "s"),
        "symseries.series_mul_s": get("symseries.series_mul", "s"),
        "zeta_numerics.prime_zeta_beyond.self_s":
            get("zeta_numerics.prime_zeta_beyond", "self_s"),
        "zeta_numerics.prime_zeta_beyond.calls":
            get("zeta_numerics.prime_zeta_beyond", "calls"),
        "zeta_numerics.prime_zeta_taylor_s":
            get("zeta_numerics.prime_zeta_taylor", "s"),
        "zeta_numerics.prime_zeta_taylor.calls":
            get("zeta_numerics.prime_zeta_taylor", "calls"),
        "zeta_numerics.prime_zeta_taylor.cache_served":
            rec.counts["zeta_numerics.prime_zeta_taylor.cache_served"],
        "zeta_numerics.envelope_bound_s":
            get("zeta_numerics.envelope_bound", "s"),
        "zeta_numerics.primes_upto_s": get("zeta_numerics.primes_upto", "s"),
        "characters.character_table_s":
            get("characters.character_table", "s"),
        "characters.character_table.misses": table_misses,
        "frobenius_schur.dim_complement_s":
            get("frobenius_schur.dim_complement", "s"),
        "frobenius_schur.dim_complement.calls":
            get("frobenius_schur.dim_complement", "calls"),
        "cli.load_cache_s": get("cli.load_cache", "s"),
        "cli.load_cache.entries": rec.counts["cli.load_cache.entries"],
        "cli.render_s": get("cli.cmd_poly", "self_s"),
    }


def precompute(wl, cache_dir):
    """The CLI workload's set-up: `zetamoments precompute` into cache_dir."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["precompute", "--nmax", str(max(wl["ns"])),
                         "--digits", str(wl["digits"]), "--cache-dir", cache_dir])
    if code != 0:
        raise RuntimeError("zetamoments precompute exited with %d" % code)
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--precompute", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if (wl["kind"] == "cli" or args.precompute) and not args.cache_dir:
        parser.error("the cli workload and --precompute need --cache-dir")
    table = characters.character_table
    misses0 = table.cache_info().misses
    with HostGauge() as gauge:
        rec = Recorder(clock=gauge.clock) if args.trace else None
        start = gauge.clock()
        if args.precompute:
            coeffs = precompute(wl, args.cache_dir)
        else:
            coeffs = run_request(wl, args.cache_dir, rec)
        wall = gauge.clock() - start
    layers = None
    if rec:
        layers = layer_metrics(rec, table.cache_info().misses - misses0)
    doc = {
        "imported_at": IMPORTED_AT,
        "import_gauge_s": IMPORT_GAUGE.gauge_s(),
        "wall_s": wall,
        "gauge_s": gauge.gauge_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "coefficients": coeffs,
        "counts": _w_counts(wl["k"]),
        "layers": layers,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
