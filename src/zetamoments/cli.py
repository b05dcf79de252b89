"""Command-line front end: cached precomputation and rendered output.

The cache is a directory of small JSON files, one prime zeta Taylor family
each.  Files of any other kind, such as the character-table, coupling-table
or dimension-polynomial entries older versions wrote, are ignored.  Big
reals travel as decimal strings wide enough to restore every bit at the
recorded precision.  Precomputing twice is a no-op: only entries whose stored
precision falls short of the request are rebuilt.  Writes take a directory
lock file; reads touch only immutable files and need no lock.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from . import __version__
from ._golden import golden_entries
from .characters import character_table
from .frobenius_schur import dim_complement, dim_complement_poly, dim_fs
from .moments import (
    NonConvergenceError,
    V_poly,
    W_coeff,
    _b_coeff,
    _v_series,
    a_factor,
    c_coeff,
    d_table,
    f_table,
    moment_polynomial,
)
from .partitions import (
    centralizer_order,
    dim_hook,
    dim_paths,
    dim_skew_det,
    partitions_of,
)
from .symseries import (
    POWERSUM,
    PairSeries,
    _plan,
    bump_gamburd_residual,
    series_exp,
)
from .zeta_numerics import (
    PrimeZetaCoeffs,
    install_prime_zeta,
    prime_zeta_direct,
    prime_zeta_taylor,
)

SCHEMA_VERSION = 1
CACHE_ENV = "ZETAMOMENTS_CACHE_DIR"
# stored big reals carry this many digits beyond the requested precision, so
# that elevated-precision internal requests still find the cache sufficient
PZETA_MARGIN = 25


class CacheError(Exception):
    """Cache directory problems: lock contention or malformed entries."""


class CacheEntry(NamedTuple):
    kind: str
    params: dict
    payload: dict
    schema_version: int = SCHEMA_VERSION


def _real_str(x, digits):
    return mp.nstr(x, digits, strip_zeros=False)


def entry_filename(kind, params):
    if kind == "pzeta":
        return "pzeta_r%d.json" % params["r"]
    raise CacheError("unknown cache kind %r" % (kind,))


@contextmanager
def cache_lock(root):
    """Single-writer directory lock; raises when another writer holds it."""
    path = os.path.join(root, ".lock")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CacheError(
            "cache at %s is locked by another process (remove %s if stale)"
            % (root, path)
        ) from None
    try:
        os.write(fd, ("pid %d\n" % os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def save_entry(root, entry):
    """Atomically write one entry; the caller holds the cache lock."""
    doc = {
        "schema_version": entry.schema_version,
        "kind": entry.kind,
        "params": entry.params,
        "payload": entry.payload,
    }
    data = json.dumps(doc, sort_keys=True, indent=1)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(root, entry_filename(entry.kind, entry.params)))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_entry(root, filename):
    path = os.path.join(root, filename)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise CacheError("unreadable cache entry %s: %s" % (path, exc)) from exc
    try:
        if doc["schema_version"] > SCHEMA_VERSION:
            raise CacheError(
                "cache entry %s uses schema %d, newer than supported %d"
                % (path, doc["schema_version"], SCHEMA_VERSION)
            )
        return CacheEntry(
            doc["kind"], doc["params"], doc["payload"], doc["schema_version"]
        )
    except (KeyError, TypeError) as exc:
        raise CacheError("malformed cache entry %s: %s" % (path, exc)) from exc


def encode_pzeta(pz):
    digits = pz.digits
    width = digits + 12
    with mp.workdps(width):
        payload = {
            "digits": digits,
            "coeffs": [_real_str(c, width) for c in pz.coeffs],
            "tail_bounds": [_real_str(b, width) for b in pz.tail_bounds],
        }
    return CacheEntry("pzeta", {"r": pz.r, "n_max": len(pz.coeffs) - 1}, payload)


def decode_pzeta(entry):
    digits = entry.payload["digits"]
    # values carry working precision digits + 5; parsing at that same
    # precision restores each one bit for bit, a wider parse would not
    with mp.workdps(digits + 5):
        coeffs = tuple(mp.mpf(s) for s in entry.payload["coeffs"])
        tails = tuple(mp.mpf(s) for s in entry.payload["tail_bounds"])
    return PrimeZetaCoeffs(entry.params["r"], coeffs, digits, tails)


def load_cache(root):
    """Install every cache entry under root; returns per-kind counts.

    Prime zeta families install behind a precision gate, so an entry with
    too few digits for a later request is recomputed, never reused.  Files
    of any other kind, such as those older versions wrote, are skipped
    unread.
    """
    counts = {"pzeta": 0}
    if not os.path.isdir(root):
        return counts
    live = tuple(kind + "_" for kind in counts)
    for filename in sorted(os.listdir(root)):
        if not (filename.endswith(".json") and filename.startswith(live)):
            continue
        entry = load_entry(root, filename)
        if entry is None or entry.kind not in counts:
            continue
        pz = decode_pzeta(entry)
        install_prime_zeta(pz.r, pz)
        counts[entry.kind] += 1
    return counts


def _truncation_horizon(n_max):
    # the W tail walks r upward from 2 and may not stop before this floor
    return max(8, n_max + 3) + 8


def cmd_precompute(n_max, digits, cache_dir):
    """Build and persist the prime zeta families the pipeline wants,
    skipping fresh ones."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("nmax must be a positive integer")
    if not isinstance(digits, int) or digits < 1:
        raise ValueError("digits must be a positive integer")
    os.makedirs(cache_dir, exist_ok=True)
    have = load_cache(cache_dir)
    built = {"pzeta": 0}
    reused = {"pzeta": 0}
    with cache_lock(cache_dir):
        store_digits = digits + PZETA_MARGIN
        for r in range(1, _truncation_horizon(n_max) + 1):
            old = load_entry(cache_dir, entry_filename("pzeta", {"r": r}))
            if old is not None:
                pz = decode_pzeta(old)
                if pz.digits >= store_digits and len(pz.coeffs) > n_max:
                    reused["pzeta"] += 1
                    continue
            pz = prime_zeta_taylor(r, n_max, store_digits)
            save_entry(cache_dir, encode_pzeta(pz))
            install_prime_zeta(r, pz)
            built["pzeta"] += 1
    return {"cache_dir": cache_dir, "loaded": have, "built": built,
            "reused": reused}


def _render_real(x, digits):
    with mp.workdps(digits + 5):
        return _real_str(x, digits)


def _coeff_doc(k, n_index, digits, got, note):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "N": n_index,
        "digits": digits,
        "value": _render_real(got.value, digits),
        "error": _render_real(got.error, 6),
    }
    if note:
        doc["note"] = note
    return doc


def cmd_coeff(k, n_index, digits, fmt="text", cache_dir=None, tol=None):
    """One coefficient, rendered; degenerate indices come back zero with a note."""
    if cache_dir:
        load_cache(cache_dir)
    note = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = c_coeff(n_index, k, digits=digits, tol=tol)
        if caught:
            note = str(caught[0].message)
    doc = _coeff_doc(k, n_index, digits, got, note)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["# lossy rendering: values only, errors and metadata omitted",
                 "N,value", "%d,%s" % (n_index, doc["value"])]
        return "\n".join(lines) + "\n"
    out = ["c_%d(%d) = %s  (error <= %s)" % (n_index, k, doc["value"], doc["error"])]
    if note:
        out.append("note: %s" % note)
    return "\n".join(out) + "\n"


def cmd_poly(k, digits, fmt="text", cache_dir=None, tol=None):
    """The full coefficient family for one k, rendered."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if cache_dir:
        load_cache(cache_dir)
    poly = moment_polynomial(k, digits=digits, tol=tol)
    meta = poly.metadata
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "k": poly.k,
            "digits": poly.digits,
            "coefficients": [
                {
                    "N": n,
                    "value": _render_real(v, digits),
                    "error": _render_real(e, 6),
                }
                for n, v, e in poly.coefficients
            ],
            "truncation": {
                "r_max_used": meta.get("r_max_used"),
                "tol": meta.get("tol"),
            },
            "cache": {"versions": meta.get("cache_versions", {})},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["# lossy rendering: values only, errors and metadata omitted",
                 "N,value"]
        for n, v, _ in poly.coefficients:
            lines.append("%d,%s" % (n, _render_real(v, digits)))
        return "\n".join(lines) + "\n"
    lines = [
        "moment polynomial for k=%d at %d digits (degree %d)"
        % (k, digits, k * k),
        "coefficient of x^(k^2-N):",
    ]
    for n, v, e in poly.coefficients:
        lines.append(
            "  c_%-2d = %s  (error <= %s)"
            % (n, _render_real(v, digits), _render_real(e, 6))
        )
    lines.append(
        "truncation: r_max_used=%s prime_cutoff=%s tol=%s"
        % (meta.get("r_max_used"), meta.get("prime_cutoff"), meta.get("tol"))
    )
    return "\n".join(lines) + "\n"


def _check_golden_tables():
    ft = f_table(6)
    for size in range(1, 7):
        for (ka, la), want in golden_entries(size):
            if ft.entries.get((ka, la), 0) != want:
                raise AssertionError("entry %r %r" % (ka, la))


def _check_characters():
    for n in range(7):
        table = character_table(n)
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                dot = sum(
                    table[(lam, nu)] * table[(mu, nu)]
                    * Fraction(1, centralizer_order(nu))
                    for nu in parts
                )
                if dot != (1 if lam == mu else 0):
                    raise AssertionError("rows %r %r" % (lam, mu))
        for lam in parts:
            if table[(lam, (1,) * n)] != dim_hook(lam):
                raise AssertionError("dimension of %r" % (lam,))


def _check_dim_triple():
    for b in range(7):
        for nu in partitions_of(b):
            for a in range(min(b, 3) + 1):
                for mu in partitions_of(a):
                    got = dim_paths(mu, nu)
                    if dim_skew_det(mu, nu) != got:
                        raise AssertionError("det route at %r %r" % (mu, nu))
                    if dim_fs(mu, nu) != got:
                        raise AssertionError("poly route at %r %r" % (mu, nu))


def _check_exp_log_closure():
    ft = f_table(3)
    back = series_exp(PairSeries(POWERSUM, 6, dict(ft.entries)))
    for a in range(1, 4):
        for ka in partitions_of(a):
            for la in partitions_of(a):
                want = Fraction(1, centralizer_order(ka) * centralizer_order(la))
                if back.get(ka, la) != want:
                    raise AssertionError("pair %r %r" % (ka, la))


def _check_v_identities():
    for r in range(1, 7):
        for mu in [(), (1,), (2,), (1, 1)]:
            for nu in [(), (1,), (2, 1)]:
                if V_poly(r, mu, nu) != V_poly(r, nu, mu):
                    raise AssertionError("asymmetry at r=%d" % r)
    for k in (2, 3):
        for r in range(1, 7):
            if V_poly(r, (), ())(k) != _b_coeff(k, r):
                raise AssertionError("local log mismatch k=%d r=%d" % (k, r))
        # the engine's tail route against the f-table contraction
        tail = _v_series(k, 4, 6)[0]
        for r in range(1, 7):
            for mu, nu in _plan(4).keys:
                if V_poly(r, mu, nu)(k) != tail[r].get((mu, nu), 0):
                    raise AssertionError(
                        "tail route at k=%d r=%d %r %r" % (k, r, mu, nu)
                    )


def _check_dimpoly_identity():
    for kap, lam in [((), ()), ((1,), ()), ((1,), (1,)), ((2,), (1, 1))]:
        poly = dim_complement_poly(kap, lam)
        n = poly.depth
        for k in range(2, 6):
            fall = 1
            for i in range(n):
                fall *= k * k - i
            lhs = dim_complement(kap, lam, k) * fall
            if lhs != poly.B(k) * dim_hook((k,) * k):
                raise AssertionError("identity at %r %r k=%d" % (kap, lam, k))


def _check_euler_product():
    with mp.workdps(30):
        want = 6 / mp.pi**2
        got = a_factor(2, digits=20)
        if abs(got - want) > mp.mpf("1e-19"):
            raise AssertionError("second moment arithmetic factor off")


def _check_first_moment():
    got = c_coeff(1, 1, digits=20)
    with mp.workdps(30):
        if abs(got.value - 2 * mp.euler) > mp.mpf("1e-18"):
            raise AssertionError("twice Euler gamma not reproduced")


def _check_split_alphabet():
    with mp.workdps(40):
        for seed in range(5):
            points = [mp.mpf(1) / (3 * i + seed + 2) for i in range(4)]
            for kap in [(), (1,), (2,)]:
                for lam in [(), (1,)]:
                    res = bump_gamburd_residual(kap, lam, points)
                    if res > mp.mpf("1e-25"):
                        raise AssertionError(
                            "residual %s at %r %r" % (res, kap, lam)
                        )


def _check_prime_zeta_routes():
    # at r = 9 the Moebius arguments 9m >= 45 take the short
    # Euler-Maclaurin head of zeta_taylor; r = 2 at 80 digits runs the
    # longest Bernoulli tails, at the small arguments 2m
    for r, nmax, digits, tol in (
        (2, 4, 25, "1e-20"),
        (3, 4, 25, "1e-20"),
        (4, 4, 25, "1e-20"),
        (9, 4, 25, "1e-20"),
        (2, 0, 80, "1e-75"),
    ):
        a = prime_zeta_taylor(r, nmax, digits)
        b = prime_zeta_direct(r, nmax, digits)
        with mp.workdps(digits + 10):
            for n in range(nmax + 1):
                if abs(a.coeffs[n] - b[n]) > mp.mpf(tol):
                    raise AssertionError(
                        "routes differ at r=%d n=%d, %d digits" % (r, n, digits)
                    )


def _check_w_symmetry():
    a = W_coeff((1,), (2,), 2, digits=12)
    b = W_coeff((2,), (1,), 2, digits=12)
    if abs(a.value - b.value) > a.error + b.error:
        raise AssertionError("W symmetry broken")
    dt = d_table(2, 3, digits=12)
    for (kap, lam), got in dt.items():
        other = dt[(lam, kap)]
        if abs(got.value - other.value) > got.error + other.error:
            raise AssertionError("d symmetry broken at %r %r" % (kap, lam))


FAST_CHECKS = [
    ("coupling table reference grids, sizes 1..6", "exact", _check_golden_tables),
    ("character orthogonality and dimensions, n <= 6", "exact", _check_characters),
    ("skew dimension triple agreement, weight <= 6", "exact", _check_dim_triple),
    ("exp then log closure, weight <= 6", "exact", _check_exp_log_closure),
    ("V symmetry and scalar identity, r <= 6", "exact", _check_v_identities),
    ("dimension polynomial identity, k = 2..5", "exact", _check_dimpoly_identity),
]

FULL_CHECKS = [
    ("arithmetic factor at k=2 vs closed form", "oracle", _check_euler_product),
    ("first moment linear term vs Euler gamma", "oracle", _check_first_moment),
    ("split alphabet residuals, weight <= 3", "oracle", _check_split_alphabet),
    (
        "prime zeta two-route agreement, r = 2..4, 9 and r = 2 at 80 digits",
        "identity",
        _check_prime_zeta_routes,
    ),
    ("W and d symmetry at k=2", "identity", _check_w_symmetry),
]


def cmd_selftest(level="fast"):
    """Run the check battery; returns (report text, failure count)."""
    if level not in ("fast", "full"):
        raise ValueError("level must be fast or full")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    lines = []
    failures = 0
    for label, kind, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures += 1
            lines.append("FAIL [%-8s] %s: %s" % (kind, label, exc))
        else:
            lines.append("PASS [%-8s] %s" % (kind, label))
    lines.append(
        "%d/%d checks passed (%s level)"
        % (len(checks) - failures, len(checks), level)
    )
    return "\n".join(lines) + "\n", failures


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zetamoments",
        description="moment polynomial coefficients for the zeta function",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, request=True):
        p.add_argument("--digits", type=int, default=50)
        p.add_argument(
            "--cache-dir",
            default=os.environ.get(CACHE_ENV, os.path.join(".", "cache")),
        )
        if request:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument(
                "--format", choices=("text", "json", "csv"), default="text"
            )

    p = sub.add_parser("precompute", help="build and persist the shared tables")
    p.add_argument("--nmax", type=int, required=True)
    common(p, request=False)

    p = sub.add_parser("coeff", help="one polynomial coefficient")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n_index")
    common(p)

    p = sub.add_parser("poly", help="every coefficient for one k")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("selftest", help="run the built-in check battery")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "precompute":
            status = cmd_precompute(args.nmax, args.digits, args.cache_dir)
            sys.stdout.write(
                "pzeta: built %d, reused %d\n"
                % (status["built"]["pzeta"], status["reused"]["pzeta"])
            )
            sys.stdout.write("cache at %s\n" % status["cache_dir"])
        elif args.command == "coeff":
            sys.stdout.write(
                cmd_coeff(args.k, args.n_index, args.digits, args.format,
                          args.cache_dir, tol=args.tol)
            )
        elif args.command == "poly":
            sys.stdout.write(
                cmd_poly(args.k, args.digits, args.format, args.cache_dir,
                         tol=args.tol)
            )
        else:
            report, failures = cmd_selftest(args.level)
            sys.stdout.write(report)
            if failures:
                return 1
    except NonConvergenceError as exc:
        sys.stderr.write("non-convergence: %s\n" % exc)
        if exc.meta:
            sys.stderr.write("parameters: %r\n" % (exc.meta,))
        return 2
    except (CacheError, OSError) as exc:
        sys.stderr.write("cache/io error: %s\n" % exc)
        return 3
    except ValueError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
