"""Command-line front end: cached precomputation and rendered output; the
selftest battery lives in oracles, imported for that command alone.

The cache is a directory of small JSON files, pzeta_r<r>.json, one prime
zeta Taylor family each; they serve k = 2, and k = 3 up to weight 4
(PZETA_MARGIN).  Each entry stores the digits and the coefficients that
prime_zeta_taylor serves, every real as the exact [signed mantissa,
exponent] pair of its binary value (pzeta schema 2).  Files of other kinds
and entries of an older schema, which older versions wrote, are skipped;
precompute rebuilds the entries.  Precomputing twice is a no-op: only
entries stored at too few digits or too low a weight are rebuilt.  Writes
take a directory lock file; reads touch only immutable files and need no
lock.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager

from mpmath import mp
from mpmath.libmp import from_man_exp

from . import __version__
from . import frobenius_schur  # noqa: F401  perfbench's spans read it from sys.modules
from .moments import (
    NonConvergenceError,
    _check_request,
    _min_stop,
    c_coeff,
    moment_polynomial,
)
from .zeta_numerics import (
    MAX_WEIGHT,
    PrimeZetaCoeffs,
    _check_index,
    install_prime_zeta,
    prime_zeta_taylor,
)

SCHEMA_VERSION = 1  # the output documents
PZETA_SCHEMA = 2  # cache entries: binary pairs since 2, decimals at 1
CACHE_ENV = "ZETAMOMENTS_CACHE_DIR"
# stored families carry 25 digits beyond the request: the W engine asks for
# digits + 10 + L absolute ones, |V_r| < 10**L over r <= 16, served to L = 15:
# k = 2 (L = 5) and k = 3 up to weight 4 (L = 12)
PZETA_MARGIN = 25


class CacheError(Exception):
    """Cache directory problems: lock contention or malformed entries."""


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


def _pair(x):
    # x's exact binary value as JSON ints: the signed mantissa and exponent
    sign, man, exp, _ = x._mpf_
    return [-man if sign else man, exp]


def _from_pair(pair):
    if type(pair) is not list or len(pair) != 2 or set(map(type, pair)) != {int}:
        raise TypeError("%r is no [mantissa, exponent] pair" % (pair,))
    return mp.make_mpf(from_man_exp(*pair))


def save_pzeta(root, pz):
    """Atomically write one family as pzeta_r<r>.json; the caller holds the
    cache lock.  Each value is stored as its exact pair [m, e], m * 2**e."""
    payload = {"digits": pz.digits, "coeffs": list(map(_pair, pz.coeffs))}
    doc = {"schema_version": PZETA_SCHEMA, "kind": "pzeta",
           "params": {"r": pz.r, "n_max": len(pz.coeffs) - 1},
           "payload": payload}
    data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(root, "pzeta_r%d.json" % pz.r))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_pzeta(path):
    """The family stored at path, or None if there is no file or the entry
    uses an older schema; CacheError if it cannot be read, is malformed or
    uses a newer schema."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise CacheError("unreadable cache entry %s: %s" % (path, exc)) from exc
    try:
        schema = doc["schema_version"]
        if type(schema) is not int:
            raise CacheError("cache entry %s has schema %r" % (path, schema))
        if schema > PZETA_SCHEMA:
            raise CacheError(
                "cache entry %s uses schema %d, newer than supported %d"
                % (path, schema, PZETA_SCHEMA)
            )
        if schema < PZETA_SCHEMA:
            return None
        if doc["kind"] != "pzeta":
            raise CacheError("cache entry %s is not a pzeta entry" % path)
        payload = doc["payload"]
        r, digits = doc["params"]["r"], payload["digits"]
        _check_index(r, "r", 1)
        _check_index(digits, "digits", 1)
        if os.path.basename(path) != "pzeta_r%d.json" % r:
            raise CacheError("cache entry %s holds the family r = %d" % (path, r))
        return PrimeZetaCoeffs(r, tuple(map(_from_pair, payload["coeffs"])), digits)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError("malformed cache entry %s: %s" % (path, exc)) from exc


def _install_cache(root):
    """Install every family stored under root and return them, {r: family}.

    Families install behind a precision gate, so one with too few digits for
    a later request is recomputed, never reused.  Files of any other kind
    and entries of an older schema, such as those older versions wrote, are
    skipped.
    """
    found = {}
    if os.path.isdir(root):
        for filename in sorted(os.listdir(root)):
            if filename.startswith("pzeta_") and filename.endswith(".json"):
                pz = load_pzeta(os.path.join(root, filename))
                if pz is not None:
                    install_prime_zeta(pz.r, pz)
                    found[pz.r] = pz
    return found


def load_cache(root):
    """Install every family stored under root; returns {"pzeta": count}."""
    return {"pzeta": len(_install_cache(root))}


def cmd_precompute(n_max, digits, cache_dir):
    """Build and persist the prime zeta families the pipeline wants, to
    nmax <= MAX_WEIGHT, skipping those stored at enough digits and weight."""
    _check_index(n_max, "nmax", 1)
    _check_index(digits, "digits", 1)
    if n_max > MAX_WEIGHT:
        raise NonConvergenceError(
            "nmax %d beyond the supported MAX_WEIGHT = %d"
            % (n_max, MAX_WEIGHT), meta={"nmax": n_max, "digits": digits})
    os.makedirs(cache_dir, exist_ok=True)
    store_digits = digits + PZETA_MARGIN
    built = reused = 0
    with cache_lock(cache_dir):
        have = _install_cache(cache_dir)
        # the W tail may not stop before _min_stop; 8 more r cover its stop
        for r in range(1, _min_stop(n_max) + 9):
            # the lookup serves a stored entry that covers the request
            pz = prime_zeta_taylor(r, n_max, store_digits)
            if pz is have.get(r):
                reused += 1
                continue
            save_pzeta(cache_dir, pz)
            install_prime_zeta(r, pz)
            built += 1
    return {"cache_dir": cache_dir, "loaded": {"pzeta": len(have)},
            "built": {"pzeta": built}, "reused": {"pzeta": reused}}


def _render_real(x, digits):
    with mp.workdps(digits + 5):
        return mp.nstr(x, digits, strip_zeros=False)


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
    _check_index(n_index, "N")
    _check_request(k, digits, tol, k_min=0)
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
    _check_request(k, digits, tol, k_min=0)
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

    p = sub.add_parser(
        "precompute", help="build and persist the prime zeta families",
        description="Build and persist the prime zeta families, %d digits"
        " beyond --digits: enough for k = 2, and k = 3 up to weight 4, not"
        " for the full P_3 or P_4." % PZETA_MARGIN)
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
            from .oracles import cmd_selftest

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
