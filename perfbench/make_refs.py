"""Write perfbench/refs.json, the pinned references the benchmark checks.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the repository root.  c_0 comes from the independent Euler-product
route, a_factor(k, digits + 15) * g_factor(k) / (k**2)!, with its error taken
as 10**-(digits + 15) relative and confirmed against a_factor at digits + 25.
Every other coefficient comes from the engine itself at digits + 10, with the
error it reports.  Takes about a minute.
"""

import json
import os
import sys

from mpmath import mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

from zetamoments import __version__  # noqa: E402
from zetamoments.moments import a_factor, c_coeff, g_factor  # noqa: E402

COMMAND = "PYTHONPATH=src python3 perfbench/make_refs.py"


def _str(x):
    return mp.nstr(x, 80, strip_zeros=False)


def euler_c0(k, digits):
    """c_0 from the Euler product, and a relative error it is shown to meet."""
    ref_digits = digits + 15
    with mp.workdps(ref_digits + 20):
        scale = mp.mpf(g_factor(k)) / mp.factorial(k * k)
        value = a_factor(k, ref_digits) * scale
        check = a_factor(k, ref_digits + 10) * scale
        error = abs(value) * mp.mpf(10) ** (-ref_digits)
        if abs(value - check) > error:
            raise AssertionError("a_factor(%d) unstable at %d digits" % (k, ref_digits))
        return {"value": _str(value), "error": _str(error),
                "route": "a_factor(%d, %d) * g_factor / (k**2)!" % (k, ref_digits)}


def engine_refs(k, ns, digits):
    out = {}
    with mp.workdps(digits + 20):
        for n in sorted(ns, reverse=True):
            got = c_coeff(n, k, digits=digits + 10)
            out[str(n)] = {"value": _str(got.value), "error": _str(got.error),
                           "route": "c_coeff(%d, %d, digits=%d)" % (n, k, digits + 10)}
    return out


def main():
    refs = {"command": COMMAND, "zetamoments_version": __version__,
            "workloads": {}}
    for name, wl in WORKLOADS.items():
        k, digits = wl["k"], wl["digits"]
        rest = [n for n in wl["ns"] if n != 0]
        got = engine_refs(k, rest, digits) if rest else {}
        got["0"] = euler_c0(k, digits)
        refs["workloads"][name] = dict(sorted(got.items(), key=lambda kv: int(kv[0])))
        print(name, "done", flush=True)
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
