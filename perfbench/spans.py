"""Span recorder and run-time wrappers for the traced benchmark samples.

Nothing under src/ knows about tracing.  `instrument` rebinds the public
functions the pipeline calls across module boundaries, in every loaded
zetamoments module that holds them, and puts the originals back on exit.
Each wrapped call records one span (name, start, end, parent); a layer's
self time is its spans' duration minus the part their child spans cover.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

# (defining module, attribute, span name).  Calls are wrapped where they
# cross a module boundary; `_assemble` is module-internal but is the only
# place the assembly can be seen from outside.
TARGETS = (
    ("zetamoments.moments", "W_coeff", "moments.W_coeff"),
    ("zetamoments.moments", "d_table", "moments.d_table"),
    ("zetamoments.moments", "_assemble", "moments.assemble"),
    ("zetamoments.moments", "c_coeff", "moments.c_coeff"),
    ("zetamoments.moments", "moment_polynomial", "moments.moment_polynomial"),
    ("zetamoments.symseries", "series_log", "symseries.series_log"),
    ("zetamoments.symseries", "series_exp", "symseries.series_exp"),
    ("zetamoments.symseries", "p_to_schur", "symseries.p_to_schur"),
    ("zetamoments.symseries", "series_mul", "symseries.series_mul"),
    ("zetamoments.zeta_numerics", "prime_zeta_beyond", "zeta_numerics.prime_zeta_beyond"),
    ("zetamoments.zeta_numerics", "prime_zeta_taylor", "zeta_numerics.prime_zeta_taylor"),
    ("zetamoments.zeta_numerics", "envelope_bound", "zeta_numerics.envelope_bound"),
    ("zetamoments.zeta_numerics", "primes_upto", "zeta_numerics.primes_upto"),
    ("zetamoments.characters", "character_table", "characters.character_table"),
    ("zetamoments.frobenius_schur", "dim_complement", "frobenius_schur.dim_complement"),
    ("zetamoments.cli", "load_cache", "cli.load_cache"),
    ("zetamoments.cli", "cmd_poly", "cli.cmd_poly"),
)


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def summary(self):
        """Per name: total time (outermost spans only), self time, calls."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_cover[i]
            if not self._has_ancestor(i, name):
                agg["s"] += end - start
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def is_exact_series(series):
    """True when every coefficient is an int or Fraction (no big reals)."""
    return all(
        isinstance(v, (int, Fraction)) for v in series.coeffs.values()
    )


def _wrap(rec, name, fn):
    # series_log is split by its argument's coefficient type, so its span
    # name is only known once the argument is seen.
    if name == "symseries.series_log":
        def wrapper(series):
            kind = ".exact" if is_exact_series(series) else ".mp"
            with rec.span(name + kind):
                return fn(series)
    elif name == "zeta_numerics.prime_zeta_taylor":
        def wrapper(r, nmax, digits=50):
            with rec.span(name):
                got = fn(r, nmax, digits)
            # an installed cache entry comes back as the stored object
            installed = sys.modules["zetamoments.zeta_numerics"]._installed_pzeta
            if got is installed.get(r):
                rec.counts[name + ".cache_served"] += 1
            return got
    elif name == "zeta_numerics.primes_upto":
        def wrapper(x):
            with rec.span(name):
                got = fn(x)
            rec.counts["moments.head_primes"] = max(
                rec.counts["moments.head_primes"], len(got)
            )
            return got
    elif name == "cli.load_cache":
        def wrapper(root):
            with rec.span(name):
                got = fn(root)
            rec.counts[name + ".entries"] = sum(got.values())
            return got
    else:
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _loaded_modules():
    return [
        mod for modname, mod in sorted(sys.modules.items())
        if mod is not None
        and (modname == "zetamoments" or modname.startswith("zetamoments."))
    ]


@contextmanager
def instrument(rec):
    """Rebind every target in every loaded zetamoments module; restore on exit.

    A module that imported a function by name holds its own reference, so
    each module attribute that is the original object is replaced.
    """
    saved = []  # (module, attribute, original)
    try:
        for modname, attr, name in TARGETS:
            home = sys.modules[modname]
            orig = getattr(home, attr)
            wrapped = _wrap(rec, name, orig)
            for mod in _loaded_modules():
                if getattr(mod, attr, None) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        yield rec
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
