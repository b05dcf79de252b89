"""Oracle routes no request imports: d_table_symbolic, the d-table's oracle."""

from fractions import Fraction

from .partitions import _check_index
from .symseries import POWERSUM, PairSeries, _plan, p_to_schur, series_exp


class WPoly:
    """Polynomial with rational coefficients in formal per-key symbols.

    terms maps each monomial, a sorted tuple of (mu, nu) keys read as a
    multiset, to its coefficient.  The symbolic d-table uses these to keep
    the exact dependence of every Schur coefficient on the W values visible
    instead of substituting numbers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(sorted(mono))] = Fraction(c)

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def symbol(cls, mu, nu):
        return cls({((tuple(mu), tuple(nu)),): 1})

    def substitute(self, values):
        tot = 0
        for mono, c in self.terms.items():
            prod = c
            for key in mono:
                prod = prod * values[key]
            tot = prod + tot
        return tot

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, WPoly):
            return self.terms == other.terms
        if not self.terms:
            return other == 0
        only = self.terms.get(())
        return len(self.terms) == 1 and only is not None and only == other

    def __add__(self, other):
        if not isinstance(other, WPoly):
            other = WPoly.constant(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        ret = WPoly()
        ret.terms = out
        return ret

    __radd__ = __add__

    def __neg__(self):
        ret = WPoly()
        ret.terms = {m: -c for m, c in self.terms.items()}
        return ret

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, WPoly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(sorted(m1 + m2))
                    s = out.get(mono, 0) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            ret = WPoly()
            ret.terms = out
            return ret
        if not other:
            return WPoly()
        ret = WPoly()
        ret.terms = {m: c * other for m, c in self.terms.items()}
        return ret

    __rmul__ = __mul__

    def __repr__(self):
        return "WPoly(%r)" % (self.terms,)


def d_table_symbolic(n_max):
    """Schur-basis coefficients as explicit polynomials in the W symbols.

    Runs the same exponential and basis change as d_table but with one
    formal symbol per nonempty key, so each entry comes back as a WPoly with
    rational coefficients.  The overall factor exp of the empty-key W is not
    polynomial and stays outside: numeric d equals that factor times the
    substituted entry.  Kept to small weights, where the expansion is
    readable; the numeric pipeline covers the rest.
    """
    _check_index(n_max, "n_max")
    if n_max > 3:
        raise ValueError("symbolic mode is limited to n_max <= 3")
    sym = {
        key: WPoly.symbol(*key)
        for key in _plan(n_max).keys[1:]
    }
    sser = p_to_schur(series_exp(PairSeries(POWERSUM, n_max, sym)))
    out = {}
    for kap, lam in _plan(n_max).keys:
        got = sser.get(kap, lam)
        out[(kap, lam)] = got if isinstance(got, WPoly) else WPoly.constant(got)
    return out
