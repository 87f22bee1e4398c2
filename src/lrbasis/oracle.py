"""Independent multiplicity counts by the Kostka-Steinberg sum.

The Littlewood-Richardson coefficient is an alternating sum of Kostka
numbers, c^lam_{mu,nu} = sum over permutations w of sgn(w) K(nu, w(lam +
delta) - (mu + delta)), where delta = (n - 1, ..., 1, 0) for n rows and a
Kostka number K(nu, alpha) counts the semistandard tableaux of shape nu
and content alpha, by removing horizontal strips.  Nothing here shares
logic with the tableau module, so the two can check each other.
"""

from functools import lru_cache
from math import factorial

from .errors import NegativeCoefficient, NotSymmetric, TooFewVariables
from .polyring import Layout, Polynomial, zvar
from .shapes import Partition


def _strips(shape, k, row=0):
    """The shapes mu with shape/mu a horizontal strip of k cells."""
    if row == len(shape):
        if k == 0:
            yield ()
        return
    below = shape[row + 1] if row + 1 < len(shape) else 0
    for take in range(min(k, shape[row] - below), -1, -1):
        for rest in _strips(shape, k - take, row + 1):
            part = shape[row] - take
            yield (part,) + rest if part else rest


@lru_cache(maxsize=None)
def _kostka(shape, content):
    """Number of semistandard tableaux of the shape with the content.

    Both are partitions as tuples.  The entries equal to len(content) form
    a horizontal strip of content[-1] cells; each way of removing it leaves
    a tableau of a smaller shape with content[:-1].
    """
    if len(shape) > len(content):
        return 0
    if not content:
        return 1
    return sum(_kostka(mu, content[:-1]) for mu in _strips(shape, content[-1]))


# The Schur polynomial and the expansion of a symmetric polynomial in
# Schur polynomials: no package code calls them since the Kostka-Steinberg
# sum replaced the product s_D' * s_E', but bench/spans.py wraps both by
# name.  The next benchmark change (ROADMAP item 1) moves them, with their
# helpers, polyring.zvar and the oracle errors, to tests/conftest.py.


@lru_cache(maxsize=None)
def _partitions(n, maxparts, maxpart):
    """Partitions of n with at most maxparts parts, each at most maxpart."""
    if n == 0:
        return ((),)
    if maxparts == 0:
        return ()
    return tuple((first,) + rest
                 for first in range(min(n, maxpart), 0, -1)
                 for rest in _partitions(n - first, maxparts - 1, first))


def _dominates(lam, mu):
    """Whether lam dominates mu; both are partitions of the same size."""
    a = b = 0
    for i in range(len(mu)):
        a += lam[i] if i < len(lam) else 0
        b += mu[i]
        if a < b:
            return False
    return True


def _rearrangements(vec):
    """The distinct rearrangements of a tuple, each once."""
    counts = {}
    for v in vec:
        counts[v] = counts.get(v, 0) + 1
    cur = []

    def rec():
        if len(cur) == len(vec):
            yield tuple(cur)
            return
        for v, m in counts.items():
            if m:
                counts[v] = m - 1
                cur.append(v)
                yield from rec()
                cur.pop()
                counts[v] = m

    return rec()


def _rearrangement_count(vec):
    """The number of distinct rearrangements of a tuple."""
    out = factorial(len(vec))
    for v in set(vec):
        out //= factorial(vec.count(v))
    return out


@lru_cache(maxsize=None)
def _ssyt_monomials(shape, nvars):
    """Weight vectors of all semistandard tableaux of the given shape.

    Returns a dict {weight tuple: multiplicity}; entries are 1..nvars,
    rows weakly increase, columns strictly increase.  Each weight is a
    rearrangement of a partition alpha and has multiplicity K(shape, alpha).
    """
    shape = tuple(shape)
    counts = {}
    if len(shape) > nvars:
        return counts
    for alpha in _partitions(sum(shape), nvars, shape[0] if shape else 0):
        if _dominates(shape, alpha):
            k = _kostka(shape, alpha)
            for w in _rearrangements(alpha + (0,) * (nvars - len(alpha))):
                counts[w] = k
    return counts


def _z_layout(nvars, degree):
    return Layout([zvar(i) for i in range(1, nvars + 1)], degree)


def schur_polynomial(lam, nvars, layout=None):
    """The Schur polynomial of the partition in z[1..nvars], packed in the
    given layout, by default one for z[1..nvars] and degree |lam|."""
    lam = Partition(lam)
    if nvars < 1:
        raise TooFewVariables("need at least one variable")
    layout = layout or _z_layout(nvars, lam.size)
    if lam.depth > nvars:
        return Polynomial({}, layout)
    shifts = [layout.shift[zvar(i)] for i in range(1, nvars + 1)]
    # no exponent passes lam_1, that of z[1] when the first row is all 1s
    layout.check([lam.width << shifts[0]])
    return Polynomial({sum(e << s for e, s in zip(w, shifts)): c
                       for w, c in _ssyt_monomials(lam.parts, nvars).items()},
                      layout)


def _symmetric_part(p, nvars):
    """p as {partition: coefficient} in the monomial symmetric basis.

    Raises NotSymmetric unless every rearrangement of each exponent vector
    of p occurs, with the same coefficient.
    """
    lay, mask = p.layout, p.layout.mask
    shifts = [lay.shift[zvar(i)] for i in range(1, nvars + 1) if zvar(i) in lay.shift]
    others = ~sum(mask << s for s in shifts)
    absent = (0,) * (nvars - len(shifts))    # z[i] not in the layout
    groups = {}
    for m, c in p.terms.items():
        if m & others:
            fam, i, _ = lay.unpack(m & others)[0][0]
            raise NotSymmetric(f"unexpected variable {(fam, i)}")
        w = sorted([(m >> s) & mask for s in shifts], reverse=True)
        groups.setdefault(tuple(w) + absent, []).append(c)
    out = {}
    for top, coeffs in groups.items():
        # the terms of a group are distinct rearrangements of top, so they
        # are all of them exactly when there are as many as top has
        if len(coeffs) != _rearrangement_count(top) or len(set(coeffs)) > 1:
            raise NotSymmetric(f"the rearrangements of exponent {top} do "
                               f"not all have coefficient {coeffs[0]}")
        out[tuple(x for x in top if x)] = coeffs[0]
    return out


def expand_in_schur(p, nvars):
    """Write p as a sum of Schur polynomials; {partition: coefficient}.

    Checks that p is symmetric, then repeatedly subtracts c * s_mu where
    z^mu is the lex-greatest surviving partition exponent, one Kostka
    number K(mu, alpha) per partition alpha below it.  Raises NotSymmetric
    for non-symmetric p and NegativeCoefficient when some c < 0, either of
    which means p was not a nonnegative combination.
    """
    work = _symmetric_part(p, nvars)
    out = {}
    while work:
        mu = max(work)
        c = work[mu]
        if c < 0:
            raise NegativeCoefficient(f"coefficient of s_{mu} is {c}")
        out[Partition(mu)] = c
        for alpha in _partitions(sum(mu), nvars, mu[0] if mu else 0):
            if _dominates(mu, alpha):
                rest = work.get(alpha, 0) - c * _kostka(mu, alpha)
                if rest:
                    work[alpha] = rest
                else:
                    work.pop(alpha, None)
    return out


def lr_coefficient(triple):
    """Multiplicity of transpose(F) in s_{transpose(D)} * s_{transpose(E)}.

    That is c^F_{D,E}, and also c^{F'}_{D',E'}: the Kostka-Steinberg sum
    takes (lam, mu, nu) = (F, D, E), or (F', D', E') when F' has fewer
    rows, and picks w one row at a time.  A row whose content part is
    negative, or past nu_1 where no tableau of shape nu has one, ends
    that branch.
    """
    lam, mu, nu = triple.F, triple.D, triple.E
    if lam.width < lam.depth:
        lam, mu, nu = triple.Ft, triple.Dt, triple.Et
    if not (lam.contains(mu) and lam.contains(nu)):
        return 0
    n = lam.depth
    lam_d = [lam.part(i) + n - i for i in range(1, n + 1)]
    mu_d = [mu.part(i) + n - i for i in range(1, n + 1)]
    top = nu.width

    def alternating(row, free, content):
        if row == n:
            return _kostka(nu.parts, tuple(sorted(content, reverse=True)))
        total = 0
        for k, j in enumerate(free):
            part = lam_d[j] - mu_d[row]
            if 0 <= part <= top:
                rest = alternating(row + 1, free[:k] + free[k + 1:],
                                   content + [part] if part else content)
                # taking the k-th free row adds k inversions to w
                total += -rest if k % 2 else rest
        return total

    return alternating(0, list(range(n)), [])
