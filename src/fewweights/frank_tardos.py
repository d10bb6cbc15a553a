"""Sign-preserving coefficient reduction via exact lattice basis reduction.

Given an integer vector ``w`` and a norm budget ``N``, :func:`frank_tardos_reduce`
returns an integer vector ``v`` with ``sign(w . b) == sign(v . b)`` for every
integer vector ``b`` of l1-norm at most ``N``, and with ``max |v_i|`` bounded
by ``2**(4 r**3) * N**(r**2 + 2 r)`` in dimension ``r``.

The construction rounds the normalized vector to a simultaneous Diophantine
approximation ``p / q`` good enough that inner products with small ``b``
cannot cross an integer boundary, then recurses on the approximation residue
and stitches the levels together with a multiplier large enough that lower
levels only ever break ties.  LLL on the standard ``(r+1)``-dimensional
lattice supplies the approximation's multiplier ``q``, and ``p`` is ``q``
times the normalized row, rounded.  Rows, approximations and levels are
plain ints: a level's row ``w`` stands for ``w / m`` with ``m = max |w_i|``,
and its residue is the row ``q * w - m * p``.  Only LLL's Gram-Schmidt state
is rational, kept as reduced ``(numerator, denominator)`` pairs of ints.

The reduction never makes a row longer, by one rule: the answer is the
exact row (the vector divided by the gcd of its entries, which keeps every
sign) unless a lattice row strictly shorter than it is finished within the
LLL work budget.  A level whose row, divided by its gcd, has its largest
entry within the multiplier bound ``Q`` is approximated exactly, without
LLL; at the first level that makes the lattice row the exact row itself.
The levels keep a lower bound on the lattice row's largest entry, and the
loop stops as soon as it reaches the exact row's, so LLL is never run for a
row that cannot be shorter.  The exact row is no longer than the lattice
row would be, so the size bound above holds whenever a lattice row is
finished.

LLL's work on one row is budgeted: each Lovasz test and size reduction is
charged the bit length of the largest number it reads, and a row that
spends ``_LLL_WORK`` leaves its lattice row unfinished.  The exact row keeps
every sign, but it meets the size bound only when its entries do; if they
do not, the reduction raises ``GuardError("kernel.lll")``.
"""
from __future__ import annotations

from contextvars import ContextVar
from math import gcd, inf, lcm
from operator import index

from .core import GuardError, InternalError, InvariantError, _check_int, _shown

__all__ = ["lll_reduce", "simultaneous_approximation", "frank_tardos_reduce"]

_DELTA = (3, 4)
# LLL work one row may spend over all its levels, in the bits the module
# docstring charges.  No row of the benchmark's kernel-sweep (seeds
# 1-10, 2080 rows) spends more than 5,856,976, 24.4 % of it.  The 100-item
# 24x24 knapsack at 2^1024, whose unbounded LLL calls took 30-42 s each,
# kernelizes in about 4 s (Python 3.11.7, 2 vCPUs).
_LLL_WORK = 24_000_000


class _OutOfWork(Exception):
    """A lattice row spent its LLL work budget."""


class _Work:
    """LLL work left to spend; :meth:`spend` raises :class:`_OutOfWork` once
    it runs out."""

    __slots__ = ("left",)

    def __init__(self, left):
        self.left = left

    def spend(self, bits: int) -> None:
        self.left -= bits
        if self.left < 0:
            raise _OutOfWork


# the budget of the lattice row being reduced; LLL outside one is unbounded
_work: ContextVar[_Work | None] = ContextVar("lll_work", default=None)


def _ratio(num: int, den: int) -> tuple[int, int]:
    """The pair ``num / den`` in lowest terms; ``den`` must be positive."""
    g = gcd(num, den)
    if g == 1:
        return num, den
    return num // g, den // g


def _mul_add(x, c, y) -> tuple[int, int]:
    """``x + c * y`` on reduced ``(numerator, denominator)`` pairs with
    positive denominators.  The gcds are taken on the factors before they
    are multiplied (Knuth, TAOCP 4.5.1), so they stay on the smaller numbers."""
    yn, yd = y
    cn, cd = c
    if not (yn and cn):
        return x
    g1 = gcd(cn, yd)
    g2 = gcd(yn, cd)
    pn = (cn // g1) * (yn // g2)
    pd = (cd // g2) * (yd // g1)
    xn, xd = x
    if not xn:
        return pn, pd
    if xd == pd:
        return _ratio(xn + pn, pd)
    g = gcd(xd, pd)
    if g == 1:
        return xn * pd + pn * xd, xd * pd
    s = xd // g
    t = xn * (pd // g) + pn * s
    g = gcd(t, g)
    return t // g, s * (pd // g)


def _gram_schmidt(b):
    """Gram-Schmidt coefficients mu and squared orthogonal norms as reduced
    pairs, by the scalar recurrence on the integer Gram matrix:
    ``r_ij = <b_i, b_j> - sum_{l<j} mu_jl r_il``, ``mu_ij = r_ij / B_j`` and
    ``B_i = <b_i, b_i> - sum_{j<i} mu_ij r_ij``."""
    n = len(b)
    mu = [[(0, 1)] * n for _ in range(n)]
    norms = []
    for i, row in enumerate(b):
        r = []  # r[j] = mu_ij * B_j
        for j in range(i):
            rij = (sum(x * y for x, y in zip(row, b[j])), 1)
            for l in range(j):
                ln, ld = mu[j][l]
                rij = _mul_add(rij, (-ln, ld), r[l])
            r.append(rij)
            bn, bd = norms[j]
            mu[i][j] = _ratio(rij[0] * bd, rij[1] * bn)
        norm = (sum(x * x for x in row), 1)
        for j in range(i):
            mn, md = mu[i][j]
            norm = _mul_add(norm, (-mn, md), r[j])
        if not norm[0]:
            raise InvariantError("lll.basis", f"row {i} is zero or depends on the rows before it")
        norms.append(norm)
    return mu, norms


def lll_reduce(basis) -> list[list[int]]:
    """LLL with incremental coefficient updates (no re-orthogonalization).

    Rows must be independent integer vectors of one length, or
    ``InvariantError("lll.basis")`` is raised.  Returns a new reduced basis
    of ``int`` rows spanning the same lattice.  The Gram-Schmidt quantities
    are exact rationals kept as reduced ``(numerator, denominator)`` pairs
    of ints, which makes the same decisions as ``Fraction`` arithmetic
    without its per-operation object overhead.  Inside a lattice row of
    :func:`frank_tardos_reduce` each Lovasz test and size reduction is
    charged to that row's work budget; called directly it is unbounded."""
    b = [[index(x) for x in row] for row in basis]
    n = len(b)
    if len({len(row) for row in b}) > 1:
        raise InvariantError("lll.basis", "rows of unequal length")
    dn, dd = _DELTA
    work = _work.get() or _Work(inf)
    mu, norms = _gram_schmidt(b)

    def size_reduce(k: int, l: int) -> None:
        mk, ml = mu[k], mu[l]
        a, d = mk[l]
        work.spend(max(abs(a), d).bit_length())
        q = (2 * a + d) // (2 * d)  # floor(mu + 1/2)
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            for j in range(l):
                mk[j] = _mul_add(mk[j], (-q, 1), ml[j])
            mk[l] = (a - q * d, d)

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        mn, md = mu[k][k - 1]
        bn, bd = norms[k]
        cn, cd = norms[k - 1]
        work.spend(max(bn, bd, cn, cd, md).bit_length())
        md2 = md * md
        # Lovasz test B_k < (delta - mu^2) B_{k-1}, denominators multiplied out
        if bn * dd * md2 * cd < (dn * md2 - dd * mn * mn) * cn * bd:
            # swap rows k-1 and k, updating mu and the orthogonal norms in place
            lifted = _ratio(bn * md2 * cd + mn * mn * cn * bd, bd * md2 * cd)
            ln, ld = lifted
            swapped = _ratio(mn * cn * ld, md * cd * ln)
            norms[k] = _ratio(cn * bn * ld, cd * bd * ln)
            norms[k - 1] = lifted
            mu[k][k - 1] = swapped
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            neg = (-mn, md)
            for i in range(k + 1, n):
                mi = mu[i]
                t = mi[k]
                mi[k] = _mul_add(mi[k - 1], neg, t)
                mi[k - 1] = _mul_add(t, swapped, mi[k])
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def _multiplier_bound(r: int, k: int) -> int:
    """``Q = 2**ceil(r(r+1)/4) * k**r``: the largest multiplier
    :func:`simultaneous_approximation` may return in dimension ``r`` at
    precision ``1/k``."""
    return 2 ** -((-r * (r + 1)) // 4) * k**r


def simultaneous_approximation(v, k: int):
    """Integers ``(p, q)`` with ``k * |q * v_i - p_i * m| <= m`` for all
    ``i``, where ``m = max |v_i|``, and ``1 <= q <= 2**ceil(r(r+1)/4) * k**r``:
    ``p / q`` approximates ``v / m`` within ``1/k``.

    ``v`` must be a nonzero integer vector and ``k >= 2``.  The lattice
    supplies ``q``: it is read off the last coordinate of the first vector of
    an LLL-reduced basis of the lattice spanned by the unit rows and
    ``(-v / m, 1 / (k Q))``, scaled to integers.  Each ``p_i`` is then the
    nearest integer to ``q * v_i / m``, halves up.  For ``k >= 3`` that is
    the ``p`` the vector encodes, as ``|q * v_i / m - p_i| <= 1/k < 1/2``.
    """
    v = [index(x) for x in v]
    r = len(v)
    if not any(v):
        raise InvariantError("sda.dim", "need a nonzero vector")
    _check_int("sda.eps", "precision k", k, 2)
    g = gcd(*v)
    v = [x // g for x in v]
    m = max(abs(x) for x in v)
    q_bound = _multiplier_bound(r, k)

    # the lattice scaled to integers, as lll_reduce needs; reduction commutes
    # with uniform scaling
    scale = lcm(k * q_bound, m)
    step = scale // m  # 1 / m, scaled
    c = scale // (k * q_bound)
    basis = [[scale if j == i else 0 for j in range(r + 1)] for i in range(r)]
    basis.append([-x * step for x in v] + [c])

    last = lll_reduce(basis)[0][r]
    q, rest = divmod(last, c)
    if rest:
        raise InternalError(
            "sda.q-integral", f"last coordinate {_shown(last)} is no multiple of {_shown(c)}"
        )
    if q == 0:
        raise InternalError("sda.q-zero", "reduced vector has a zero multiplier")
    q = abs(q)
    p = [(2 * q * x + m) // (2 * m) for x in v]
    if any(k * abs(q * x - pi * m) > m for x, pi in zip(v, p)):
        raise InternalError(
            "sda.quality", f"q = {_shown(q)} does not approximate within 1/{_shown(k)}"
        )
    if q > q_bound:
        raise InternalError("sda.q-bound", f"multiplier {_shown(q)} exceeds {_shown(q_bound)}")
    return p, q


def frank_tardos_reduce(weights, n_bound: int) -> list[int]:
    """Reduce an integer vector to a small integer vector agreeing in sign
    with it against every integer ``b`` with ``sum |b_i| <= n_bound``.

    Equal input coordinates are collapsed before reduction and re-expanded
    afterwards; grouping the entries of any ``b`` can only lower its l1-norm,
    so the contract carries over and equal coordinates provably stay equal.

    One rule decides the result: it is the exact row (the distinct entries
    divided by their gcd) unless the lattice row is strictly shorter and its
    LLL calls finish within their work budget, so ``max |v_i|`` never
    exceeds that of the exact row.  A row whose budget runs out raises
    ``GuardError("kernel.lll")`` instead when the exact row's largest entry
    exceeds the size bound ``2**(4 r**3) * N**(r**2 + 2 r)`` for its ``r``
    distinct entries.
    """
    entries = [index(x) for x in weights]
    if not entries:
        raise InvariantError("ft.dim", "cannot reduce an empty vector")
    _check_int("ft.bound", "norm budget", n_bound, 1)
    distinct = sorted(set(entries))
    g = gcd(*distinct) or 1
    exact = [v // g for v in distinct]
    ceiling = max(abs(v) for v in exact)
    k = 2 * n_bound
    q_bound = _multiplier_bound(len(exact), k)
    w, levels = exact, []
    # lower bound on the lattice row's largest entry: at a level's argmax
    # coordinate |out| >= scale * q - M >= (2N - 1) * q * M, where M is the
    # largest entry of the deeper row, and M >= 1 when the residue is nonzero
    least = 1
    token = _work.set(_Work(_LLL_WORK))
    try:
        while any(w) and least < ceiling:
            g = gcd(*w)
            w = [x // g for x in w]
            m = max(abs(x) for x in w)
            if m <= q_bound:
                # w / m is exact within the multiplier bound: no residue
                p, q = w, m
            else:
                p, q = simultaneous_approximation(w, k)
            # coordinates at the max (and all zeros) round exactly, so the support
            # strictly shrinks and the loop ends after at most dim(w) levels
            w = [q * x - m * pi for x, pi in zip(w, p)]
            least *= q * (k - 1 if any(w) else 1)
            levels.append(p)
    except _OutOfWork:
        r = len(exact)
        bits = 4 * r**3
        # below 2**bits the bound holds without being computed
        if ceiling.bit_length() > bits and ceiling > 2**bits * n_bound ** (r * r + 2 * r):
            raise GuardError(
                "kernel.lll",
                f"LLL work budget spent in dimension {r}, and the exact row's largest"
                f" entry, of {ceiling.bit_length()} bits, exceeds 2^(4r^3) * N^(r^2 + 2r)",
            ) from None
        least = ceiling  # the exact row
    finally:
        _work.reset(token)
    reduced = exact
    if least < ceiling:
        out = [0] * len(exact)
        for p in reversed(levels):
            scale = k * max(abs(x) for x in out) + 1
            out = [scale * pi + di for pi, di in zip(p, out)]
        if max(abs(x) for x in out) < ceiling:
            reduced = out
    lookup = dict(zip(distinct, reduced))
    return [lookup[v] for v in entries]
