from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import l1_ball, sign
from fewweights import frank_tardos
from fewweights.core import GuardError, InvariantError
from fewweights.frank_tardos import (
    frank_tardos_reduce,
    lll_reduce,
    simultaneous_approximation,
)
from fewweights.generators import gen_knapsack
from fewweights.kernel import group


def norm_bound(r: int, n: int) -> int:
    return 2 ** (4 * r**3) * n ** (r**2 + 2 * r)


def assert_signs_preserved(w, reduced, n_bound):
    for b in l1_ball(len(w), n_bound):
        got = sign(sum(x * y for x, y in zip(reduced, b)))
        want = sign(sum(x * y for x, y in zip(w, b)))
        assert got == want, (w, reduced, b)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _reference_gram_schmidt(basis):
    n = len(basis)
    ortho = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i, row in enumerate(basis):
        v = [Fraction(x) for x in row]
        for j in range(i):
            coeff = _dot(row, ortho[j]) / norms[j]
            mu[i][j] = coeff
            v = [x - coeff * y for x, y in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(_dot(v, v))
    return mu, norms


def _reference_lll(basis, delta=Fraction(3, 4)):
    """Textbook LLL on Fraction vectors: Gram-Schmidt by vector
    orthogonalization, then the same size reduction, Lovasz test and swap
    update as the library.  A slow oracle for bit-identity only."""
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _reference_gram_schmidt(b)

    def size_reduce(k, l):
        m = mu[k][l]
        q = (2 * m.numerator + m.denominator) // (2 * m.denominator)
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            for j in range(l):
                mu[k][j] -= q * mu[l][j]
            mu[k][l] -= q

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if norms[k] < (delta - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            coeff = mu[k][k - 1]
            lifted = norms[k] + coeff * coeff * norms[k - 1]
            mu[k][k - 1] = coeff * norms[k - 1] / lifted
            norms[k] = norms[k - 1] * norms[k] / lifted
            norms[k - 1] = lifted
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - coeff * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def _assert_matches_reference(basis):
    out = lll_reduce(basis)
    assert all(type(x) is int for row in out for x in row)
    assert out == _reference_lll(basis)


def _recorded_bases(monkeypatch, run):
    """Every basis that ``run()`` hands to ``lll_reduce``."""
    bases = []
    real = frank_tardos.lll_reduce

    def recorder(basis, *args):
        bases.append([list(row) for row in basis])
        return real(basis, *args)

    with monkeypatch.context() as m:
        m.setattr(frank_tardos, "lll_reduce", recorder)
        run()
    return bases


def _sda_vector(bits, dim, seed):
    """A coefficient row as ``reduce_ilp`` builds it: the distinct weights of
    a ``gen_knapsack`` instance and the negated capacity; plus its budget."""
    inst = gen_knapsack(dim + 4, dim - 1, 1, 2**bits, seed)
    vec = sorted({it.weight for it in inst.items}) + [-inst.capacity]
    return vec, len(inst.items) + 1


def _residue_chain_bases(monkeypatch, vec, budget):
    """Every basis of the Frank-Tardos residue chain of ``vec``: each level
    runs ``simultaneous_approximation`` until the residue is zero, whether or
    not the library would stop there.  A level's row ``w`` stands for
    ``w / max |w_i|``, so its residue is ``q * w - m * p``."""

    def run():
        w = sorted(set(vec))
        while any(w):
            g = gcd(*w)
            w = [x // g for x in w]
            m = max(abs(x) for x in w)
            p, q = simultaneous_approximation(w, 2 * budget)
            w = [q * x - m * pi for x, pi in zip(w, p)]

    return _recorded_bases(monkeypatch, run)


def _exact_row(vec):
    """The row the reduction falls back to: the entries divided by their
    gcd, in the input's order."""
    g = gcd(*vec) or 1
    return [v // g for v in vec]


class TestLLL:
    def test_reduces_a_classic_basis(self):
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        out = lll_reduce(basis)
        first_norm = sum(x * x for x in out[0])
        assert first_norm <= sum(x * x for x in basis[0])

    def test_span_is_preserved(self):
        basis = [[4, 1], [1, 3]]
        out = lll_reduce(basis)

        def int_coords(target, rows):
            # solve c * rows == target over the rationals, demand integers
            (a, b), (c, d) = rows
            det = a * d - b * c
            x = Fraction(target[0] * d - target[1] * c, det)
            y = Fraction(target[1] * a - target[0] * b, det)
            return x.denominator == 1 and y.denominator == 1

        for row in out:
            assert int_coords(row, basis)
        for row in basis:
            assert int_coords(row, out)

    def test_single_row(self):
        assert lll_reduce([[5, 7]]) == [[5, 7]]


class TestLLLMatchesReference:
    def test_random_independent_bases(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            n = rng.randrange(1, 7)
            bound = 2 ** rng.randrange(2, 65)
            basis = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
            if any(norm == 0 for norm in _reference_gram_schmidt(basis)[1]):
                continue
            _assert_matches_reference(basis)
            checked += 1

    # every level of the residue chain, and how deep each draw's chain goes.
    # The library stops early where the exact row is within the multiplier
    # bound or provably shorter, so the chain is walked here level by level
    CHAIN_LEVELS = {
        (64, 3): 3, (64, 5): 5, (64, 9): 2, (64, 13): 1, (64, 17): 1,
        (256, 3): 3, (256, 5): 5, (256, 9): 9,
    }

    @pytest.mark.parametrize("bits,dim", list(CHAIN_LEVELS))
    def test_sda_bases_of_every_level(self, monkeypatch, bits, dim):
        vec, budget = _sda_vector(bits, dim, 7 * dim + bits)
        bases = _residue_chain_bases(monkeypatch, vec, budget)
        assert len(bases) == self.CHAIN_LEVELS[bits, dim]
        assert all(len(b) == dim + 1 for b in bases)
        for basis in bases:
            _assert_matches_reference(basis)
        # the library runs a prefix of the same chain
        ran = _recorded_bases(monkeypatch, lambda: frank_tardos_reduce(vec, budget))
        assert ran == bases[: len(ran)]

    # first level only: at 256 bits and dimension 13 the reference takes
    # seconds per level, and about 13 levels
    def test_sda_basis_first_level_wide(self, monkeypatch):
        dim = 13
        vec, budget = _sda_vector(256, dim, 7 * dim + 256)
        run = lambda: simultaneous_approximation(vec, 2 * budget)  # noqa: E731
        (basis,) = _recorded_bases(monkeypatch, run)
        _assert_matches_reference(basis)


class TestSimultaneousApproximation:
    @pytest.mark.parametrize("seed", range(10))
    def test_quality_and_multiplier_bound(self, seed):
        rng = random.Random(seed)
        r = rng.randrange(1, 5)
        v = [rng.randrange(-1000, 1001) for _ in range(r)]
        if not any(v):
            v[0] = 1
        k = rng.randrange(2, 12)
        p, q = simultaneous_approximation(v, k)
        assert q >= 1
        exponent = -((-r * (r + 1)) // 4)
        assert q <= 2**exponent * k**r
        m = max(abs(x) for x in v)
        for x, pi in zip(v, p):
            assert abs(q * Fraction(x, m) - pi) <= Fraction(1, k)

    @pytest.mark.parametrize("v", [[], [0], [0, 0, 0]])
    def test_rejects_zero_vector(self, v):
        with pytest.raises(InvariantError) as err:
            simultaneous_approximation(v, 4)
        assert err.value.code == "sda.dim"

    def test_rejects_bad_eps(self):
        # the precision is eps = 1/k, which must lie in (0, 1)
        for k in (1, 0, -3):
            with pytest.raises(InvariantError) as err:
                simultaneous_approximation([1, 2], k)
            assert err.value.code == "sda.eps"

    # alpha is approximated together with 1, as the row v = (1, 3).  At
    # k = 4 the multiplier bound is Q = 2**2 * 4**2 = 64 and the lattice is
    # scaled by lcm(k Q, 3) = 768, so its last row is (-256, -768, 3): a
    # reduced first row (x, y, z) gives q = |z| / 3, and p is q * (1, 3) / 3
    # rounded, whatever x and y are
    @pytest.mark.parametrize(
        "alpha,first,code",
        [
            (Fraction(1, 3), [0, 0, 1], "sda.q-integral"),
            (Fraction(1, 3), [0, 0, 0], "sda.q-zero"),
            (Fraction(1, 3), [0, 0, -198], "sda.q-bound"),  # q = |-66|
            (Fraction(1, 3), [-256, 0, 3], "sda.quality"),
            (Fraction(1, 3), [0, 0, 198], "sda.q-bound"),
        ],
    )
    def test_output_checks_raise(self, monkeypatch, alpha, first, code):
        monkeypatch.setattr(frank_tardos, "lll_reduce", lambda basis: [first])
        with pytest.raises(InvariantError) as err:
            simultaneous_approximation([alpha.numerator, alpha.denominator], 4)
        assert err.value.code == code

    # for k >= 3 a vector that passes the quality check has
    # |q v_i / m - p_i| <= 1/k < 1/2, so rounding q v / m gives back the p the
    # lattice vector encodes: first = a_r * last_row + scale * a, with
    # (p, q) = (a, a_r) up to the sign of a_r
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4).filter(any),
        st.integers(3, 16),
    )
    def test_p_is_the_lattice_vectors_p(self, values, k):
        g = gcd(*values)
        v = [x // g for x in values]
        calls = []
        real = frank_tardos.lll_reduce

        def recorder(basis):
            out = real(basis)
            calls.append((basis, out[0]))
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(frank_tardos, "lll_reduce", recorder)
            p, q = simultaneous_approximation(v, k)
        ((basis, first),) = calls
        r = len(v)
        scale, last_row = basis[0][0], basis[r]
        a_r = first[r] // last_row[r]
        assert q == abs(a_r)
        encoded = []
        for x, y in zip(first[:r], last_row):
            a_i, rest = divmod(x - a_r * y, scale)
            assert rest == 0
            encoded.append(a_i if a_r > 0 else -a_i)
        assert p == encoded

    # at k = 2 both neighbours of a half pass the quality check; rounding
    # takes the upper one.  The stub returns the lattice's own last row, whose
    # multiplier is q = 1, so on v = (1, 2) q v / m = (1/2, 1)
    def test_half_at_k2_meets_the_contract(self, monkeypatch):
        v, k = [1, 2], 2
        monkeypatch.setattr(frank_tardos, "lll_reduce", lambda basis: [basis[-1]])
        p, q = simultaneous_approximation(v, k)
        assert (p, q) == ([1, 1], 1)
        m = max(abs(x) for x in v)
        assert all(k * abs(q * x - pi * m) <= m for x, pi in zip(v, p))
        assert 1 <= q <= 2**2 * k**2


class TestFrankTardosReduce:
    def test_single_positive(self):
        out = frank_tardos_reduce([5], 2)
        assert len(out) == 1 and out[0] > 0

    def test_order_preserved(self):
        out = frank_tardos_reduce([3, 5], 2)
        assert 0 < out[0] < out[1]
        assert_signs_preserved([3, 5], out, 2)

    def test_equal_stay_equal(self):
        out = frank_tardos_reduce([1, 1], 3)
        assert out[0] == out[1] > 0

    def test_zero_vector(self):
        assert frank_tardos_reduce([0, 0, 0], 2) == [0, 0, 0]

    def test_zeros_stay_zero_signs_hold(self):
        w = [7, 0, -7]
        out = frank_tardos_reduce(w, 3)
        assert out[1] == 0 and out[0] > 0 > out[2] and out[0] == -out[2]
        assert_signs_preserved(w, out, 3)

    def test_common_factor_and_repeated_entry(self):
        w = [15 * 6, -14 * 6, 0, 15 * 6]
        out = frank_tardos_reduce(w, 3)
        assert all(type(v) is int for v in out)
        assert out[0] == out[3]
        assert out == frank_tardos_reduce([15, -14, 0, 15], 3)
        assert_signs_preserved(w, out, 3)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            frank_tardos_reduce([Fraction(3, 7), 1], 3)

    @pytest.mark.parametrize("seed", range(30))
    def test_exhaustive_small_scale(self, seed):
        rng = random.Random(1000 + seed)
        r = rng.randrange(1, 4)
        n_bound = rng.randrange(1, 5)
        w = [rng.choice([1, -1]) * rng.randrange(1, 10**6) for _ in range(r)]
        out = frank_tardos_reduce(w, n_bound)
        assert max(abs(v) for v in out) <= norm_bound(r, n_bound)
        assert_signs_preserved(w, out, n_bound)

    def test_huge_values_shrink(self):
        w = [2**64 - 1, 2**64 - 1, -(2**70)]
        out = frank_tardos_reduce(w, 13)
        assert out[0] == out[1] > 0 > out[2]
        assert max(abs(v) for v in out) < 2**40
        assert_signs_preserved(w, out, 5)

    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            frank_tardos_reduce([], 2)

    def test_spent_lll_budget_gives_the_exact_row(self, monkeypatch):
        # in dimension 3 the size bound is over 2**108
        w = [2**64 - 1, 3 * 2**62 + 1, -(2**70)]
        assert frank_tardos_reduce(w, 13) != _exact_row(w)
        monkeypatch.setattr(frank_tardos, "_LLL_WORK", 0)
        assert frank_tardos_reduce(w, 13) == _exact_row(w)

    def test_spent_lll_budget_past_the_size_bound_raises(self, monkeypatch):
        # in dimension 2 at N = 1 the size bound is 2**32
        monkeypatch.setattr(frank_tardos, "_LLL_WORK", 0)
        with pytest.raises(GuardError) as err:
            frank_tardos_reduce([2**40 + 1, -(2**40)], 1)
        assert err.value.code == "kernel.lll"
        assert frank_tardos_reduce([2**31 + 1, -(2**31)], 1) == [2**31 + 1, -(2**31)]
        # the spent row's budget does not outlive it: direct calls are unbounded
        assert lll_reduce([[4, 1], [1, 3]]) == _reference_lll([[4, 1], [1, 3]])
        p, q = simultaneous_approximation([2**40 + 1, -(2**40)], 4)
        assert 1 <= q <= 2**2 * 4**2

    def test_exact_row_within_multiplier_bound_skips_lll(self, monkeypatch):
        # 64-bit entries in dimension 13 sit below Q = 2**ceil(13*14/4) * (2N)**13
        vec, budget = _sda_vector(64, 13, 7 * 13 + 64)

        def refuse(*args):
            raise AssertionError("lll_reduce called")

        monkeypatch.setattr(frank_tardos, "lll_reduce", refuse)
        assert frank_tardos_reduce(vec, budget) == _exact_row(vec)

    def test_stops_once_the_lattice_row_cannot_be_shorter(self, monkeypatch):
        # the full residue chain of this row is 9 levels deep
        vec, budget = _sda_vector(256, 9, 7 * 9 + 256)
        calls = []
        real = frank_tardos.simultaneous_approximation

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(frank_tardos, "simultaneous_approximation", counted)
        assert frank_tardos_reduce(vec, budget) == _exact_row(vec)
        assert 1 <= len(calls) < 9

    # rows whose lattice row is longer than the row itself
    @pytest.mark.parametrize(
        "w,n_bound", [([0, 17, 3], 1), ([17, 5], 2), ([17, 14, 0], 1)]
    )
    def test_small_rows_do_not_grow(self, w, n_bound):
        out = frank_tardos_reduce(w, n_bound)
        assert max(abs(v) for v in out) <= max(abs(v) for v in w)
        assert_signs_preserved(w, out, n_bound)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(-20, 20),
                st.integers(-(2**80), 2**80),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 4),
        st.integers(1, 2**20),
        st.integers(1, 12),
        st.randoms(use_true_random=False),
    )
    def test_signs_and_no_growth(self, values, n_bound, factor, d, rng):
        # a common factor and a repeated entry
        w = [v * factor for v in values]
        if len(w) < 4:
            w.insert(rng.randrange(len(w) + 1), rng.choice(w))
        out = frank_tardos_reduce(w, n_bound)
        assert all(type(v) is int for v in out)
        # scaling the row by d >= 1 scales every b . w by d: no sign moves
        assert frank_tardos_reduce([d * x for x in w], n_bound) == out
        largest = max(abs(v) for v in out)
        assert largest <= max(abs(v) for v in _exact_row(w))
        assert largest <= norm_bound(len(w), n_bound)
        assert_signs_preserved(w, out, n_bound)

    def test_rejects_zero_budget(self):
        with pytest.raises(InvariantError):
            frank_tardos_reduce([1], 0)


# the kernel-sweep's gen_knapsack shapes (w# = p# = a at 2**bits)
_ROW_SHAPES = ((2, 64), (3, 64), (4, 64), (8, 64), (2, 256), (3, 256), (4, 256))
# sha256 over the outcome of every row below, at each LLL work budget: the
# reduced row, or the guard's code
_PINNED_ROW_OUTCOMES = "769ced087f831c5f961256120c5117e947a243a25374f65424bfc0418e2407c8"


def _reduce_ilp_rows():
    """The weight row and the profit row ``reduce_ilp`` builds for each
    grouped input, with its norm budget."""
    for seed in range(6):
        for a, bits in _ROW_SHAPES:
            g = group(gen_knapsack(24 + seed % 7, a, a, 2**bits, seed))
            budget = g.item_count + 1
            yield [w for w, _, _ in g.classes] + [-g.capacity], budget
            yield [-p for _, p, _ in g.classes] + [g.target], budget


def test_row_outcomes_pinned(monkeypatch):
    # every exit is taken: a lattice row that is shorter, one that is not,
    # an exact level, a spent LLL budget, and the size-bound guard
    outcomes = []
    exact_rows = []
    guards = []
    for work in (24_000_000, 100_000, 10_000):
        monkeypatch.setattr(frank_tardos, "_LLL_WORK", work)
        exact = guarded = 0
        for row, budget in _reduce_ilp_rows():
            try:
                out = frank_tardos_reduce(row, budget)
            except GuardError as err:
                outcomes.append(err.code)
                guarded += 1
                continue
            outcomes.append(out)
            exact += out == _exact_row(row)
        exact_rows.append(exact)
        guards.append(guarded)
    assert len(outcomes) == 3 * 84
    assert (exact_rows, guards) == ([36, 60, 72], [0, 0, 12])
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == _PINNED_ROW_OUTCOMES
