"""Domain types and base-power arithmetic shared by every other module.

The central objects are knapsack items and instances with arbitrary-precision
natural weights and profits, plus the restricted subset-sum universe: numbers
that are sums of exactly three powers of ``3n + 1``.  Everything here is an
exact integer; there is no floating point anywhere in this package.  All
types are immutable after construction and all operations are pure
functions, so values can be shared freely across parallel workers.
``_check_int`` alone owns the int-argument rule: an int, not a bool, >= a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

__all__ = [
    "Error",
    "SchemaError",
    "InvariantError",
    "InternalError",
    "GuardError",
    "Encoding",
    "Quadratization",
    "Index",
    "Label",
    "Item",
    "KnapsackInstance",
    "SubsetSumInstance",
    "RestrictedSubsetSumInstance",
    "X3CInstance",
    "SolverResult",
    "restricted_target",
    "membership_in_restricted_universe",
    "enumerate_restricted_universe",
    "restricted_universe_size",
    "digit_solutions",
]


class Error(Exception):
    """Base error carrying a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SchemaError(Error):
    """Malformed external input (wrong JSON shape, bad decimal string, ...)."""


class InvariantError(Error):
    """Structurally well-formed value violating a type invariant."""


class InternalError(InvariantError):
    """A post-condition of the library's own output failed: a bug, not bad
    input."""


class GuardError(Error):
    """A desk-scale enumeration or budget guard was exceeded."""


# ---------------------------------------------------------------------------
# Item provenance labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Encoding:
    """Item carrying one input number: ``instance`` selects which input,
    ``position`` the 0-based slot inside it."""

    instance: int
    position: int


@dataclass(frozen=True)
class Quadratization:
    """Item paying part of the quadratic profit compensation.

    ``bits`` is one of (1,0), (0,1), (1,1) and records which of the two index
    bits ``k <= l`` the item stands for; the diagonal items have k == l and
    bits (1, 1).
    """

    bits: tuple[int, int]
    k: int
    l: int


@dataclass(frozen=True)
class Index:
    """Item selecting the value ``bit`` for binary position ``k`` of the
    chosen input index."""

    bit: int
    k: int


Label = Encoding | Quadratization | Index  # None means a plain, unlabeled item


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    """Whether ``v`` is an int and not a bool, the one number type the
    instances take."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_int(code: str, name: str, value, least: int | None = None) -> None:
    """``InvariantError(code)`` unless ``value`` is an int, not a bool, and
    not below ``least`` if given; the type is tested first."""
    if not _is_int(value) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise InvariantError(code, f"{name} must be an int{bound}, got {_shown(value, repr)}")


def _as_tuple(value, code: str, field: str) -> tuple:
    """``value`` as a tuple, or ``InvariantError(code)`` if it is not
    iterable."""
    try:
        iter(value)
    except TypeError:
        raise InvariantError(code, f"{field} is a {type(value).__name__}, not iterable") from None
    return tuple(value)  # a tuple comes back as itself, not copied


def _shown(value, show=str) -> str:
    """``show(value)`` for an error message, except that an int too long for
    the interpreter's int/str digit limit shows by its bit length, also
    inside a list or tuple."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        if not isinstance(value, (list, tuple)):
            raise
        inner = ", ".join(_shown(x, repr) for x in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"


@dataclass(frozen=True, slots=True)
class Item:
    weight: int
    profit: int
    label: Label | None = None

    def __post_init__(self):
        _check_int("item.weight", "item weight", self.weight, 0)
        _check_int("item.profit", "item profit", self.profit, 0)
        if self.label is not None and not isinstance(self.label, Label):
            raise InvariantError(
                "item.label",
                f"label must be an Encoding, Quadratization or Index, not {type(self.label).__name__}",
            )


@dataclass(frozen=True)
class KnapsackInstance:
    """Items plus a capacity bound and a profit target, both inclusive."""

    items: tuple[Item, ...]
    capacity: int
    target: int

    def __post_init__(self):
        object.__setattr__(self, "items", _as_tuple(self.items, "knapsack.items", "items"))
        _check_int("knapsack.capacity", "capacity", self.capacity, 0)
        _check_int("knapsack.target", "target", self.target, 0)

    def subset_weight(self, indices) -> int:
        return sum(self.items[i].weight for i in indices)

    def subset_profit(self, indices) -> int:
        return sum(self.items[i].profit for i in indices)


@dataclass(frozen=True)
class SubsetSumInstance:
    numbers: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "numbers", _as_tuple(self.numbers, "subsetsum.numbers", "numbers"))
        for a in self.numbers:
            _check_int("subsetsum.numbers", "number", a, 0)
        _check_int("subsetsum.target", "target", self.target, 0)


@dataclass(frozen=True)
class RestrictedSubsetSumInstance:
    """A multiset of exactly ``3n`` universe members summing to three times the
    size-``n`` target.  Duplicates are allowed; order is preserved."""

    n: int
    numbers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numbers", _as_tuple(self.numbers, "rss.numbers", "numbers"))
        _check_int("rss.n", "size parameter", self.n, 1)
        if len(self.numbers) != 3 * self.n:
            raise InvariantError(
                "rss.count",
                f"expected {_shown(3 * self.n)} numbers, got {len(self.numbers)}",
            )
        for a in self.numbers:
            if not (_is_int(a) and membership_in_restricted_universe(a, self.n)[0]):
                raise InvariantError(
                    "rss.member", f"{_shown(a)} is not in the size-{self.n} universe"
                )
        total = sum(self.numbers)
        expected = 3 * restricted_target(self.n)
        if total != expected:
            raise InvariantError(
                "rss.sum", f"numbers sum to {_shown(total)}, expected {_shown(expected)}"
            )


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets, restricted so that each element of ``{1..3n}``
    occurs in exactly three triples (hence exactly ``3n`` triples)."""

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _check_int("x3c.n", "size parameter", self.n, 1)
        triples = _as_tuple(self.triples, "x3c.triples", "triples")
        # before anything is sized by n: a huge n must not allocate
        if len(triples) != 3 * self.n:
            raise InvariantError(
                "x3c.count",
                f"expected {_shown(3 * self.n)} triples, got {len(triples)}",
            )
        canon = []
        for t in triples:
            t = _as_tuple(t, "x3c.triple", "a triple")
            if not all(_is_int(j) for j in t):
                raise InvariantError("x3c.element", "triple elements must be ints")
            t = tuple(sorted(t))
            if len(t) != 3 or len(set(t)) != 3:
                raise InvariantError("x3c.triple", f"{_shown(t)} is not a 3-element set")
            if not all(1 <= j <= 3 * self.n for j in t):
                raise InvariantError(
                    "x3c.element", f"{_shown(t)} has elements outside 1..{3 * self.n}"
                )
            canon.append(t)
        object.__setattr__(self, "triples", tuple(canon))
        counts = {j: 0 for j in range(1, 3 * self.n + 1)}
        for t in self.triples:
            for j in t:
                counts[j] += 1
        bad = {j: c for j, c in counts.items() if c != 3}
        if bad:
            raise InvariantError(
                "x3c.multiplicity",
                f"elements must occur exactly 3 times, offenders: {bad}",
            )


@dataclass(frozen=True)
class SolverResult:
    """Outcome of an exact decision.  On a feasible result ``chosen`` holds
    the witness's item indices and the achieved totals are recomputable from
    it."""

    feasible: bool
    chosen: frozenset[int] | None = None
    achieved_weight: int | None = None
    achieved_profit: int | None = None


# ---------------------------------------------------------------------------
# Restricted universe arithmetic
# ---------------------------------------------------------------------------

# members enumerated at most: n = 47, the largest size accepted (477,191
# members), takes 0.9-1.0 s at 108 MB peak RSS (Python 3.11.7, 2 vCPUs)
_UNIVERSE_GUARD = 5 * 10**5


def restricted_target(n: int) -> int:
    """Common target for all size-``n`` restricted instances: the sum of
    ``(3n+1)**j`` over ``j = 1..3n``.  Always even."""
    _check_int("universe.n", "size parameter", n, 1)
    m = 3 * n
    # the geometric series base + ... + base**m, whose ratio less one is m
    return ((m + 1) ** (m + 1) - (m + 1)) // m


def membership_in_restricted_universe(a: int, n: int):
    """Decide whether ``a`` is a sum of exactly three base powers with
    exponents in ``1..3n`` (repeats allowed).

    Returns ``(True, (j1, j2, j3))`` with ascending witness exponents, or
    ``(False, None)``.  The base is at least 4, so three powers sum to less
    than the next power, and the largest power ``<= a`` is in every such
    sum: member iff three subtractions of the largest power left reach 0,
    with every exponent in ``1..3n``.  An exponent past ``3n`` is refused
    where it is found, before any power above ``base**(3n + 1)`` is built.
    """
    _check_int("universe.member", "candidate", a)
    _check_int("universe.n", "size parameter", n, 1)
    m = 3 * n
    base = m + 1
    # lg base < bits / k, so base**j <= 2**(a.bit_length() - 1) <= a at the
    # first guess of j below, which is a step or two short at most for n <= 400
    k = m if m < 64 else 64
    bits = (base**k).bit_length()
    witness = []
    for _ in range(3):
        if a < base:
            return False, None
        j = (a.bit_length() - 1) * k // bits
        if j > m:
            return False, None
        power = base**j
        while power * base <= a:
            if j == m:
                return False, None
            power *= base
            j += 1
        a -= power
        witness.append(j)
    return (False, None) if a else (True, tuple(reversed(witness)))


def restricted_universe_size(n: int) -> int:
    """Number of distinct universe members: multisets of three exponents out
    of ``3n``, i.e. ``(3n)(3n+1)(3n+2)/6``."""
    _check_int("universe.n", "size parameter", n, 1)
    m = 3 * n
    return m * (m + 1) * (m + 2) // 6


def enumerate_restricted_universe(n: int) -> list[int]:
    """All distinct universe members for size ``n``, ascending."""
    if restricted_universe_size(n) > _UNIVERSE_GUARD:
        raise GuardError("universe.enumerate", f"n={_shown(n)} has over {_UNIVERSE_GUARD} members")
    base = 3 * n + 1
    powers = [base**j for j in range(1, 3 * n + 1)]
    values = {
        p1 + p2 + p3 for p1, p2, p3 in combinations_with_replacement(powers, 3)
    }
    return sorted(values)


_DIGIT_GUARD = 10**7


def digit_solutions(value: int, base: int, length: int) -> list[tuple[int, ...]]:
    """All vectors ``(x_0..x_{length-1})`` with every ``x_i`` in ``0..base``
    and ``sum x_i * base**i == value``, in lexicographic order.

    ``x_0`` is ``value mod base``, or ``0`` or ``base`` when that is 0; the
    rest solve ``(value - x_0) / base``, smaller ``x_0`` first.  For ``value
    = sum_{i<length} base**i`` the unique solution is the all-ones vector.
    """
    _check_int("digits.value", "value", value, 0)
    _check_int("digits.base", "base", base, 2)
    _check_int("digits.length", "length", length, 1)
    space = 1
    for _ in range(length):  # stops within lg(_DIGIT_GUARD) steps, since base + 1 >= 3
        space *= base + 1
        if space > _DIGIT_GUARD:
            raise GuardError(
                "digits.space",
                f"{_shown(base + 1)} choices for each of {_shown(length)} digits exceed guard"
                f" {_DIGIT_GUARD}",
            )
    out: list[tuple[int, ...]] = []

    def walk(rest: int, digits: tuple[int, ...]) -> None:
        if len(digits) == length:
            if rest == 0:
                out.append(digits)
            return
        for digit in range(rest % base, min(rest, base) + 1, base):
            walk((rest - digit) // base, digits + (digit,))

    walk(value, ())
    return out
