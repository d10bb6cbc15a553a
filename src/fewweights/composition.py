"""Merge many restricted subset-sum inputs into one knapsack instance whose
number of distinct weights stays small.

The construction stacks three item families with well-separated magnitudes:

* encoding items carry the input numbers, shifted so that any solution must
  take a fixed count of them, and profit-boosted per input index so picking
  from a later input is always more profitable;
* index items force a one-per-bit selection that spells out, in binary, which
  input the solution claims to solve;
* quadratization items pay back exactly the profit shortfall of that claim,
  which is quadratic in the claimed index and therefore cannot be covered by
  the index items alone.

The magnitudes are chosen so that each family occupies its own "layer" of
every weight and profit: reading a subset modulo the two big scale constants
recovers the per-family contributions without interference.  All arithmetic
is exact; the scale constants overflow fixed-width integers almost
immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .core import (
    Encoding,
    Index,
    InternalError,
    InvariantError,
    Item,
    KnapsackInstance,
    Label,
    Quadratization,
    RestrictedSubsetSumInstance,
    _as_tuple,
    _check_int,
    _is_int,
    _shown,
    restricted_target,
    restricted_universe_size,
)

__all__ = [
    "CompositionConstants",
    "ComposedInstance",
    "pad_to_power_of_two",
    "build_encoding_items",
    "build_quadratization_items",
    "build_index_items",
    "compose",
    "canonical_solution",
    "quadratization_labels",
    "index_labels",
    "count_distinct_weights",
    "count_distinct_profits",
    "composition_metadata",
]


@dataclass(frozen=True)
class CompositionConstants:
    """All gadget magnitudes for composing ``t`` inputs of size ``n``, each
    derived from ``t`` and ``n`` alone.

    ``shift`` makes every encoding item so heavy that capacity alone pins the
    number of encoding items a solution may carry.  ``block`` is the weight of
    one solved input in shifted units.  ``quad_scale`` and ``index_scale`` are
    the layer separators for the quadratization and index families, and
    ``layer_total`` is the exact quad-layer sum every valid index/quad
    selection must reach.
    """

    t: int
    n: int
    lg_t: int = field(init=False)
    rss_target: int = field(init=False)
    shift: int = field(init=False)
    block: int = field(init=False)
    quad_scale: int = field(init=False)
    index_scale: int = field(init=False)
    layer_total: int = field(init=False)
    capacity: int = field(init=False)
    target: int = field(init=False)

    def __post_init__(self):
        t, n = self.t, self.n
        if not _is_int(t) or t < 2 or t & (t - 1):
            raise InvariantError("compose.t", f"t must be a power of two >= 2, got {_shown(t)}")
        _check_int("compose.n", "n", n, 1)
        put = object.__setattr__
        put(self, "lg_t", t.bit_length() - 1)
        put(self, "rss_target", restricted_target(n))
        put(self, "shift", 3 * t * n * self.rss_target)
        put(self, "block", self.rss_target + n * self.shift)
        # quad_scale must strictly exceed the total profit of all encoding
        # items (3tB + 4.5 t(t-1) nB), or sacrificing one quad-layer unit
        # frees enough weight for encoding profits to cheat the target
        put(self, "quad_scale", 9 * t * t * n * self.block)
        sq = self.lg_t * self.lg_t
        put(self, "index_scale", sq * self.quad_scale * self.quad_scale * 3**sq)
        put(self, "layer_total", (3**sq - 1) // 2)
        below_index = self.layer_total * self.quad_scale + (3 * t - 2) * self.block
        put(self, "capacity", (t - 1) * self.index_scale + below_index)
        put(self, "target", self.capacity + comb(t, 2) * 9 * n * self.block)

    def pair_code(self, k: int, l: int) -> int:
        """Row-major bijection from bit pairs to exponents of 3."""
        return k * self.lg_t + l

    def index_layer(self, items) -> tuple[int, int]:
        """Weight and profit of ``items`` in the index layer, each a sum of
        per-item floored reads."""
        z = self.index_scale
        return sum(it.weight // z for it in items), sum(it.profit // z for it in items)

    def quad_layer(self, items) -> tuple[int, int]:
        """Weight and profit of ``items`` in the quad layer, each a sum of
        per-item floored reads."""
        z, y = self.index_scale, self.quad_scale
        return sum(it.weight % z // y for it in items), sum(it.profit % z // y for it in items)


@dataclass(frozen=True, eq=False)
class ComposedInstance:
    knapsack: KnapsackInstance
    constants: CompositionConstants
    inputs: tuple[RestrictedSubsetSumInstance, ...]


def pad_to_power_of_two(
    instances: list[RestrictedSubsetSumInstance],
) -> list[RestrictedSubsetSumInstance]:
    """Extend the list to the least power of two >= max(2, len) by repeating
    the last instance; the OR of the answers is unchanged."""
    if not instances:
        raise InvariantError("compose.empty", "need at least one input instance")
    if not all(isinstance(inst, RestrictedSubsetSumInstance) for inst in instances):
        raise InvariantError("compose.input", "inputs must be restricted subset-sum instances")
    sizes = {inst.n for inst in instances}
    if len(sizes) != 1:
        raise InvariantError("compose.mixed-n", f"inputs mix sizes {sorted(sizes)}")
    want = max(2, len(instances))
    t = 1
    while t < want:
        t <<= 1
    return list(instances) + [instances[-1]] * (t - len(instances))


@lru_cache(maxsize=4096)
def _encoding_item(t: int, n: int, i: int, j: int, a: int) -> Item:
    """The item for number ``a`` at position ``j`` of input ``i``; it is
    frozen, so equal inputs at one ``(t, n)`` share it.  The 4096 items kept
    hold about 15 MB at n = 400."""
    c = _gadgets(t, n)[0]
    return Item(c.shift + a, c.shift + a + i * 3 * c.block, Encoding(i, j))


def build_encoding_items(
    instances: list[RestrictedSubsetSumInstance], constants: CompositionConstants
) -> list[Item]:
    """One item per input number: weight ``shift + a``, profit additionally
    boosted by ``3 * block`` per input index, each from ``_encoding_item``."""
    t, n = constants.t, constants.n
    if len(instances) != t:
        raise InvariantError("compose.count", f"expected {_shown(t)} inputs, got {len(instances)}")
    if any(inst.n != n for inst in instances):
        raise InvariantError("compose.mixed-n", "input size mismatch")
    return [
        _encoding_item(t, n, i, j, a)
        for i, inst in enumerate(instances)
        for j, a in enumerate(inst.numbers)
    ]


def build_quadratization_items(constants: CompositionConstants) -> list[Item]:
    """Items standing for the bit products of the claimed index.

    For each bit pair ``k < l`` there are three items: the two mixed-bit ones
    are profit-neutral and exist only to fill the quad layer, while the
    both-bits-set one carries the cross-term profit bonus.  Each diagonal item
    carries the square and linear bonus of a single set bit.
    """
    nb = constants.n * constants.block
    y = constants.quad_scale
    items = []
    for k in range(constants.lg_t):
        for l in range(k + 1, constants.lg_t):
            c_kl = 3 ** constants.pair_code(k, l) * y
            c_lk = 3 ** constants.pair_code(l, k) * y
            items.append(Item(c_kl, c_kl, Quadratization((1, 0), k, l)))
            items.append(Item(c_lk, c_lk, Quadratization((0, 1), k, l)))
            both = c_kl + c_lk
            bonus = 2 ** (k + l) * 9 * nb
            items.append(Item(both, both + bonus, Quadratization((1, 1), k, l)))
    for k in range(constants.lg_t):
        c = 3 ** constants.pair_code(k, k) * y
        bonus = 2 ** (2 * k) * (9 * nb) // 2 + 2**k * (3 * nb) // 2
        items.append(Item(c, c + bonus, Quadratization((1, 1), k, k)))
    return items


def build_index_items(constants: CompositionConstants) -> list[Item]:
    """Two items per bit position; exactly one of each pair fits in any
    solution.  The zero-bit item pre-pays the quad-layer share its bit would
    otherwise owe; the one-bit item carries the bit's weight in blocks."""
    z = constants.index_scale
    y = constants.quad_scale
    items = []
    for k in range(constants.lg_t):
        quad_share = sum(
            3 ** constants.pair_code(k, l) for l in range(constants.lg_t)
        )
        w0 = 2**k * z + quad_share * y
        items.append(Item(w0, w0, Index(0, k)))
        w1 = 2**k * z + 2**k * 3 * constants.block
        items.append(Item(w1, w1, Index(1, k)))
    return items


@lru_cache(maxsize=16)
def _gadgets(t: int, n: int) -> tuple[CompositionConstants, tuple[Item, ...], tuple[Item, ...]]:
    """The constants, quadratization items and index items for ``t`` inputs
    of size ``n``; all three depend on ``(t, n)`` alone and are frozen, so
    repeated compositions at one shape share them."""
    constants = CompositionConstants(t, n)
    quad = build_quadratization_items(constants)
    index = build_index_items(constants)
    return constants, tuple(quad), tuple(index)


def compose(instances: list[RestrictedSubsetSumInstance]) -> ComposedInstance:
    """Pad, build all three item families, and wrap them with the composed
    capacity and target.

    The output is feasible if and only if at least one input is feasible.
    Item order is fixed: encoding items input-major, then quadratization
    items (off-diagonal pairs in (k, l) order with kinds (1,0), (0,1), (1,1),
    then diagonals), then index items (zero-bit before one-bit per position).
    The constants and the gadget families are built once per ``(t, n)``,
    and the 4096 encoding items used last are kept for equal inputs at the
    same index; all are shared, and the layer, dominance and
    distinct-weight checks still run over every item.
    """
    padded = pad_to_power_of_two(instances)
    constants, quad, index = _gadgets(len(padded), padded[0].n)
    encoding = build_encoding_items(padded, constants)
    items = (*encoding, *quad, *index)

    z, y = constants.index_scale, constants.quad_scale
    # Layer reads are per-item floors summed; they equal floor-of-sum for
    # every subset because the residues below one layer unit cannot carry,
    # which the whole-instance totals certify.
    if not (
        sum(it.weight % z for it in items) < z
        and sum(it.profit % z for it in items) < z
        and sum((it.weight % z) % y for it in items) < y
        and sum((it.profit % z) % y for it in items) < y
    ):
        raise InternalError("compose.layers", "residues below a layer unit can carry")
    # Scale dominance: one quad unit outweighs every encoding profit
    # combined, and one index unit outweighs all encoding and quad profits.
    encoding_profit = sum(it.profit for it in encoding)
    if not (encoding_profit < y and encoding_profit + sum(it.profit for it in quad) < z):
        raise InternalError("compose.dominance", "a scale unit does not dominate the layers below")

    knapsack = KnapsackInstance(items, constants.capacity, constants.target)
    distinct = count_distinct_weights(knapsack)
    bound = restricted_universe_size(constants.n) + len(quad) + len(index)
    if distinct > bound:
        raise InternalError(
            "compose.distinct-weights", f"{distinct} distinct weights exceed {bound}"
        )

    return ComposedInstance(knapsack, constants, tuple(padded))


def _check_index(i: int, lg_t: int) -> None:
    """Refuse ``i`` outside ``0..2**lg_t - 1`` and ``lg_t < 1``."""
    _check_int("witness.instance", "instance index", i)
    _check_int("compose.t", "bit count lg_t", lg_t, 1)
    if i < 0 or i >> lg_t:
        raise InvariantError("witness.instance",
                             f"instance index {_shown(i)} outside 0..2**{_shown(lg_t)} - 1")


def quadratization_labels(i: int, lg_t: int) -> frozenset[Label]:
    """Quadratization items a canonical index-``i`` solution picks; bit pairs
    that are both zero contribute nothing."""
    _check_index(i, lg_t)
    labels = set()
    for k in range(lg_t):
        for l in range(k + 1, lg_t):
            pair = ((i >> k) & 1, (i >> l) & 1)
            if pair != (0, 0):
                labels.add(Quadratization(pair, k, l))
        if (i >> k) & 1:
            labels.add(Quadratization((1, 1), k, k))
    return frozenset(labels)


def index_labels(i: int, lg_t: int) -> frozenset[Label]:
    """Index items spelling out ``i`` in binary, one per bit position."""
    _check_index(i, lg_t)
    return frozenset(Index((i >> k) & 1, k) for k in range(lg_t))


def canonical_solution(
    composed: ComposedInstance, which: int, witness
) -> frozenset[int]:
    """Item indices of the textbook solution built from a witness for input
    ``which``: the witness slots of that input, every encoding item of all
    later inputs, and the quad/index selections for ``which``.

    The returned set always has weight exactly the capacity and profit exactly
    the target.  ``witness`` must hold ``n`` distinct 0-based positions whose
    numbers sum to the restricted target.
    """
    constants = composed.constants
    t, n = constants.t, constants.n
    _check_index(which, constants.lg_t)
    witness = _as_tuple(witness, "witness.cardinality", "witness")
    for p in witness:
        _check_int("witness.position", "witness position", p)
    positions = sorted(set(witness))
    if len(witness) != n or len(positions) != n:
        raise InvariantError("witness.cardinality", f"witness must hold {n} distinct positions")
    inst = composed.inputs[which]
    if not all(0 <= p < 3 * n for p in positions):
        raise InvariantError("witness.position", "witness position out of range")
    picked_sum = sum(inst.numbers[p] for p in positions)
    if picked_sum != constants.rss_target:
        raise InvariantError(
            "witness.sum",
            f"witness sums to {_shown(picked_sum)}, expected {_shown(constants.rss_target)}",
        )

    labels = {Encoding(which, p) for p in positions}
    labels.update(Encoding(i0, j) for i0 in range(which + 1, t) for j in range(3 * n))
    labels |= quadratization_labels(which, constants.lg_t)
    labels |= index_labels(which, constants.lg_t)
    position = {it.label: pos for pos, it in enumerate(composed.knapsack.items)}
    return frozenset(position[label] for label in labels)


def count_distinct_weights(inst: KnapsackInstance) -> int:
    return len({it.weight for it in inst.items})


def count_distinct_profits(inst: KnapsackInstance) -> int:
    return len({it.profit for it in inst.items})


def composition_metadata(composed: ComposedInstance) -> dict:
    """Sidecar object describing the gadget magnitudes, big values as decimal
    strings."""
    c = composed.constants
    return {
        "t": c.t,
        "n": c.n,
        "X": str(c.shift),
        "B": str(c.block),
        "Y": str(c.quad_scale),
        "Z": str(c.index_scale),
        "T": str(c.layer_total),
        "W": str(c.capacity),
        "P": str(c.target),
    }
