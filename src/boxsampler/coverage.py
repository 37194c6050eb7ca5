"""AST bit-coverage of samples.

Every node of the formula's syntax tree carries a bit width that its sort,
as :func:`terms.sort_of` reads it, decides: 64 for an Int (the lower 64
bits of the value in two's complement), 1 for a Bool, 0 for an Array,
function symbols included.  A bit counts as covered once it has been
observed as both 0 and 1 across the recorded samples.  Nodes are numbered
in deterministic pre-order, so bitmaps from different runs over the same
input can be compared and merged.

Samples are folded into a bitmap in batches.  The fold takes each node's
column of the batch, the node's value in every sample, reduces its set of
distinct values to their OR and their AND, and folds the node by one rule,
with ``low`` the mask of the node's width: ``one |= OR & low`` and ``zero
|= ~AND & low``, since the OR of every ``~v`` is ``~AND(v)``.  For a Bool,
whose mask is 1, that is one if any value is true and zero if any is
false.  The transpose, the sets and the reductions run in C, so a batch
costs one Python step per node, not one per node and sample; most columns
hold one or two distinct values.  A fold only ORs bits in, so folding the
same samples again, or in any split or order, leaves the same bitmap.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .compiled import compile_node_values
from .errors import BitmapMismatch, UnassignedSymbol
from .terms import Formula, Model, Sort, free_symbols, iter_nodes, sort_of

MAGIC = b"MGACOV1"

_WIDTH = {Sort.INT: 64, Sort.BOOL: 1, Sort.ARRAY: 0}  # the bits a node of each sort contributes


@dataclass
class CoverageBitmap:
    """Per-node seen-zero / seen-one masks; masks only ever gain bits.

    `record_sample` compiles its formula on first use and keeps the result
    here, keyed by the formula object, for the bitmap's lifetime."""

    widths: list[int]
    seen_zero: list[int] = field(default_factory=list)
    seen_one: list[int] = field(default_factory=list)
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.seen_zero:
            self.seen_zero = [0] * len(self.widths)
        if not self.seen_one:
            self.seen_one = [0] * len(self.widths)

    @classmethod
    def for_formula(cls, f: Formula) -> "CoverageBitmap":
        return cls([_WIDTH[sort_of(node)] for node in iter_nodes(f)])

    def copy(self) -> "CoverageBitmap":
        return CoverageBitmap(list(self.widths), list(self.seen_zero), list(self.seen_one))

    def covered_masks(self) -> list[int]:
        return [z & o for z, o in zip(self.seen_zero, self.seen_one)]

    def covered_bits(self) -> int:
        return sum(m.bit_count() for m in self.covered_masks())

    def total_bits(self) -> int:
        return sum(self.widths)

    def merge(self, other: "CoverageBitmap") -> None:
        _check_compatible(self, other)
        self.seen_zero = [a | b for a, b in zip(self.seen_zero, other.seen_zero)]
        self.seen_one = [a | b for a, b in zip(self.seen_one, other.seen_one)]


def _check_compatible(a: CoverageBitmap, b: CoverageBitmap) -> None:
    if a.widths != b.widths:
        raise BitmapMismatch("bitmaps cover different node sets")


_MODEL_FIELD = {Sort.INT: "ints", Sort.BOOL: "bools", Sort.ARRAY: "funcs"}


def _symbols(f: Formula) -> list[tuple[str, str]]:
    """(Model field, name) of each symbol of `f`."""
    return [(_MODEL_FIELD[sort], name) for name, sort in free_symbols(f).items()]


def record_sample(bm: CoverageBitmap, f: Formula, *samples: Model) -> CoverageBitmap:
    """Fold `samples`, any number of them, into the bitmap.

    Every Int- and Bool-sorted node's value is computed once per sample, by
    `f` compiled over its symbols with :func:`compiled.compile_node_values`.
    Each node's column of values over the whole batch is then reduced
    through its set of distinct values to their OR and AND, and the node is
    folded in by one rule: its seen-one mask gains ``OR & low`` and its
    seen-zero mask ``~AND & low``, where ``low``, the mask of the node's
    width, is worked out once per compile.  That keeps an Int's low 64 bits
    of two's complement, and gives a Bool one if any value is true and zero
    if any is false.  An integer or Boolean constant leaf has its one value
    in every sample, so it is no column: the first fold after a compile
    folds it in.  The fold only ORs bits in, so it is idempotent: repeating
    it, or folding the samples one at a time or in any other batches,
    leaves the same bitmap.  No samples is a no-op.  Raises
    :class:`UnassignedSymbol`, before any mask changes, if a sample lacks a
    symbol of `f`."""
    if not samples:
        return bm
    compiled = bm._compiled
    fresh = compiled is None or compiled[0] is not f
    if fresh:
        symbols = _symbols(f)
        values, nodes, constants = compile_node_values(f, [name for _, name in symbols])
        compiled = (f, symbols, values, nodes, [(1 << bm.widths[i]) - 1 for i in nodes])
    _, symbols, values, nodes, lows = compiled
    try:
        rows = [values(*[getattr(sample, field_name)[name] for field_name, name in symbols]) for sample in samples]
    except KeyError as e:
        raise UnassignedSymbol(e.args[0]) from None
    bm._compiled = compiled  # kept once a fold gets here, which folds the constants below
    columns = zip(nodes, lows, map(set, zip(*rows)))
    if fresh:
        columns = itertools.chain(columns, [(i, (1 << bm.widths[i]) - 1, {c}) for i, c in constants])
    zero, one = bm.seen_zero, bm.seen_one
    for i, low, distinct in columns:
        one[i] |= reduce(or_, distinct) & low
        zero[i] |= low ^ (reduce(and_, distinct) & low)  # ~AND & low, with no `~` on a Bool
    return bm


def raw_coverage(bm: CoverageBitmap) -> float:
    total = bm.total_bits()
    if total == 0:
        return 0.0
    return bm.covered_bits() / total


def normalized_coverage(mine: CoverageBitmap, others: list[CoverageBitmap]) -> float:
    """Covered bits of `mine` over the bits covered by at least one bitmap.

    Each bitmap's covered mask is computed first and the masks are unioned;
    a bit one method saw only as 0 and another only as 1 does not count.
    0/0 is defined as 1."""
    union_masks = mine.covered_masks()
    for other in others:
        _check_compatible(mine, other)
        union_masks = [u | m for u, m in zip(union_masks, other.covered_masks())]
    denominator = sum(m.bit_count() for m in union_masks)
    if denominator == 0:
        return 1.0
    return mine.covered_bits() / denominator


# ---------------------------------------------------------------------------
# Binary persistence: magic, u32 node count, then per node u8 width and two
# little-endian u64 masks (boolean nodes use the low bit).


_RECORD = struct.Struct("<BQQ")


def write_bitmap(bm: CoverageBitmap, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(bm.widths)))
        for width, zero, one in zip(bm.widths, bm.seen_zero, bm.seen_one):
            fh.write(_RECORD.pack(width, zero, one))


def read_bitmap(path: str) -> CoverageBitmap:
    """The bitmap of a file :func:`write_bitmap` wrote; raises
    :class:`BitmapMismatch` for any other file, a truncated one or one
    whose masks set bits above a node's width included."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise BitmapMismatch(f"{path}: not a coverage bitmap file")
    start = len(MAGIC) + 4
    if len(data) < start:
        raise BitmapMismatch(f"{path}: truncated header")
    (count,) = struct.unpack_from("<I", data, len(MAGIC))
    size = start + _RECORD.size * count
    if len(data) != size:
        what = "truncated node records" if len(data) < size else f"{len(data) - size} bytes after the last node record"
        raise BitmapMismatch(f"{path}: {what}")
    records = list(_RECORD.iter_unpack(data[start:]))
    for node, (width, zero, one) in enumerate(records):
        if (zero | one) >> width:
            raise BitmapMismatch(f"{path}: node record {node} sets bits above its width {width}")
    return CoverageBitmap([r[0] for r in records], [r[1] for r in records], [r[2] for r in records])
