"""AST bit-coverage of samples.

Every node of the formula's syntax tree carries a bit width: 1 for
boolean-sorted nodes, 64 for integer-sorted ones (the lower 64 bits of the
value in two's complement), 0 for array-sorted nodes, function symbols
included.  A bit counts as covered once it has been observed as both 0 and
1 across the recorded samples.  Nodes are numbered in deterministic
pre-order, so bitmaps from different runs over the same input can be
compared and merged.

Samples are folded into a bitmap in batches.  The fold reduces each node's
values over the batch to their OR and their AND, a sample at a time, each
step one ``map`` over every node that runs in C; then an integer node gains
``OR(values)`` in its seen-one mask and ``~AND(values)`` in its seen-zero
mask, since the OR of every ``~v`` is ``~AND(v)``, and a Boolean node gains
one if any value is true and zero if any is false.  A batch thus costs one
Python step per sample plus one per node, not one per node and sample, and
a one-sample batch has nothing to reduce.  A fold only ORs bits in, so
folding the same samples again, or in any split or order, leaves the same
bitmap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import and_, or_

from .compiled import compile_node_values
from .errors import BitmapMismatch, UnassignedSymbol
from .terms import TERM_TYPES, Formula, Model, Sort, free_symbols, iter_nodes, sort_of

_WORD = (1 << 64) - 1

MAGIC = b"MGACOV1"


def _node_width(node) -> int:
    if isinstance(node, TERM_TYPES):
        return 64 if sort_of(node) == Sort.INT else 0
    return 1  # formulas are boolean-sorted


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
        return cls([_node_width(node) for node in iter_nodes(f)])

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

    Every AST node's value is computed once per sample, by `f` compiled
    over its symbols with :func:`compiled.compile_node_values`.  The values
    are then reduced per node over the whole batch, one ``map`` over all
    nodes per further sample, and folded in: an integer node's
    seen-one mask gains the OR of its values and its seen-zero mask the
    complement of their AND (the OR of the complements), both cut to the
    low 64 bits of two's complement; a Boolean node gains one if any value
    is true and zero if any is false.  The fold only ORs bits in, so it is
    idempotent: repeating it, or folding the samples one at a time or in
    any other batches, leaves the same bitmap.  No samples is a no-op.
    Raises :class:`UnassignedSymbol`, before any mask changes, if a sample
    lacks a symbol of `f`."""
    if not samples:
        return bm
    if bm._compiled is None or bm._compiled[0] is not f:
        symbols = _symbols(f)
        bm._compiled = (f, symbols, *compile_node_values(f, [name for _, name in symbols]))
    _, symbols, values, int_nodes, bool_nodes = bm._compiled
    try:
        rows = [values(*[getattr(sample, field_name)[name] for field_name, name in symbols]) for sample in samples]
    except KeyError as e:
        raise UnassignedSymbol(e.args[0]) from None
    (ors, somes), (ands, everys) = rows[0], rows[0]
    for ints, bools in rows[1:]:
        ors, ands = list(map(or_, ors, ints)), list(map(and_, ands, ints))
        somes, everys = list(map(or_, somes, bools)), list(map(and_, everys, bools))
    zero, one = bm.seen_zero, bm.seen_one
    for i, ored, anded in zip(int_nodes, ors, ands):
        one[i] |= ored & _WORD  # two's complement low bits
        zero[i] |= ~anded & _WORD
    for i, some, every in zip(bool_nodes, somes, everys):
        if some:
            one[i] |= 1
        if not every:
            zero[i] |= 1
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
