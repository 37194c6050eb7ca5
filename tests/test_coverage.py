"""Bit-coverage metric: masks, ratios, persistence."""

import random

import pytest

from boxsampler.coverage import (
    MAGIC,
    CoverageBitmap,
    normalized_coverage,
    raw_coverage,
    read_bitmap,
    record_sample,
    write_bitmap,
)
from boxsampler.errors import BitmapMismatch
from boxsampler.smtlib import parse_problem
from boxsampler.terms import Model, preprocess, to_nnf
from oracle import random_formula


def _formula(text: str):
    return to_nnf(preprocess(parse_problem(text).assertion))


X_GE_0 = "(declare-const x Int)(assert (>= x 0))"


class TestRecord:
    def test_single_sample_zero_coverage(self):
        f = _formula(X_GE_0)
        bm = CoverageBitmap.for_formula(f)
        record_sample(bm, f, Model(ints={"x": 5}))
        assert raw_coverage(bm) == 0.0  # no bit has seen both values yet

    def test_zero_one_covers_exactly_one_bit_of_the_var(self):
        # samples x=0 and x=1 flip only bit 0 of the x node (and the
        # subtraction-free atom/constant nodes stay put)
        f = _formula(X_GE_0)
        bm = CoverageBitmap.for_formula(f)
        record_sample(bm, f, Model(ints={"x": 0}))
        record_sample(bm, f, Model(ints={"x": 1}))
        # nodes: atom (1 bit, always true), x (64), const 0 (64)
        assert bm.widths == [1, 64, 64]
        assert bm.covered_bits() == 1

    def test_negative_values_use_twos_complement(self):
        f = _formula(X_GE_0.replace("(>= x 0)", "(<= x 0)"))
        bm = CoverageBitmap.for_formula(f)
        record_sample(bm, f, Model(ints={"x": 0}))
        record_sample(bm, f, Model(ints={"x": -1}))
        # -1 is all ones: every bit of the x node saw both 0 and 1
        x_node_index = 1
        assert bm.covered_masks()[x_node_index] == (1 << 64) - 1

    def test_bitmap_matches_replay(self):
        rng = random.Random(3)
        names = ["x", "y"]
        f = to_nnf(random_formula(rng, names, 3))
        samples = [Model(ints={n: rng.randint(-40, 40) for n in names}) for _ in range(100)]
        bm = CoverageBitmap.for_formula(f)
        for s in samples:
            record_sample(bm, f, s)
        replay = CoverageBitmap.for_formula(f)
        for s in samples:
            record_sample(replay, f, s)
        assert bm.seen_zero == replay.seen_zero and bm.seen_one == replay.seen_one

    def test_monotone_in_samples(self):
        rng = random.Random(5)
        f = to_nnf(random_formula(rng, ["x", "y"], 2))
        bm = CoverageBitmap.for_formula(f)
        last = 0.0
        for _ in range(50):
            record_sample(bm, f, Model(ints={"x": rng.randint(-99, 99), "y": rng.randint(-99, 99)}))
            cur = raw_coverage(bm)
            assert cur >= last
            last = cur

    def test_order_independent(self):
        rng = random.Random(7)
        f = to_nnf(random_formula(rng, ["x"], 2))
        samples = [Model(ints={"x": rng.randint(-50, 50)}) for _ in range(30)]
        a = CoverageBitmap.for_formula(f)
        b = CoverageBitmap.for_formula(f)
        for s in samples:
            record_sample(a, f, s)
        for s in reversed(samples):
            record_sample(b, f, s)
        assert a.seen_zero == b.seen_zero and a.seen_one == b.seen_one


class TestRatios:
    def test_empty_bitmap_raw_zero(self):
        assert raw_coverage(CoverageBitmap([])) == 0.0

    def test_fully_flipped_is_one(self):
        bm = CoverageBitmap([1, 1], [1, 1], [1, 1])
        assert raw_coverage(bm) == 1.0

    def test_normalized_self_only(self):
        bm = CoverageBitmap([1], [1], [1])
        assert normalized_coverage(bm, [bm]) == 1.0
        assert normalized_coverage(bm, []) == 1.0

    def test_normalized_disjoint_halves(self):
        mine = CoverageBitmap([1, 1], [1, 0], [1, 0])
        other = CoverageBitmap([1, 1], [0, 1], [0, 1])
        assert normalized_coverage(mine, [other]) == 0.5
        assert normalized_coverage(other, [mine]) == 0.5

    def test_normalized_zero_over_zero_is_one(self):
        empty = CoverageBitmap([1, 1])
        assert normalized_coverage(empty, [empty.copy()]) == 1.0

    def test_three_way_union_brute_force(self):
        rng = random.Random(11)
        widths = [1, 64, 64]
        bms = []
        for _ in range(3):
            bm = CoverageBitmap(list(widths))
            for i, w in enumerate(widths):
                mask = (1 << w) - 1
                bm.seen_zero[i] = rng.getrandbits(w) & mask
                bm.seen_one[i] = rng.getrandbits(w) & mask
            bms.append(bm)
        union_bits = 0
        for i, w in enumerate(widths):
            union_mask = 0
            for bm in bms:
                union_mask |= bm.seen_zero[i] & bm.seen_one[i]
            union_bits += union_mask.bit_count()
        got = normalized_coverage(bms[0], bms[1:])
        want = bms[0].covered_bits() / union_bits
        assert got == pytest.approx(want)

    def test_mismatched_bitmaps_rejected(self):
        with pytest.raises(BitmapMismatch):
            normalized_coverage(CoverageBitmap([1]), [CoverageBitmap([64])])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = random.Random(13)
        f = to_nnf(random_formula(rng, ["x", "y"], 3))
        bm = CoverageBitmap.for_formula(f)
        for _ in range(20):
            record_sample(bm, f, Model(ints={"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}))
        path = tmp_path / "cov.bin"
        write_bitmap(bm, str(path))
        loaded = read_bitmap(str(path))
        assert loaded.widths == bm.widths
        assert loaded.seen_zero == bm.seen_zero
        assert loaded.seen_one == bm.seen_one

    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda data: data[: len(MAGIC) + 2], "truncated header"),
            (lambda data: data[:-1], "truncated node records"),
            (lambda data: data[: len(MAGIC) + 4 + 17 + 5], "truncated node records"),
            (lambda data: data + b"\x00\x07", "2 bytes after the last node record"),
        ],
        ids=["header", "last-record", "second-record", "trailing"],
    )
    def test_malformed_length_rejected(self, tmp_path, cut, message):
        path = tmp_path / "cov.bin"
        write_bitmap(CoverageBitmap([1, 64, 0]), str(path))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(BitmapMismatch, match=message):
            read_bitmap(str(path))

    @pytest.mark.parametrize("width, mask", [(0, 1), (1, 2), (1, 2**64 - 1)])
    def test_masks_above_the_width_rejected(self, tmp_path, width, mask):
        path = tmp_path / "cov.bin"
        write_bitmap(CoverageBitmap([64, width], [2**64 - 1, 0], [2**64 - 1, mask]), str(path))
        with pytest.raises(BitmapMismatch, match="node record 1 sets bits above its width"):
            read_bitmap(str(path))

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTACOV1\x00\x00")
        with pytest.raises(BitmapMismatch):
            read_bitmap(str(path))

    def test_identical_inputs_identical_numbering(self, data_dir):
        text = (data_dir / "intro.smt2").read_text()
        f1 = _formula(text)
        f2 = _formula(text)
        assert CoverageBitmap.for_formula(f1).widths == CoverageBitmap.for_formula(f2).widths
