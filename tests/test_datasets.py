import numpy as np
import pytest

from conftest import index_to_bits, samples
from grovertrain import boolcirc as bc
from grovertrain import datasets as ds
from test_boolcirc import DIGIT_PATTERNS, decode_digit


def img_from_bits(bits):
    """28x28 uint8 image whose 3x3 downsample equals `bits`."""
    edges = [0, 9, 18, 28]
    img = np.zeros((28, 28), dtype=np.uint8)
    for i in range(3):
        for j in range(3):
            if bits[3 * i + j]:
                img[edges[i]:edges[i + 1], edges[j]:edges[j + 1]] = 255
    return img


def downsample(img):
    """One image's 9 bits, through the tiny-mnist builder."""
    d = ds.make_tiny_mnist(np.asarray(img)[None], np.array([1], np.uint8))
    return samples(d)[0][0]


class TestDatasetValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ds.Dataset(np.zeros((0, 1)), np.zeros((0, 1)), 2)

    def test_rejects_width_mismatch(self):
        # rows of one array must share a width
        with pytest.raises(ValueError):
            ds.Dataset([(0, 1), (0, 1, 1)], [(0,), (0,)], 2)
        with pytest.raises(ValueError):
            ds.Dataset([(0, 1), (1, 1)], [(0, 0), (0,)], 2)

    @pytest.mark.parametrize("x,y", [
        ([(0, 2)], [(0,)]),
        ([(0, 1)], [(2,)]),
        ([(0, 1)], [(-1,)]),
        (np.array([[0, 1]]) * 255, [(1,)]),
    ])
    def test_rejects_values_other_than_bits(self, x, y):
        with pytest.raises(ValueError, match="0 or 1"):
            ds.Dataset(x, y, 2)

    @pytest.mark.parametrize("x,y", [
        ([0, 1], [(0,), (1,)]),
        ([(0,), (1,)], [0, 1]),
        (np.zeros((2, 1, 1)), np.zeros((2, 1))),
        (np.zeros((2, 1)), np.zeros((2, 1, 1))),
        (np.zeros((2, 0)), np.zeros((2, 1))),
        (np.zeros((2, 1)), np.zeros((2, 0))),
    ])
    def test_rejects_arrays_that_are_not_2d(self, x, y):
        with pytest.raises(ValueError):
            ds.Dataset(x, y, 2)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            ds.Dataset([(0, 1), (1, 1)], [(0,)], 2)
        with pytest.raises(ValueError):
            ds.Dataset([(0, 1)], [(0,), (1,)], 2)

    def test_rejects_conflicting_labels(self):
        with pytest.raises(ValueError, match=r"x=\(0, 1\)"):
            ds.Dataset([(0, 1), (0, 1)], [(0,), (1,)], 2)
        # the clashing rows need not be neighbours
        with pytest.raises(ValueError, match=r"x=\(1, 0\)"):
            ds.Dataset([(1, 0), (1, 1), (0, 0), (1, 0)],
                       [(0, 1), (1, 1), (0, 1), (0, 0)], 4)

    def test_allows_consistent_duplicates(self):
        d = ds.Dataset([(0, 1), (0, 1)], [(0,), (0,)], 2)
        assert len(d) == 2

    def test_holds_uint8_arrays_with_derived_widths(self):
        d = ds.Dataset(np.array([[True, False]]), [(1, 0, 1)], 2)
        assert d.x.dtype == d.y.dtype == np.uint8
        assert d.x.tolist() == [[1, 0]] and d.y.tolist() == [[1, 0, 1]]
        assert (d.d_x, d.d_y, len(d)) == (2, 3, 1)


def has_row_line(bits) -> bool:
    return any(all(bits[3 * i + j] for j in range(3)) for i in range(3))


def has_col_line(bits) -> bool:
    return any(all(bits[3 * j + i] for j in range(3)) for i in range(3))


class TestLineDetectionData:
    def test_full_task_shape(self):
        d = ds.gen_edge_detection()
        assert len(d) == 512
        assert (d.d_x, d.d_y, d.class_count) == (9, 2, 4)
        assert d.x.shape == (512, 9) and d.y.shape == (512, 2)
        assert len({x for x, _ in samples(d)}) == 512

    def test_label_counts(self):
        # no-line-in-3-rows images number 7^3; inclusion-exclusion gives the
        # rest of the 4-way breakdown
        d = ds.gen_edge_detection()
        counts = {}
        for _, y in samples(d):
            counts[y] = counts.get(y, 0) + 1
        assert counts == {(0, 0): 91, (0, 1): 78, (1, 0): 78, (1, 1): 265}
        with_row = counts[(0, 0)] + counts[(0, 1)]
        assert with_row == 512 - 7 ** 3

    def test_pinned_labels(self):
        d = ds.gen_edge_detection()
        by_x = dict(samples(d))
        assert by_x[(0,) * 9] == (1, 1)
        assert by_x[(1,) * 9] == (0, 0)
        top_row = tuple(1 if b in (0, 1, 2) else 0 for b in range(9))
        assert by_x[top_row] == (0, 1)
        left_col = tuple(1 if b in (0, 3, 6) else 0 for b in range(9))
        assert by_x[left_col] == (1, 0)

    def test_single_output_variant(self):
        d = ds.gen_simplified_ed()
        assert len(d) == 512
        assert (d.d_x, d.d_y, d.class_count) == (9, 1, 2)
        positives = sum(y[0] for _, y in samples(d))
        assert positives == 512 - 7 ** 3 == 169

    def test_generators_match_per_image_rule(self):
        # row i is image index i; labels from scanning its rows and columns
        edge, sed = [], []
        for i in range(512):
            bits = index_to_bits(i, 9)
            row, col = has_row_line(bits), has_col_line(bits)
            edge.append((bits, (1 - row, 1 - col)))
            sed.append((bits, (int(row),)))
        assert samples(ds.gen_edge_detection()) == edge
        assert samples(ds.gen_simplified_ed()) == sed

    def test_generators_are_deterministic(self):
        assert samples(ds.gen_edge_detection()) == \
            samples(ds.gen_edge_detection())
        assert samples(ds.gen_simplified_ed()) == \
            samples(ds.gen_simplified_ed())


class TestSplit:
    def test_partition(self):
        d = ds.gen_edge_detection()
        train, test = ds.split(d, 400, seed=0)
        assert len(train) == 400 and len(test) == 112
        train_x = {x for x, _ in samples(train)}
        test_x = {x for x, _ in samples(test)}
        assert not train_x & test_x
        assert train_x | test_x == {x for x, _ in samples(d)}

    def test_rows_follow_the_seeded_permutation(self):
        d = ds.gen_edge_detection()
        train, test = ds.split(d, 400, seed=7)
        perm = np.random.default_rng(7).permutation(512)
        rows = samples(d)
        assert samples(train) == [rows[i] for i in perm[:400]]
        assert samples(test) == [rows[i] for i in perm[400:]]

    def test_metadata_propagates(self):
        d = ds.gen_edge_detection()
        train, test = ds.split(d, 100, seed=3)
        for part in (train, test):
            assert (part.d_x, part.d_y) == (d.d_x, d.d_y)
            assert part.class_count == d.class_count

    def test_deterministic_and_seed_sensitive(self):
        d = ds.gen_simplified_ed()
        a1, b1 = ds.split(d, 400, seed=0)
        a2, b2 = ds.split(d, 400, seed=0)
        assert samples(a1) == samples(a2) and samples(b1) == samples(b2)
        a3, _ = ds.split(d, 400, seed=1)
        assert samples(a1) != samples(a3)

    def test_bounds(self):
        d = ds.gen_simplified_ed()
        with pytest.raises(ValueError):
            ds.split(d, 0, seed=0)
        with pytest.raises(ValueError):
            ds.split(d, 512, seed=0)


class TestCorrectness:
    def test_packed_mask_matches_scalar_exact_match(self):
        # one sample's counts are its per-weight correctness mask
        m = bc.simplified_ed_model()
        d = ds.gen_simplified_ed()
        rows = samples(d)
        for x, y in rows[:16] + rows[200:208]:
            mask = bc.correct_counts(m, [x], [y])
            for wi in range(2 ** m.weight_width):
                w = index_to_bits(wi, m.weight_width)
                yhat = bc.eval_circuit(m, w, x)
                assert mask[wi] == (yhat == y)

    def test_packed_mask_matches_scalar_decode(self):
        # exact match on tiny-mnist's outputs is digit equality of its
        # detector wires
        m = bc.tiny_mnist_model()
        raw = bc.ModelCircuit(20, 9, m.gates, ("o0", "o1"))
        probe_ws = [0, 1, 63, 64, 65, 512, 1023, 1024, 2 ** 19,
                    2 ** 19 + 512, 2 ** 20 - 1]
        for y in ((1, 0), (0, 1), (0, 0)):
            for x in ((1, 0, 1, 0, 1, 0, 1, 0, 1), (0,) * 9):
                mask = bc.correct_counts(m, [x], [y])
                for wi in probe_ws:
                    w = index_to_bits(wi, m.weight_width)
                    yhat = bc.eval_circuit(raw, w, x)
                    assert mask[wi] == (decode_digit(yhat) ==
                                        decode_digit(y))


class TestIdxFormat:
    def test_image_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        assert np.array_equal(ds.parse_idx(ds.write_idx(arr)), arr)

    def test_label_round_trip(self):
        arr = np.array([0, 1, 2, 7, 255], dtype=np.uint8)
        assert np.array_equal(ds.parse_idx(ds.write_idx(arr)), arr)

    def test_write_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ds.write_idx(np.zeros((2, 2), dtype=np.uint8))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ds.parse_idx(b"\x00\x01")
        with pytest.raises(ValueError):
            ds.parse_idx(b"\xff\xff\xff\xff" + b"\x00" * 20)

    def test_parse_rejects_size_mismatch(self):
        good = ds.write_idx(np.zeros((2, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            ds.parse_idx(good[:-1])
        with pytest.raises(ValueError):
            ds.parse_idx(good + b"\x00")
        labels = ds.write_idx(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            ds.parse_idx(labels[:-2])

    def test_parse_rejects_truncated_image_header(self):
        head = ds.write_idx(np.zeros((1, 2, 2), dtype=np.uint8))[:10]
        with pytest.raises(ValueError):
            ds.parse_idx(head)


class TestDownsample:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            downsample(np.zeros((27, 28), dtype=np.uint8))

    def test_extremes(self):
        assert downsample(np.zeros((28, 28), dtype=np.uint8)) == (0,) * 9
        assert downsample(np.full((28, 28), 255, np.uint8)) == (1,) * 9

    def test_threshold_is_inclusive_at_midpoint(self):
        assert downsample(np.full((28, 28), 128, np.uint8)) == (1,) * 9
        assert downsample(np.full((28, 28), 127, np.uint8)) == (0,) * 9

    def test_band_products_match_integer_block_sums(self):
        # random images, and images whose block means sit near 127.5
        rng = np.random.default_rng(9)
        imgs = np.concatenate([rng.integers(lo, hi, (200, 28, 28), np.uint8)
                               for lo, hi in ((0, 256), (126, 130))])
        band = [slice(0, 9), slice(9, 18), slice(18, 28)]
        blocks = [(row, col) for row in band for col in band]
        want = [[int(2 * img[b].sum(dtype=np.int64) >= 255 * img[b].size)
                 for b in blocks] for img in imgs]
        assert ds._downsample_bits(imgs).tolist() == want

    def test_block_geometry(self):
        for bit in range(9):
            bits = tuple(int(b == bit) for b in range(9))
            assert downsample(img_from_bits(bits)) == bits

    def test_wide_last_band(self):
        # the last row/column band spans 10 pixels (18..27), so 45 lit pixels
        # average to 114.75 there; a 9-pixel band would wrongly read 141.7
        img = np.zeros((28, 28), dtype=np.uint8)
        img[18:27, 18:27] = 255  # 81 of 100 pixels
        assert downsample(img)[8] == 1
        img2 = np.zeros((28, 28), dtype=np.uint8)
        img2[18:23, 18:27] = 255  # 45 of 100 pixels
        assert downsample(img2)[8] == 0

    def test_batch_matches_block_mean_rule(self):
        # pixel values straddle the threshold, so block means land on both
        # sides of 127.5 and exactly on it
        rng = np.random.default_rng(8)
        imgs = rng.integers(125, 131, size=(300, 28, 28), dtype=np.uint8)
        imgs[0] = np.where(np.indices((28, 28)).sum(0) % 2, 127, 128)
        edges = [0, 9, 18, 28]
        for img in imgs:
            want = tuple(int(img[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
                             .astype(np.float64).mean() >= 127.5)
                         for i in range(3) for j in range(3))
            assert downsample(img) == want
        labels = np.full(len(imgs), 7, dtype=np.uint8)
        d = ds.make_tiny_mnist(imgs, labels)
        assert [x for x, _ in samples(d)] == list(dict.fromkeys(
            downsample(img) for img in imgs))


class TestMakeTinyMnist:
    def test_filters_other_digits(self):
        imgs = np.stack([img_from_bits((1,) + (0,) * 8),
                         img_from_bits((0,) * 9)])
        labels = np.array([1, 3], dtype=np.uint8)
        d = ds.make_tiny_mnist(imgs, labels)
        assert samples(d) == [((1,) + (0,) * 8, (1, 0))]

    def test_rejects_when_nothing_survives(self):
        imgs = np.stack([img_from_bits((0,) * 9)])
        with pytest.raises(ValueError):
            ds.make_tiny_mnist(imgs, np.array([3], dtype=np.uint8))

    def test_rejects_length_mismatch(self):
        imgs = np.stack([img_from_bits((0,) * 9)])
        with pytest.raises(ValueError):
            ds.make_tiny_mnist(imgs, np.array([1, 2], dtype=np.uint8))
        with pytest.raises(ValueError):  # a label file that holds images
            ds.make_tiny_mnist(imgs, np.ones((1, 5, 5), np.uint8))

    def test_majority_vote_merges_duplicates(self):
        bits = (1, 0, 1, 0, 0, 0, 0, 0, 0)
        imgs = np.stack([img_from_bits(bits)] * 3)
        d = ds.make_tiny_mnist(imgs, np.array([1, 2, 2], np.uint8))
        assert len(d) == 1
        assert samples(d) == [(bits, (0, 1))]

    def test_vote_ties_go_to_smallest_class(self):
        bits = (0, 1, 0, 0, 0, 0, 0, 0, 0)
        imgs = np.stack([img_from_bits(bits)] * 2)
        d = ds.make_tiny_mnist(imgs, np.array([2, 1], np.uint8))
        assert samples(d)[0][1] == (1, 0)
        d = ds.make_tiny_mnist(imgs, np.array([7, 2], np.uint8))
        assert samples(d)[0][1] == (0, 1)

    def test_label_bit_patterns(self):
        patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        imgs = np.stack([img_from_bits(p + (0,) * 6) for p in patterns])
        d = ds.make_tiny_mnist(imgs, np.array([1, 2, 7], np.uint8))
        assert [y for _, y in samples(d)] == [(1, 0), (0, 1), (0, 0)]
        assert d.class_count == 3 and d.d_y == 2

    def test_keeps_first_appearance_order(self):
        a = (1,) + (0,) * 8
        b = (0, 1) + (0,) * 7
        imgs = np.stack([img_from_bits(p) for p in (b, a, b)])
        d = ds.make_tiny_mnist(imgs, np.array([2, 1, 2], np.uint8))
        assert [x for x, _ in samples(d)] == [b, a]

    def test_vote_matches_dict_tally_reference(self):
        """Random batches against a per-image dict tally: repeats, ties,
        other digits and single-pattern batches."""
        rng = np.random.default_rng(12)
        grid = np.stack([img_from_bits(index_to_bits(i, 9))
                         for i in range(512)])
        ties = 0
        for trial in range(300):
            n = int(rng.integers(1, 40))
            pool = rng.choice(512, size=1 if trial % 5 == 0
                              else int(rng.integers(1, 12)), replace=False)
            pats = rng.choice(pool, size=n)
            labels = rng.choice([1, 2, 7, 0, 3, 9], size=n)
            if trial % 3 == 0:  # each image twice, the copy with a task
                # digit: many patterns split evenly over two classes
                pats = np.repeat(pats, 2)
                labels = np.stack([labels, rng.choice([1, 2, 7], size=n)],
                                  axis=1).ravel()
            want, tied = reference_tiny_mnist(
                [index_to_bits(int(i), 9) for i in pats], labels.tolist())
            ties += tied
            labels = labels.astype(np.uint8)
            if not want:
                with pytest.raises(ValueError):
                    ds.make_tiny_mnist(grid[pats], labels)
                continue
            assert samples(ds.make_tiny_mnist(grid[pats], labels)) == want
        assert ties > 50


def reference_tiny_mnist(bits, labels):
    """make_tiny_mnist's vote as a per-image dict tally: (samples in
    first-appearance order, number of patterns whose top vote is tied)."""
    votes = {}
    for b, lab in zip(bits, labels):
        if lab in DIGIT_PATTERNS:
            tally = votes.setdefault(tuple(b), {})
            tally[lab] = tally.get(lab, 0) + 1
    out, tied = [], 0
    for b, tally in votes.items():  # dicts keep first-appearance order
        best = max(sorted(DIGIT_PATTERNS),
                   key=lambda c: (tally.get(c, 0), -c))  # ties -> smallest
        out.append((b, DIGIT_PATTERNS[best]))
        tied += sum(v == tally[best] for v in tally.values()) > 1
    return out, tied


class TestCsv:
    def test_layout(self):
        d = ds.Dataset([(1, 0, 1), (0, 0, 0)], [(0, 1), (1, 0)], 4)
        assert ds.dataset_to_csv(d) == ("x_bits,y_bits\n"
                                        "101,01\n"
                                        "000,10\n")

    def test_matches_per_row_rule(self):
        d = ds.gen_edge_detection()
        lines = ["".join(map(str, x)) + "," + "".join(map(str, y))
                 for x, y in samples(d)]
        assert ds.dataset_to_csv(d) == "x_bits,y_bits\n" + \
            "".join(line + "\n" for line in lines)
