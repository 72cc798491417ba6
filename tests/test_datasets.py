import numpy as np
import pytest

from grovertrain import boolcirc as bc
from grovertrain import datasets as ds
from test_boolcirc import decode_digit


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
    d = ds.make_tiny_mnist(np.asarray(img)[None], np.array([1], np.uint8),
                           "train")
    return d.samples[0].x


class TestDatasetValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ds.Dataset([], 1, 1, 2)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            ds.Dataset([ds.Sample((0, 1), (0,))], 3, 1, 2)
        with pytest.raises(ValueError):
            ds.Dataset([ds.Sample((0, 1), (0, 0))], 2, 1, 2)

    def test_rejects_conflicting_labels(self):
        samples = [ds.Sample((0, 1), (0,)), ds.Sample((0, 1), (1,))]
        with pytest.raises(ValueError):
            ds.Dataset(samples, 2, 1, 2)

    def test_allows_consistent_duplicates(self):
        samples = [ds.Sample((0, 1), (0,)), ds.Sample((0, 1), (0,))]
        d = ds.Dataset(samples, 2, 1, 2)
        assert len(d) == 2


class TestLineDetectionData:
    def test_full_task_shape(self):
        d = ds.gen_edge_detection()
        assert len(d) == 512
        assert (d.d_x, d.d_y, d.class_count) == (9, 2, 4)
        assert len({s.x for s in d.samples}) == 512

    def test_label_counts(self):
        # no-line-in-3-rows images number 7^3; inclusion-exclusion gives the
        # rest of the 4-way breakdown
        d = ds.gen_edge_detection()
        counts = {}
        for s in d.samples:
            counts[s.y] = counts.get(s.y, 0) + 1
        assert counts == {(0, 0): 91, (0, 1): 78, (1, 0): 78, (1, 1): 265}
        with_row = counts[(0, 0)] + counts[(0, 1)]
        assert with_row == 512 - 7 ** 3

    def test_pinned_labels(self):
        d = ds.gen_edge_detection()
        by_x = {s.x: s.y for s in d.samples}
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
        positives = sum(s.y[0] for s in d.samples)
        assert positives == 512 - 7 ** 3 == 169

    def test_generators_are_deterministic(self):
        assert ds.gen_edge_detection().samples == ds.gen_edge_detection().samples
        assert ds.gen_simplified_ed().samples == ds.gen_simplified_ed().samples


class TestSplit:
    def test_partition(self):
        d = ds.gen_edge_detection()
        train, test = ds.split(d, 400, seed=0)
        assert len(train) == 400 and len(test) == 112
        train_x = {s.x for s in train.samples}
        test_x = {s.x for s in test.samples}
        assert not train_x & test_x
        assert train_x | test_x == {s.x for s in d.samples}

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
        assert a1.samples == a2.samples and b1.samples == b2.samples
        a3, _ = ds.split(d, 400, seed=1)
        assert a1.samples != a3.samples

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
        for s in d.samples[:16] + d.samples[200:208]:
            mask = bc.correct_counts(m, [s.x], [s.y])
            for wi in range(2 ** m.weight_width):
                w = bc.index_to_bits(wi, m.weight_width)
                yhat = bc.eval_circuit(m, w, s.x)
                assert mask[wi] == (yhat == s.y)

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
                    w = bc.index_to_bits(wi, m.weight_width)
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
        d = ds.make_tiny_mnist(imgs, labels, "train")
        assert [s.x for s in d.samples] == list(dict.fromkeys(
            downsample(img) for img in imgs))


class TestMakeTinyMnist:
    def test_filters_other_digits(self):
        imgs = np.stack([img_from_bits((1,) + (0,) * 8),
                         img_from_bits((0,) * 9)])
        labels = np.array([1, 3], dtype=np.uint8)
        d = ds.make_tiny_mnist(imgs, labels, "train")
        assert len(d) == 1
        assert d.samples[0].y == (1, 0)

    def test_rejects_when_nothing_survives(self):
        imgs = np.stack([img_from_bits((0,) * 9)])
        with pytest.raises(ValueError):
            ds.make_tiny_mnist(imgs, np.array([3], dtype=np.uint8), "train")

    def test_rejects_bad_split_name(self):
        imgs = np.stack([img_from_bits((0,) * 9)])
        with pytest.raises(ValueError):
            ds.make_tiny_mnist(imgs, np.array([1], dtype=np.uint8), "half")

    def test_rejects_length_mismatch(self):
        imgs = np.stack([img_from_bits((0,) * 9)])
        with pytest.raises(ValueError):
            ds.make_tiny_mnist(imgs, np.array([1, 2], dtype=np.uint8), "train")
        with pytest.raises(ValueError):  # a label file that holds images
            ds.make_tiny_mnist(imgs, np.ones((1, 5, 5), np.uint8), "train")

    def test_majority_vote_merges_duplicates(self):
        bits = (1, 0, 1, 0, 0, 0, 0, 0, 0)
        imgs = np.stack([img_from_bits(bits)] * 3)
        d = ds.make_tiny_mnist(imgs, np.array([1, 2, 2], np.uint8), "train")
        assert len(d) == 1
        assert d.samples[0].x == bits
        assert d.samples[0].y == (0, 1)

    def test_vote_ties_go_to_smallest_class(self):
        bits = (0, 1, 0, 0, 0, 0, 0, 0, 0)
        imgs = np.stack([img_from_bits(bits)] * 2)
        d = ds.make_tiny_mnist(imgs, np.array([2, 1], np.uint8), "train")
        assert d.samples[0].y == (1, 0)
        d = ds.make_tiny_mnist(imgs, np.array([7, 2], np.uint8), "train")
        assert d.samples[0].y == (0, 1)

    def test_label_bit_patterns(self):
        patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        imgs = np.stack([img_from_bits(p + (0,) * 6) for p in patterns])
        d = ds.make_tiny_mnist(imgs, np.array([1, 2, 7], np.uint8), "train")
        assert [s.y for s in d.samples] == [(1, 0), (0, 1), (0, 0)]
        assert d.class_count == 3 and d.d_y == 2

    def test_keeps_first_appearance_order(self):
        a = (1,) + (0,) * 8
        b = (0, 1) + (0,) * 7
        imgs = np.stack([img_from_bits(p) for p in (b, a, b)])
        d = ds.make_tiny_mnist(imgs, np.array([2, 1, 2], np.uint8), "train")
        assert [s.x for s in d.samples] == [b, a]


class TestCsv:
    def test_layout(self):
        d = ds.Dataset([ds.Sample((1, 0, 1), (0, 1)),
                        ds.Sample((0, 0, 0), (1, 0))], 3, 2, 4)
        assert ds.dataset_to_csv(d) == ("x_bits,y_bits\n"
                                        "101,01\n"
                                        "000,10\n")
