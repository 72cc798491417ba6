"""Benchmark datasets: 3x3 line-detection tasks and a 3-class digits task
downsampled to 3x3 blocks, plus IDX file ingestion and deterministic splits.

A sample is (x, y) with x and y little-indexed bit tuples; image bit 3*i+j is
row i, column j of the 3x3 grid. A prediction is correct iff its output bits
equal y's bits. The tiny-mnist labels are each digit's canonical pattern,
1 -> (1,0), 2 -> (0,1), 7 -> (0,0), which `boolcirc.tiny_mnist_model` writes
from its decoded detectors, so exact match there is digit equality.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TINY_MNIST_CLASSES = (1, 2, 7)
# each digit's canonical output pattern, as tiny_mnist_model writes it
_DIGIT_TO_BITS = {1: (1, 0), 2: (0, 1), 7: (0, 0)}


@dataclass(frozen=True)
class Sample:
    x: tuple[int, ...]
    y: tuple[int, ...]


@dataclass
class Dataset:
    samples: list[Sample]
    d_x: int
    d_y: int
    class_count: int

    def __post_init__(self):
        if not self.samples:
            raise ValueError("dataset needs at least one sample")
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for s in self.samples:
            if len(s.x) != self.d_x or len(s.y) != self.d_y:
                raise ValueError("sample width mismatch")
            if seen.setdefault(s.x, s.y) != s.y:
                raise ValueError(f"conflicting labels for x={s.x}")

    def __len__(self) -> int:
        return len(self.samples)


def _grid_bits(index: int) -> tuple[int, ...]:
    return tuple((index >> b) & 1 for b in range(9))


def _has_row_line(bits) -> bool:
    return any(all(bits[3 * i + j] for j in range(3)) for i in range(3))


def _has_col_line(bits) -> bool:
    return any(all(bits[3 * j + i] for j in range(3)) for i in range(3))


def gen_edge_detection() -> Dataset:
    """All 512 3x3 binary images, 4-way labels over line presence.

    y = (not has_horizontal, not has_vertical): both lines -> (0,0),
    horizontal only -> (0,1), vertical only -> (1,0), neither -> (1,1).
    Output bit 0 tracks horizontal structure because the paired model's first
    output scans rows.
    """
    samples = []
    for idx in range(512):
        bits = _grid_bits(idx)
        y = (1 - int(_has_row_line(bits)), 1 - int(_has_col_line(bits)))
        samples.append(Sample(bits, y))
    return Dataset(samples, 9, 2, 4)


def gen_simplified_ed() -> Dataset:
    """All 512 3x3 binary images, y = 1 iff some row is all ones."""
    samples = []
    for idx in range(512):
        bits = _grid_bits(idx)
        samples.append(Sample(bits, (int(_has_row_line(bits)),)))
    return Dataset(samples, 9, 1, 2)


def split(d: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint train/test split of n_train vs rest.

    Sample order follows a PCG64 permutation of indices seeded with `seed`
    (numpy default_rng), so identical (dataset, n_train, seed) always gives
    identical splits.
    """
    if not 0 < n_train < len(d):
        raise ValueError(f"n_train must be in (0, {len(d)})")
    perm = np.random.default_rng(seed).permutation(len(d))
    pick = lambda idxs: Dataset([d.samples[i] for i in idxs], d.d_x, d.d_y,
                                d.class_count)
    return pick(perm[:n_train]), pick(perm[n_train:])


# ---------------------------------------------------------------------------
# IDX ingestion (the classic big-endian image/label container)

def parse_idx(data: bytes):
    """Parse IDX bytes: image files -> uint8 array (n, rows, cols), label
    files -> uint8 array (n,)."""
    if len(data) < 4:
        raise ValueError("truncated IDX header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic == IDX_IMAGES_MAGIC:
        if len(data) < 16:
            raise ValueError("truncated IDX image dimensions")
        n, rows, cols = struct.unpack(">III", data[4:16])
        need = 16 + n * rows * cols
        if len(data) != need:
            raise ValueError(f"IDX image payload is {len(data) - 16} bytes, "
                             f"expected {n * rows * cols}")
        arr = np.frombuffer(data, dtype=np.uint8, offset=16)
        return arr.reshape(n, rows, cols).copy()
    if magic == IDX_LABELS_MAGIC:
        if len(data) < 8:
            raise ValueError("truncated IDX label dimension")
        n = struct.unpack(">I", data[4:8])[0]
        if len(data) != 8 + n:
            raise ValueError(f"IDX label payload is {len(data) - 8} bytes, "
                             f"expected {n}")
        return np.frombuffer(data, dtype=np.uint8, offset=8).copy()
    raise ValueError(f"bad IDX magic 0x{magic:08x}")


def write_idx(arr: np.ndarray) -> bytes:
    """Inverse of parse_idx for uint8 arrays of rank 3 (images) or 1 (labels)."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim == 3:
        head = struct.pack(">IIII", IDX_IMAGES_MAGIC, *arr.shape)
    elif arr.ndim == 1:
        head = struct.pack(">II", IDX_LABELS_MAGIC, arr.shape[0])
    else:
        raise ValueError("expected rank-3 images or rank-1 labels")
    return head + arr.tobytes()


# 3x3 block bands of a 28x28 image: rows/columns 0-8, 9-17 and 18-27
_BLOCK_STARTS = np.array([0, 9, 18])
_BLOCK_PIXELS = np.outer([9, 9, 10], [9, 9, 10]).ravel()


def _downsample_bits(images: np.ndarray) -> np.ndarray:
    """(n, 28, 28) grayscale -> (n, 9) bits: 3x3 block means (block edges at
    floor(28*i/3): 9/9/10 pixel bands), thresholded at mean >= 127.5 and
    tested in integers as 2 * sum >= 255 * pixel count."""
    if images.ndim != 3 or images.shape[1:] != (28, 28):
        raise ValueError(f"expected 28x28 images, got {images.shape[1:]}")
    rows = np.add.reduceat(images, _BLOCK_STARTS, axis=1, dtype=np.int32)
    sums = np.add.reduceat(rows, _BLOCK_STARTS, axis=2).reshape(-1, 9)
    return (2 * sums >= 255 * _BLOCK_PIXELS).astype(np.uint8)


def make_tiny_mnist(images: np.ndarray, labels: np.ndarray,
                    split_name: str) -> Dataset:
    """Downsampled 3-class digits task over classes 1, 2, 7.

    Each 28x28 image becomes a 9-bit vector; duplicate vectors within this
    split are merged, labeled by majority vote with ties going to the smallest
    class (1 < 2 < 7). `split_name` tags which half this is ('train'/'test').
    Sample order is first-appearance order of each distinct vector.
    """
    if split_name not in ("train", "test"):
        raise ValueError("split_name must be 'train' or 'test'")
    if labels.ndim != 1 or len(images) != len(labels):
        raise ValueError(f"expected one label per image, got labels of "
                         f"shape {labels.shape} for {len(images)} images")
    keep = np.isin(labels, TINY_MNIST_CLASSES)
    if not keep.any():
        raise ValueError("no samples in classes 1/2/7")
    votes: dict[tuple[int, ...], dict[int, int]] = {}
    for bits, lab in zip(_downsample_bits(images[keep]).tolist(),
                         labels[keep].tolist()):
        tally = votes.setdefault(tuple(bits), {})
        tally[lab] = tally.get(lab, 0) + 1
    samples = []
    for bits, tally in votes.items():  # dicts keep first-appearance order
        best = max(TINY_MNIST_CLASSES,
                   key=lambda c: (tally.get(c, 0), -c))  # ties -> smallest
        samples.append(Sample(bits, _DIGIT_TO_BITS[best]))
    return Dataset(samples, 9, 2, 3)


def dataset_to_csv(d: Dataset) -> str:
    """One `x_bits,y_bits` line per sample, bits in wire order."""
    lines = ["x_bits,y_bits"]
    for s in d.samples:
        lines.append("".join(map(str, s.x)) + "," + "".join(map(str, s.y)))
    return "\n".join(lines) + "\n"
