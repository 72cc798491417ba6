"""Benchmark datasets: 3x3 line-detection tasks and a 3-class digits task
downsampled to 3x3 blocks, plus IDX file ingestion and deterministic splits.

A sample is one row of a `Dataset`'s x and y bit arrays, bit j in column j;
image bit 3*i+j is row i, column j of the 3x3 grid. A prediction is correct
iff its output bits equal y's bits. The tiny-mnist labels are each digit's
canonical pattern, 1 -> (1,0), 2 -> (0,1), 7 -> (0,0), which
`boolcirc.tiny_mnist_model` writes from its decoded detectors, so exact match
there is digit equality.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TINY_MNIST_CLASSES = (1, 2, 7)
# each class's canonical output pattern, as tiny_mnist_model writes it
_CLASS_BITS = np.array([(1, 0), (0, 1), (0, 0)], dtype=np.uint8)


@dataclass
class Dataset:
    """Samples as rows of x (n, d_x) and y (n, d_y), uint8 0/1 arrays; rows
    that repeat an x must repeat its y. The arrays are the dataset's own
    read-only copies, so what is computed from them (`amplify.accuracy_table`
    keeps its tables in `_tables`) stays true of them."""
    x: np.ndarray
    y: np.ndarray
    class_count: int
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        x, y = np.asarray(self.x), np.asarray(self.y)
        if (x.ndim != 2 or y.ndim != 2 or len(x) != len(y)
                or 0 in x.shape + y.shape):
            raise ValueError(f"expected x (n, d_x) and y (n, d_y) with n, d_x "
                             f"and d_y >= 1, got {x.shape} and {y.shape}")
        if not (((x == 0) | (x == 1)).all() and ((y == 0) | (y == 1)).all()):
            raise ValueError("sample bits must be 0 or 1")
        self.x, self.y = x.astype(np.uint8), y.astype(np.uint8)
        self.x.flags.writeable = self.y.flags.writeable = False
        _, first, group = np.unique(_row_keys(self.x), return_index=True,
                                    return_inverse=True)
        clash = (self.y != self.y[first[group]]).any(axis=1)
        if clash.any():
            raise ValueError(f"conflicting labels for x="
                             f"{tuple(self.x[clash.argmax()].tolist())}")

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_y(self) -> int:
        return self.y.shape[1]

    def __len__(self) -> int:
        return len(self.x)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque value per row of a 2-D uint8 array for np.unique: rows sort
    bytewise, as np.unique(axis=0) sorts them, at a tenth of its cost."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1]}").ravel()


def _grid_lines() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 512 3x3 images, row i holding index i's bits, with whether each
    has a full row and a full column."""
    grid = (np.arange(512)[:, None] >> np.arange(9) & 1).astype(np.uint8)
    cells = grid.reshape(-1, 3, 3).astype(bool)  # [image, row, column]
    return grid, cells.all(axis=2).any(axis=1), cells.all(axis=1).any(axis=1)


def gen_edge_detection() -> Dataset:
    """All 512 3x3 binary images, 4-way labels over line presence.

    y = (not has_horizontal, not has_vertical): both lines -> (0,0),
    horizontal only -> (0,1), vertical only -> (1,0), neither -> (1,1).
    Output bit 0 tracks horizontal structure because the paired model's first
    output scans rows.
    """
    grid, row, col = _grid_lines()
    return Dataset(grid, np.stack([~row, ~col], axis=1), 4)


def gen_simplified_ed() -> Dataset:
    """All 512 3x3 binary images, y = 1 iff some row is all ones."""
    grid, row, _ = _grid_lines()
    return Dataset(grid, row[:, None], 2)


def split(d: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint train/test split of n_train vs rest.

    Sample order follows a PCG64 permutation of indices seeded with `seed`
    (numpy default_rng), so identical (dataset, n_train, seed) always gives
    identical splits.
    """
    if not 0 < n_train < len(d):
        raise ValueError(f"n_train must be in (0, {len(d)})")
    perm = np.random.default_rng(seed).permutation(len(d))
    return tuple(Dataset(d.x[i], d.y[i], d.class_count)
                 for i in (perm[:n_train], perm[n_train:]))


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


# 3x3 block bands of a 28x28 image: rows/columns 0-8, 9-17 and 18-27, as
# a 28x3 0/1 matrix, and each block's pixel count
_BAND = np.repeat(np.eye(3, dtype=np.float32), [9, 9, 10], axis=0)
_BLOCK_PIXELS = np.outer([9, 9, 10], [9, 9, 10])


def _downsample_bits(images: np.ndarray) -> np.ndarray:
    """(n, 28, 28) grayscale -> (n, 9) bits: 3x3 block means (block edges at
    floor(28*i/3): 9/9/10 pixel bands), thresholded at mean >= 127.5 and
    tested as 2 * sum >= 255 * pixel count. The block sums are two float32
    products with the band matrix, exact: each is at most 100 * 255 < 2**24."""
    if images.ndim != 3 or images.shape[1:] != (28, 28):
        raise ValueError(f"expected 28x28 images, got {images.shape[1:]}")
    sums = _BAND.T @ (images.astype(np.float32) @ _BAND)
    return (2 * sums >= 255 * _BLOCK_PIXELS).reshape(-1, 9).astype(np.uint8)


def make_tiny_mnist(images: np.ndarray, labels: np.ndarray) -> Dataset:
    """Downsampled 3-class digits task over classes 1, 2, 7.

    Each 28x28 image becomes a 9-bit vector; duplicate vectors are merged,
    labeled by majority vote with ties going to the smallest class
    (1 < 2 < 7). Sample order is first-appearance order of each distinct
    vector.
    """
    if labels.ndim != 1 or len(images) != len(labels):
        raise ValueError(f"expected one label per image, got labels of "
                         f"shape {labels.shape} for {len(images)} images")
    keep = np.isin(labels, TINY_MNIST_CLASSES)
    if not keep.any():
        raise ValueError("no samples in classes 1/2/7")
    keys, first, row = np.unique(_row_keys(_downsample_bits(images[keep])),
                                 return_index=True, return_inverse=True)
    x = keys.view(np.uint8).reshape(len(keys), -1)
    votes = np.zeros((len(x), len(TINY_MNIST_CLASSES)), dtype=np.int64)
    np.add.at(votes, (row, np.searchsorted(TINY_MNIST_CLASSES, labels[keep])),
              1)
    order = np.argsort(first)
    # argmax takes the first of tied classes, and classes ascend
    return Dataset(x[order], _CLASS_BITS[votes[order].argmax(axis=1)], 3)


def dataset_to_csv(d: Dataset) -> str:
    """One `x_bits,y_bits` line per sample, bits in wire order."""
    sep = lambda c: np.full((len(d), 1), ord(c), dtype=np.uint8)
    rows = np.hstack([d.x + ord("0"), sep(","), d.y + ord("0"), sep("\n")])
    return "x_bits,y_bits\n" + rows.tobytes().decode()
