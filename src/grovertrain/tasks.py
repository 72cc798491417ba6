"""Named training tasks: model circuit plus dataset splits.

Each task bundles a Boolean model with its dataset and a fixed train/test
split so experiments and the command-line runner agree on what, say,
"edge" means. The split permutation is seeded separately from run RNGs;
its default of 0 is part of each task's definition.

The tiny image-classification task reads the standard IDX files
(train-images-idx3-ubyte and friends, optionally gzipped) from a directory
given explicitly or through the GROVERTRAIN_MNIST_DIR environment variable,
afresh on every call. Everything else is generated in process, once per
process for each split seed: repeated calls return the same bundle, whose
dataset arrays are read-only (as every `Dataset`'s are), and each accuracy
table of a dataset is kept on that dataset.
"""
from __future__ import annotations

import functools
import gzip
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from .boolcirc import (ModelCircuit, edge_detection_model, simplified_ed_model,
                       tiny_mnist_model, toy_xor_model)
from .datasets import (Dataset, gen_edge_detection, gen_simplified_ed,
                       make_tiny_mnist, parse_idx, split)

MNIST_DIR_ENV = "GROVERTRAIN_MNIST_DIR"

TASK_NAMES = ("toy", "edge", "simplified-ed", "tiny-mnist")

_IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass(frozen=True)
class TaskBundle:
    """A model with its full dataset and train/test split."""
    name: str
    model: ModelCircuit
    full: Dataset
    train: Dataset
    test: Dataset


class TaskError(ValueError):
    """Unknown task name or unusable task inputs (a configuration error)."""


def _read_idx(directory: Path, stem: str):
    """Parse one IDX file, plain or gzipped; an unreadable one is a TaskError
    naming the file."""
    path = directory / stem
    if not path.exists():
        path = directory / (stem + ".gz")
    if not path.exists():
        raise TaskError(f"missing IDX file {stem}[.gz] in {directory}")
    try:
        data = path.read_bytes()
        return parse_idx(gzip.decompress(data) if path.suffix == ".gz"
                         else data)
    except (OSError, ValueError, EOFError, zlib.error) as e:
        raise TaskError(f"cannot read IDX file {path}: {e}") from e


def _load_tiny_mnist(mnist_dir: str | None) -> tuple[Dataset, Dataset]:
    where = mnist_dir or os.environ.get(MNIST_DIR_ENV)
    if not where:
        raise TaskError(
            "the tiny-mnist task needs --mnist-dir (or the "
            f"{MNIST_DIR_ENV} environment variable) pointing at the four "
            "standard IDX files")
    directory = Path(where)
    out = []
    for img_stem, lab_stem in _IDX_FILES.values():
        images = _read_idx(directory, img_stem)
        labels = _read_idx(directory, lab_stem)
        try:
            out.append(make_tiny_mnist(images, labels))
        except ValueError as e:
            raise TaskError(f"{img_stem} and {lab_stem} in {directory}: "
                            f"{e}") from e
    return out[0], out[1]


# the size bounds the distinct (name, split_seed) pairs kept at once
@functools.lru_cache(maxsize=8)
def _generated_task(name: str, split_seed: int) -> TaskBundle:
    if name == "toy":
        d = Dataset(x=[[0], [1]], y=[[0], [1]], class_count=2)
        return TaskBundle("toy", toy_xor_model(), d, d, d)
    if name == "edge":
        full, model = gen_edge_detection(), edge_detection_model()
    else:
        full, model = gen_simplified_ed(), simplified_ed_model()
    train, test = split(full, 400, seed=split_seed)
    return TaskBundle(name, model, full, train, test)


def load_task(name: str, mnist_dir: str | None = None,
              split_seed: int = 0) -> TaskBundle:
    """The named task. Split sizes are fixed per task; split_seed only
    changes which samples land in train vs test. A generated task is built
    once per (name, split_seed) and shared; tiny-mnist is read anew."""
    if name == "tiny-mnist":
        train, test = _load_tiny_mnist(mnist_dir)
        # no merged view: the same downsampled image may carry different
        # majority labels in the two source splits, so "full" means train
        return TaskBundle("tiny-mnist", tiny_mnist_model(), train, train, test)
    if name in TASK_NAMES:
        return _generated_task(name, split_seed)
    raise TaskError(f"unknown task {name!r}; choose from {', '.join(TASK_NAMES)}")
