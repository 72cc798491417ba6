"""Downsampled handwritten-digit classification end to end: IDX ingestion,
an exact accuracy table over all 2^20 weights (contracted at the model's
two 10-bit weight groups), and a short sampled optimization run.

If GROVERTRAIN_MNIST_DIR points at the four standard IDX files the real
digits are used (the exhaustive optimum then lands near 86% train / 83%
test). Otherwise the script fabricates smooth random images on the fly so
the pipeline can still be exercised; the accuracies are then properties of
the synthetic data, not of handwriting.
"""

import os
import pathlib
import tempfile
import time

import numpy as np

from grovertrain import amplify as am
from grovertrain import boolcirc as bc
from grovertrain import datasets as ds
from grovertrain import tasks


def synthesize_idx(dirpath, n_train=1200, n_test=400, seed=0):
    """Write four IDX files of smoothed random images with labels in the
    task's classes, so downsampled 3x3 patterns come out diverse."""
    rng = np.random.default_rng(seed)

    def blotchy(n):
        img = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        sm = img.astype(np.float64)
        for _ in range(2):
            sm = (sm + np.roll(sm, 1, 1) + np.roll(sm, 1, 2)
                  + np.roll(sm, -1, 1) + np.roll(sm, -1, 2)) / 5
        return sm.astype(np.uint8)

    files = {
        "train-images-idx3-ubyte": blotchy(n_train),
        "train-labels-idx1-ubyte":
            rng.choice([1, 2, 7], size=n_train).astype(np.uint8),
        "t10k-images-idx3-ubyte": blotchy(n_test),
        "t10k-labels-idx1-ubyte":
            rng.choice([1, 2, 7], size=n_test).astype(np.uint8),
    }
    for stem, arr in files.items():
        (dirpath / stem).write_bytes(ds.write_idx(arr))


def main():
    if os.environ.get("GROVERTRAIN_MNIST_DIR"):
        bundle = tasks.load_task("tiny-mnist")
        print(f"using real digit data from "
              f"{os.environ['GROVERTRAIN_MNIST_DIR']}")
    else:
        # load_task reads the files in full, so they can go right after
        with tempfile.TemporaryDirectory(prefix="tiny_mnist_demo_") as tmp:
            synthesize_idx(pathlib.Path(tmp))
            bundle = tasks.load_task("tiny-mnist", mnist_dir=tmp)
        print("no GROVERTRAIN_MNIST_DIR set; synthesized stand-in digits "
              "in a temporary directory")

    model = bundle.model
    print(f"model: {model.weight_width} weight bits, 9-bit downsampled "
          f"images, classes 1/2/7")
    print(f"train: {len(bundle.train)} distinct patterns, "
          f"test: {len(bundle.test)} distinct patterns")

    t0 = time.monotonic()
    t_train = am.accuracy_table(model, bundle.train)
    dt = time.monotonic() - t0
    best = int(np.argmax(t_train.counts))
    plan = am.make_plan(t_train, k=1)
    dist = am.evolve_distribution(t_train, plan)
    rng = np.random.default_rng(0)
    found = int(am.search(dist, t_train, 64, rng)[2][-1])
    pair = [best, found]
    train_pct = 100.0 * t_train.counts[pair] / t_train.n_samples
    # the test split is scored only at the two weights
    test_pct = 100.0 * bc.correct_counts(model, bundle.test.x, bundle.test.y,
                                         pair) / len(bundle.test)
    print(f"\nexhaustive sweep of {len(t_train.counts)} weights in {dt:.1f}s")
    print(f"best train weight {best:#07x}: train {train_pct[0]:.2f}%, "
          f"test {test_pct[0]:.2f}%")
    print(f"\nsampled optimization, 64 measurements at k=1: best found "
          f"weight {found:#07x} with train {train_pct[1]:.2f}%, "
          f"test {test_pct[1]:.2f}%")
    print("(one dataset copy measures the raw accuracy landscape; with "
          "2^20 weights that needs far more than 64 shots to top out, "
          "which is exactly the gap parallel copies close)")


if __name__ == "__main__":
    main()
