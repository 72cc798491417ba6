import os
from pathlib import Path

import numpy as np
import pytest

import grovertrain
from grovertrain import amplify as am
from grovertrain import datasets as ds
from grovertrain import tasks

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run so the verdicts are visible in one block.
ACCEPTANCE_LINES: list[str] = []


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    """Little-endian bit tuple of an index: bit j weighs 2**j."""
    return tuple((index >> j) & 1 for j in range(width))


def bits_to_index(bits) -> int:
    """Inverse of index_to_bits."""
    return sum(b << j for j, b in enumerate(bits))


def dense(state) -> np.ndarray:
    """The full 2**n_qubits amplitude vector of a small statevec state, from
    its support: the marked states' amplitude, the rest's, 0 off it."""
    idx, mark = state.support()
    amps = np.zeros(1 << state.n_qubits)
    amps[idx] = np.where(mark, state.a_marked, state.a_unmarked)
    return amps


def console_env():
    """The environment of a child Python process, such as `python -m
    grovertrain.cli`: this checkout's sources first on its import path."""
    src = str(Path(grovertrain.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def samples(d: ds.Dataset) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A dataset's rows as (x, y) bit tuples, in row order."""
    return [(tuple(x), tuple(y)) for x, y in zip(d.x.tolist(), d.y.tolist())]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_bundle():
    return tasks.load_task("toy")


@pytest.fixture(scope="session")
def edge_bundle():
    return tasks.load_task("edge")


@pytest.fixture(scope="session")
def sed_bundle():
    return tasks.load_task("simplified-ed")


@pytest.fixture(scope="session")
def edge_table(edge_bundle):
    return am.accuracy_table(edge_bundle.model, edge_bundle.full)


@pytest.fixture(scope="session")
def sed_train_table(sed_bundle):
    return am.accuracy_table(sed_bundle.model, sed_bundle.train)


@pytest.fixture(scope="session")
def toy_table(toy_bundle):
    return am.accuracy_table(toy_bundle.model, toy_bundle.full)


def make_synthetic_idx_dir(tmp_path, n_train=1200, n_test=400, seed=0):
    """Write four IDX files with smooth random images so the downsampled
    bit patterns are diverse; returns the directory path."""
    tmp_path.mkdir(parents=True, exist_ok=True)
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
            rng.choice([0, 1, 2, 5, 7], size=n_train).astype(np.uint8),
        "t10k-images-idx3-ubyte": blotchy(n_test),
        "t10k-labels-idx1-ubyte":
            rng.choice([1, 2, 7], size=n_test).astype(np.uint8),
    }
    for stem, arr in files.items():
        (tmp_path / stem).write_bytes(ds.write_idx(arr))
    return tmp_path
