"""Workload inputs and output references that do not trust the code under test.

Everything here is re-derived from the documented rules, not from the
package's own helpers: the synthetic digit images, the two line-image
datasets and their splits, a model evaluator that interprets
`ModelCircuit.gates` directly, the amplification plan in exact integer
arithmetic, the closed-form weight distribution per distinct count, and the
best-of-budget search replayed on the same PCG64 streams. Only the model
circuits themselves are taken from the package: they are the specification.
"""
from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

DIGITS = (1, 2, 7)
DIGIT_BITS = {1: (1, 0), 2: (0, 1), 7: (0, 0)}
OTHER_DIGITS = (0, 3, 4, 5, 6, 8, 9)
BLOCK_EDGES = (0, 9, 18, 28)  # 3x3 block bands of a 28x28 image
# split: distinct in-task patterns, in-task images, images of other digits
MNIST_SPLITS = (("train", 450, 1200, 300), ("test", 270, 400, 100))


# ---------------------------------------------------------------------------
# synthetic tiny-mnist

def synth_mnist(seed: int):
    """Seeded stand-in for the four IDX arrays.

    Each split draws its set of distinct 3x3 block patterns (450 for train,
    270 for test, so the work per job does not depend on the seed) and
    paints in-task images that cover every pattern at least once, plus
    images of digits outside the task. Set blocks get pixel values in
    [160, 255], clear blocks values in [0, 95], so every block mean sits far
    from the 127.5 threshold and the pattern is known exactly. Each pattern
    has a preferred digit; a quarter of the in-task labels are random digits
    of the task instead.

    Returns {split: (images, labels, patterns)}.
    """
    rng = np.random.default_rng([seed, 28])
    preferred = rng.choice(DIGITS, size=512)
    band = np.searchsorted(BLOCK_EDGES, np.arange(28), side="right") - 1
    block_of_pixel = 3 * band[:, None] + band[None, :]
    out = {}
    for name, n_distinct, n_task, n_other in MNIST_SPLITS:
        chosen = rng.permutation(512)[:n_distinct]
        task = np.concatenate(
            [chosen, rng.choice(chosen, size=n_task - n_distinct)])
        labels = np.where(rng.random(n_task) < 0.25,
                          rng.choice(DIGITS, size=n_task), preferred[task])
        patterns = np.concatenate([task, rng.integers(0, 512, size=n_other)])
        labels = np.concatenate(
            [labels, rng.choice(OTHER_DIGITS, size=n_other)])
        order = rng.permutation(len(patterns))
        patterns, labels = patterns[order], labels[order]
        n = len(patterns)
        bits = (patterns[:, None] >> np.arange(9)) & 1
        on = bits[:, block_of_pixel].astype(bool)
        images = np.where(on, rng.integers(160, 256, size=(n, 28, 28)),
                          rng.integers(0, 96, size=(n, 28, 28)))
        out[name] = (images.astype(np.uint8), labels.astype(np.uint8),
                     patterns)
    return out


def write_idx(arr: np.ndarray) -> bytes:
    """Big-endian IDX container for rank-3 uint8 images or rank-1 labels."""
    magic = 0x803 if arr.ndim == 3 else 0x801
    head = magic.to_bytes(4, "big") + b"".join(
        d.to_bytes(4, "big") for d in arr.shape)
    return head + np.ascontiguousarray(arr, dtype=np.uint8).tobytes()


def write_mnist_dir(directory: Path, data) -> None:
    stems = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}
    for split_name, (img_stem, lab_stem) in stems.items():
        images, labels, _ = data[split_name]
        (directory / img_stem).write_bytes(write_idx(images))
        (directory / lab_stem).write_bytes(write_idx(labels))


def mnist_reference(labels: np.ndarray, patterns: np.ndarray):
    """Distinct patterns of the task's digits in first-appearance order, each
    labeled by majority vote (ties to the smallest digit).
    Returns (xs uint8 (S, 9), ys uint8 (S, 2))."""
    votes: dict[int, dict[int, int]] = {}
    for lab, pat in zip(labels.tolist(), patterns.tolist()):
        if lab in DIGITS:
            tally = votes.setdefault(pat, {})
            tally[lab] = tally.get(lab, 0) + 1
    xs, ys = [], []
    for pat, tally in votes.items():
        best = max(DIGITS, key=lambda c: (tally.get(c, 0), -c))
        xs.append([(pat >> b) & 1 for b in range(9)])
        ys.append(DIGIT_BITS[best])
    return np.array(xs, dtype=np.uint8), np.array(ys, dtype=np.uint8)


# ---------------------------------------------------------------------------
# line-image datasets

def edge_reference(split_seed: int, n_train: int = 400):
    """All 512 3x3 images with y = (no full row, no full column), and the
    train and test halves of the documented PCG64 permutation.
    Returns xs (512, 9), ys (512, 2), train indices, test indices."""
    idx = np.arange(512)
    xs = ((idx[:, None] >> np.arange(9)) & 1).astype(np.uint8)
    grid = xs.reshape(512, 3, 3)
    row = grid.all(axis=2).any(axis=1)
    col = grid.all(axis=1).any(axis=1)
    ys = np.stack([1 - row, 1 - col], axis=1).astype(np.uint8)
    perm = np.random.default_rng(split_seed).permutation(512)
    return xs, ys, perm[:n_train], perm[n_train:]


# ---------------------------------------------------------------------------
# model evaluation

def eval_model(model, weights: np.ndarray, xs: np.ndarray) -> list[np.ndarray]:
    """Outputs of `model` on every (weight, sample) pair, gate by gate.
    Returns one bool array of shape (len(weights), len(xs)) per output."""
    weights = np.asarray(weights, dtype=np.int64)
    vals = {f"w{i}": ((weights >> i) & 1).astype(bool)[:, None]
            for i in range(model.weight_width)}
    vals.update({f"x{j}": xs[:, j].astype(bool)[None, :]
                 for j in range(model.input_width)})
    for g in model.gates:
        a = [vals[n] for n in g.ins]
        if g.op == "NOT":
            r = ~a[0]
        elif g.op == "COPY":
            r = a[0]
        elif g.op == "XOR":
            r = np.logical_xor.reduce(np.broadcast_arrays(*a))
        elif g.op == "AND":
            r = np.logical_and.reduce(np.broadcast_arrays(*a))
        elif g.op == "OR":
            r = np.logical_or.reduce(np.broadcast_arrays(*a))
        else:  # MAJ
            r = (a[0] & a[1]) | (a[0] & a[2]) | (a[1] & a[2])
        vals[g.out] = r
    shape = (len(weights), len(xs))
    return [np.broadcast_to(vals[n], shape) for n in model.output_wires]


def _digit(o0, o1):
    return np.where(o0, 1, np.where(o1, 2, 7))


def correct_counts(model, weights, xs, ys, decode: bool) -> np.ndarray:
    """Correct predictions per weight over the samples (xs, ys)."""
    outs = eval_model(model, weights, xs)
    if decode:
        ok = _digit(outs[0], outs[1]) == _digit(ys[:, 0], ys[:, 1])[None, :]
    else:
        ok = np.ones(outs[0].shape, dtype=bool)
        for b, o in enumerate(outs):
            ok &= o == ys[:, b].astype(bool)[None, :]
    return ok.sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# amplification plan and closed form, exact per distinct count

def count_histogram(counts: np.ndarray) -> dict[int, int]:
    hist = np.bincount(counts)
    return {c: int(h) for c, h in enumerate(hist.tolist()) if h}


def reference_plan(hist: dict[int, int], n: int, d_w: int, k: int,
                   m: int = 0) -> dict:
    """Angle arcsin(sqrt(|S|/T)), g = round((m pi + pi/2 - theta)/(2 theta))
    with halves up, and auto padding: when sin^2((2g+1) theta) < 0.9, the
    fewest padding samples that bring |S|/T to at most sin^2(pi/6)."""
    s_total = sum(h * c ** k for c, h in hist.items())

    def states(n_aux):
        return (1 << d_w) * (n + n_aux) ** k

    def rounds(theta):
        return max(math.floor((m * math.pi + math.pi / 2 - theta)
                              / (2 * theta) + 0.5), 0)

    n_aux = 0
    theta = math.asin(math.sqrt(s_total / states(0)))
    g = rounds(theta)
    if math.sin((2 * g + 1) * theta) ** 2 < 0.9:
        limit = Fraction(math.sin(math.pi / 6) ** 2 * (1 + 1e-12))
        ok = lambda a: Fraction(s_total, states(a)) <= limit  # noqa: E731
        if not ok(0):
            hi = 1
            while not ok(hi):
                hi *= 2
            lo = hi // 2  # invariant: ok(lo) is false, ok(hi) is true
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if ok(mid) else (mid, hi)
            n_aux = hi
            theta = math.asin(math.sqrt(s_total / states(n_aux)))
            g = rounds(theta)
    return {"n_aux": n_aux, "theta": theta, "g": g,
            "residual": math.sin((2 * g + 1) * theta) ** 2,
            "s_total": s_total, "n_states": states(n_aux),
            "per_weight": (n + n_aux) ** k, "k": k}


def reference_distribution(counts: np.ndarray, plan: dict) -> np.ndarray:
    """p_i = s_i r/|S| + (P - s_i)(1 - r)/(T - |S|) with s_i = c_i^k, evaluated
    exactly once per distinct count and looked up per weight."""
    r = Fraction(plan["residual"])
    s_total, n_states = plan["s_total"], plan["n_states"]
    per_weight, k = plan["per_weight"], plan["k"]
    lut = np.zeros(int(counts.max()) + 1)
    for c in np.unique(counts).tolist():
        s = c ** k
        if plan["residual"] == 1.0:
            p = Fraction(s, s_total)
        else:
            p = (s * r / s_total
                 + (per_weight - s) * (1 - r) / (n_states - s_total))
        lut[c] = float(p)
    return lut[counts]


def reference_curve(p: np.ndarray, train_counts, n_train: int, test_counts,
                    n_test: int, budgets: list[int], runs: int, seed: int,
                    eval_shots: int | None) -> dict[str, np.ndarray]:
    """Best-of-budget search replayed per repetition on
    default_rng([seed, rep]): all draws first, then (with shot evaluation)
    eval_shots uniforms per draw in draw order. The best candidate has the
    highest estimate, ties to the smallest weight index.
    train_counts/test_counts map a weight index array to correct counts."""
    max_b = budgets[-1]
    at = np.asarray(budgets) - 1
    train = np.zeros((runs, len(budgets)))
    test = np.zeros((runs, len(budgets)))
    low = 1 << 32
    for rep in range(runs):
        rng = np.random.default_rng([seed, rep])
        draws = rng.choice(len(p), size=max_b, replace=True, p=p)
        c = train_counts(draws)
        if eval_shots is None:
            score = c
        else:
            u = rng.random((max_b, eval_shots))
            score = (u < (c / float(n_train))[:, None]).sum(axis=1)
        key = np.maximum.accumulate(score.astype(np.int64) * low
                                    + (low - 1 - draws))
        best = (low - 1 - (key % low))[at]
        train[rep] = train_counts(best) / float(n_train)
        test[rep] = test_counts(best) / float(n_test)
    return {"budget": np.asarray(budgets, dtype=float),
            "mean_train": train.mean(axis=0), "std_train": train.std(axis=0),
            "mean_test": test.mean(axis=0), "std_test": test.std(axis=0)}


# ---------------------------------------------------------------------------
# CSV columns, compared by name

def csv_columns(path: Path, names) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV file, picked by header name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
    missing = [n for n in names if n not in header]
    if missing:
        raise KeyError(f"{path.name} lacks columns {missing}")
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[header.index(n) for n in names])
    return {n: cols[:, i] for i, n in enumerate(names)}


def close(actual, expected, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    """Elementwise |actual - expected| <= abs_ + rel |expected|. The relative
    default allows for 12 printed significant digits."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= abs_ + rel * np.abs(expected)))
