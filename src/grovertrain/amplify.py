"""Grover-amplified weight search over exhaustive accuracy tables.

The optimizer never touches gradients: it sweeps every weight assignment to
get exact per-weight correct counts, plans a Grover amplification (angle,
iteration count, auxiliary padding), and evolves the closed-form weight
distribution. `search` is the one search loop: it samples candidate weights
from a distribution, scores them from the table exactly or by shots, and
keeps the best so far.

Closed form being evolved: starting uniform over all (weight, sample^k)
basis states, g amplification rounds leave total probability
sin^2((2g+1)theta) on the solution states (those where all k parallel copies
are real samples predicted correctly) and the rest on the others, uniformly
within each group. A weight with c correct samples out of N owns c^k of the
solution states, which is where the exponential k-fold sharpening comes from.
All of it sees a weight only through c, so it runs on the count histogram (at
most N+1 distinct counts) in exact integers, each scaled by one power of two
before it becomes a float: small shares may underflow to 0, none overflow.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np

from .boolcirc import ModelCircuit, correct_counts, weight_groups
from .datasets import Dataset

# relative slack when comparing an exact state ratio against sin(angle)^2:
# the angle itself is a rounded float, so boundary cases (ratio exactly 1/4
# vs target pi/6) must not flip on the angle's last ulp
_RATIO_SLACK = 1e-12

AUTO_PAD_TARGET_THETA = math.pi / 6
AUTO_PAD_RESIDUAL_THRESHOLD = 0.9

# search() and theta_shots() hold at most this many shot uniforms at once
_SHOT_BLOCK = 1 << 20
# cells of the guide table; a power of two, so floor(u * _GUIDE_CELLS) is exact
_GUIDE_CELLS = 1 << 12

# CSV writers build at most this many rows per byte block. It must be a
# multiple of 10**4: blocks then start on multiples of 10**4, where the
# index digits above the fourth change
_CSV_BLOCK = 10 ** 4


class DegenerateAngleError(ValueError):
    """Raised when no rotation angle is usable: the solution set is empty,
    is everything, a shot estimate landed on probability 0 or 1, or the angle
    is so small that the plan needs 2**52 rounds or more."""


@dataclass
class AccuracyTable:
    """Exact correct counts for every weight; `histogram` tallies them."""
    counts: np.ndarray  # int64, length 2**weight_width
    n_samples: int
    weight_width: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.counts) != 1 << self.weight_width:
            raise ValueError("counts length must be 2**weight_width")
        if self.counts.min() < 0 or self.counts.max() > self.n_samples:
            raise ValueError("counts must lie in [0, n_samples]")

    def accuracy(self) -> np.ndarray:
        """Per-weight accuracy J: counts / N."""
        return self.counts.astype(np.float64) / float(self.n_samples)

    def normalized_accuracy(self) -> np.ndarray:
        """Counts normalized to sum 1 (the overlay curve distributions are
        compared against)."""
        arr = self.counts.astype(np.float64)
        return arr / arr.sum()

    @cached_property
    def histogram(self) -> np.ndarray:
        """Number of weights with each correct count 0..N; computed once."""
        return np.bincount(self.counts, minlength=self.n_samples + 1)


@dataclass(frozen=True)
class SolutionStats:
    """Exact solution-state counts for a k-parallel configuration. Padded
    samples are never solutions, so only the state counts depend on n_aux."""
    pow_by_count: list[int]  # c**k for c = 0..N, 0 where no weight has c
    total: int               # |S| = sum over c of histogram[c] * c**k
    k: int
    n_weights: int           # 2**d_w
    n_samples: int           # N
    n_aux: int = 0

    def __post_init__(self):
        if self.n_aux < 0:
            raise ValueError("n_aux must be >= 0")

    @property
    def states_per_weight(self) -> int:  # (N + n_aux)**k
        return (self.n_samples + self.n_aux) ** self.k

    @property
    def n_states(self) -> int:  # T = 2**d_w * (N + n_aux)**k
        return self.n_weights * self.states_per_weight

    @property
    def scale(self) -> int:  # 2**e with T / 2**e < 2**1023: floats stay finite
        return 1 << max(0, self.n_states.bit_length() - 1023)


@dataclass
class GroverPlan:
    """One planned amplification: angle, branch, iteration count, padding."""
    k: int
    n_aux: int
    theta: float
    m: int
    g: int
    residual: float
    n_solutions: int
    n_states: int
    leakage_bound: float

    def __post_init__(self):
        if not 0 < self.theta < math.pi / 2:
            raise ValueError("theta must lie in (0, pi/2)")
        if self.g < 0:
            raise ValueError("iteration count must be >= 0")
        if not 0 <= self.residual <= 1 + 1e-12:
            raise ValueError("residual must lie in [0, 1]")


@dataclass
class WeightDistribution:
    """Measurable distribution over all weight assignments."""
    p: np.ndarray
    k: int
    g: int
    residual: float

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.min() < 0 or abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def __len__(self) -> int:
        return len(self.p)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities scaled to end at exactly 1, as
        Generator.choice builds them; computed once per distribution."""
        c = self.p.cumsum()
        c /= c[-1]
        return c

    @cached_property
    def guide(self) -> np.ndarray:
        """Per cell [c/K, (c+1)/K) of K = _GUIDE_CELLS: #(cdf <= u) for all u
        in it where #(cdf <= c/K) = #(cdf < (c+1)/K), else -1 (a CDF step)."""
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        lo = self.cdf.searchsorted(edges[:-1], side="right")
        hi = self.cdf.searchsorted(edges[1:], side="left")
        return np.where(lo == hi, lo, -1)


def accuracy_table(model: ModelCircuit, d: Dataset) -> AccuracyTable:
    """Exact correct counts for every weight (`boolcirc.correct_counts`)."""
    return AccuracyTable(correct_counts(model, d.x, d.y), len(d),
                         model.weight_width)


def counts_at(model: ModelCircuit, d: Dataset, weights) -> np.ndarray:
    """Exact correct counts at an int array of weight indices, of any shape:
    `correct_counts` over the grid of their distinct low and high group
    indices, which is never larger than the full table."""
    weights = np.asarray(weights)
    if weights.min() < 0 or weights.max() >> model.weight_width:
        raise ValueError("weight indices must lie in 0..2**weight_width - 1")
    groups = weight_groups(model)
    s = len(groups[0])
    grid, at = [], []
    for part, bits in ((weights & ((1 << s) - 1), s),
                       (weights >> s, model.weight_width - s)):
        seen = np.zeros(1 << bits, dtype=bool)
        seen[part] = True
        grid.append(np.flatnonzero(seen))  # distinct, in order
        at.append(np.cumsum(seen)[part] - 1)  # each entry's place among them
    counts = correct_counts(model, d.x, d.y, grid[:len(groups)])
    return counts.reshape(len(grid[1]), len(grid[0]))[at[1], at[0]]


def solution_stats(t: AccuracyTable, k: int, n_aux: int = 0) -> SolutionStats:
    """Exact k-parallel solution counts: a weight with c correct samples owns
    c**k solution states out of (N + n_aux)**k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mult = t.histogram.tolist()
    pow_by_count = [c ** k if m else 0 for c, m in enumerate(mult)]
    total = sum(m * s for m, s in zip(mult, pow_by_count))
    return SolutionStats(pow_by_count, total, k, 1 << t.weight_width,
                         t.n_samples, n_aux)


def theta_exact(n_solutions: int, n_total: int, use_sqrt: bool = True) -> float:
    """Rotation angle from the solution ratio n_solutions / n_total (exact
    state counts, or hits among shots).

    use_sqrt=True gives arcsin(sqrt(ratio)) (the amplitude angle); False gives
    arcsin(ratio), reproducing planners that feed the raw probability in.
    """
    if n_solutions >= n_total:
        raise DegenerateAngleError("solution ratio is 1: nothing to amplify")
    ratio = n_solutions / n_total
    if ratio <= 0.0:  # no solutions, or fewer than float64 can resolve
        raise DegenerateAngleError("solution ratio is 0: angle undefined")
    return math.asin(math.sqrt(ratio)) if use_sqrt else math.asin(ratio)


def _count_hits(p: np.ndarray, shots: int,
                rng: np.random.Generator) -> np.ndarray:
    """Hits among `shots` Bernoulli(p[i]) shots per entry, in stream order,
    in blocks of at most _SHOT_BLOCK uniforms (whole rows, or a row's
    columns), each an exact int32 byte sum of one reused bool block."""
    hits = np.zeros(len(p), dtype=np.int64)
    rows, cols = max(1, _SHOT_BLOCK // shots), min(shots, _SHOT_BLOCK)
    below = np.empty((min(rows, len(p)), cols), dtype=bool)
    for a in range(0, len(p), rows):
        for b in range(0, shots, cols):
            r, c = min(rows, len(p) - a), min(cols, shots - b)
            block = np.less(rng.random((r, c)), p[a:a + r, None],
                            out=below[:r, :c])
            hits[a:a + r] += block.view(np.uint8).sum(1, dtype=np.int32)
    return hits


def theta_shots(stats: SolutionStats, shots: int, rng: np.random.Generator,
                use_sqrt: bool = True) -> float:
    """Rotation angle from `shots` Bernoulli samples of the solution ratio,
    counted in bounded blocks of the stream of rng.random(shots)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    hits = _count_hits(np.array([stats.total / stats.n_states]), shots, rng)
    return theta_exact(int(hits[0]), shots, use_sqrt)


def grover_iterations(theta: float, m: int = 0) -> int:
    """Iteration count g = round((m*pi + pi/2 - theta) / (2*theta)), halves
    rounding up, clamped to >= 0."""
    if not 0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    if m < 0:
        raise ValueError("branch index must be >= 0")
    g = math.floor((m * math.pi + math.pi / 2 - theta) / (2 * theta) + 0.5)
    return max(g, 0)


def rotation_residual(theta: float, g: int) -> float:
    """Probability sin^2((2g+1) theta) left on solution states after g rounds."""
    return math.sin((2 * g + 1) * theta) ** 2


def pad_auxiliary(stats: SolutionStats, target_max_theta: float,
                  use_sqrt: bool = True) -> int:
    """Smallest auxiliary-sample count bringing the angle down to the target.

    The comparison runs in probability space with exact rational arithmetic:
    theta(n) <= target iff |S| / (2**d_w * (N+n)**k) <= sin(target)**2
    (or sin(target) when use_sqrt is False), with 1e-12 relative slack for the
    float rounding of the target angle itself.
    """
    if not 0 < target_max_theta <= math.pi / 4:
        raise ValueError("target angle must lie in (0, pi/4]")
    if stats.total == 0:
        raise DegenerateAngleError("no solution states: padding cannot help")
    s = math.sin(target_max_theta)
    limit = Fraction((s * s if use_sqrt else s) * (1 + _RATIO_SLACK))

    def ok(n: int) -> bool:
        return Fraction(stats.total, replace(stats, n_aux=n).n_states) <= limit

    # log-space guess for (N+n)**k >= |S| / (2**d_w * limit), then exact adjust
    need = math.exp((math.log(stats.total)
                     - math.log(stats.n_weights * limit)) / stats.k)
    n = max(0, math.ceil(need) - stats.n_samples - 2)
    while not ok(n):
        n += 1
    while n > 0 and ok(n - 1):
        n -= 1
    return n


def leakage_bound(stats: SolutionStats, residual: float) -> float:
    """Upper bound on |p_i - s_i/|S|| for the evolved distribution: the
    non-solution mass (1 - residual) spread anywhere can move a weight's
    probability by at most its own share plus one full weight's state block."""
    scale = stats.scale
    share_max = (max(stats.pow_by_count) / scale) / (stats.total / scale)
    spill = stats.states_per_weight / (stats.n_states - stats.total)
    return (1.0 - residual) * (share_max + spill)


def make_plan(t: AccuracyTable, k: int, *, pad: str | int = "auto",
              m: int = 0, theta_shot_count: int | None = None,
              rng: np.random.Generator | None = None,
              use_sqrt: bool = True) -> GroverPlan:
    """Plan one amplification: resolve padding, estimate the angle, pick g.

    pad="auto" pads to theta <= pi/6 whenever the unpadded residual after
    rounding falls below 0.9; pad=<int> forces that auxiliary count. The angle
    comes from the exact ratio, or from `theta_shot_count` Bernoulli samples
    when given (rng required then).
    """
    stats = solution_stats(t, k)

    def plan_for(n_aux: int) -> GroverPlan:
        padded = replace(stats, n_aux=n_aux)
        if theta_shot_count is None:
            theta = theta_exact(padded.total, padded.n_states, use_sqrt)
        elif rng is None:
            raise ValueError("shot-based angle estimation needs an rng")
        else:
            theta = theta_shots(padded, theta_shot_count, rng, use_sqrt)
        g = grover_iterations(theta, m)
        residual = rotation_residual(theta, g)
        return GroverPlan(k, n_aux, theta, m, g, residual, padded.total,
                          padded.n_states, leakage_bound(padded, residual))

    plan = plan_for(0 if pad == "auto" else int(pad))
    if pad == "auto" and plan.residual < AUTO_PAD_RESIDUAL_THRESHOLD:
        n_aux = pad_auxiliary(stats, AUTO_PAD_TARGET_THETA, use_sqrt)
        if n_aux > 0:
            plan = plan_for(n_aux)
    if plan.g >= 1 << 52:  # 2*g + 1 is not exact in float64 from here
        raise DegenerateAngleError(f"theta={plan.theta!r} needs g={plan.g} "
                                   "rounds, 2**52 or more")
    return plan


def evolve_distribution(t: AccuracyTable, plan: GroverPlan) -> WeightDistribution:
    """Closed-form weight distribution after the planned amplification.

    p_i = s_i * residual/|S| + ((N+n_aux)**k - s_i) * (1-residual)/(T - |S|)
    where s_i = c_i**k and T is the total state count, computed once per
    count c = 0..N and scattered to the weights. At residual exactly 1 this
    reduces to s_i/|S| with no leakage term (and at k=1 it is then
    bit-identical to normalized_accuracy)."""
    stats = solution_stats(t, plan.k, plan.n_aux)
    theta_exact(stats.total, stats.n_states)  # raises unless 0 < |S|/T < 1
    scale = stats.scale
    s = np.array([v / scale for v in stats.pow_by_count])
    if plan.residual != 1.0:
        a = plan.residual / (stats.total / scale)
        b = (1.0 - plan.residual) / ((stats.n_states - stats.total) / scale)
        s = s * a + (stats.states_per_weight / scale - s) * b
    p = s[t.counts]
    p /= p.sum()
    return WeightDistribution(p, plan.k, plan.g, plan.residual)


def uniform_distribution(weight_width: int) -> WeightDistribution:
    n = 1 << weight_width
    return WeightDistribution(np.full(n, 1.0 / n), 0, 0, 0.0)


def sample_weights(dist: WeightDistribution, m_meas: int,
                   rng: np.random.Generator) -> np.ndarray:
    """m_meas independent weight-index draws from the distribution: #(cdf
    <= u) for one uniform u each, as rng.choice(len(p), size=m_meas, p=p)
    draws them from the same stream. The guide gives it in one lookup; only
    uniforms in a cell that a CDF step splits are searched in the CDF.
    """
    if m_meas < 1:
        raise ValueError("measurement budget must be >= 1")
    u = rng.random(m_meas)
    draws = dist.guide[(u * _GUIDE_CELLS).astype(np.intp)]
    miss = np.flatnonzero(draws < 0)
    draws[miss] = dist.cdf.searchsorted(u[miss], side="right")
    return draws


def search(dist: WeightDistribution, table: AccuracyTable, m_meas: int,
           rng: np.random.Generator, eval_shots: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample m_meas weights, score each, and track the best so far.

    Each draw is scored by its exact correct count, or, with eval_shots, by
    the hits among eval_shots Bernoulli(J(w)) shots, in bounded blocks.
    Returns (draws, estimates, best_so_far): the drawn weight indices, their
    estimates, and after each draw the best weight found up to it. Ties go
    to the smallest weight index. The RNG stream is consumed as all draws
    first, then each candidate's shots in draw order.
    """
    if eval_shots is not None and eval_shots < 1:
        raise ValueError("evaluation shots must be >= 1")
    draws = sample_weights(dist, m_meas, rng)
    if eval_shots is None:
        scores = table.counts[draws]
        estimates = scores / table.n_samples
    else:
        scores = _count_hits(table.counts[draws] / table.n_samples,
                             eval_shots, rng)
        estimates = scores / eval_shots
    n_w = len(dist.p)
    # one key orders by score, then by smaller index: ties go to the smallest
    key = np.maximum.accumulate(scores * n_w + (n_w - 1 - draws))
    return draws, estimates, n_w - 1 - key % n_w


# ---------------------------------------------------------------------------
# CSV emission (12 significant digits, newline-terminated, byte-stable)

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _digit_table(d: int) -> np.ndarray:
    """The zero-padded d-digit text of 0 .. 10**d - 1, as S{d} items, put
    together from the ten digit bytes by broadcasting."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    grid = np.empty((10,) * d + (d,), dtype=np.uint8)
    for col in range(d):
        grid[..., col] = digits.reshape((10,) + (1,) * (d - 1 - col))
    return grid.view(f"S{d}").ravel()


def csv_blocks(head: str, tails: list[str], keys: np.ndarray
               ) -> Iterator[bytes]:
    """Yield `head`, then the row f"{i},{tails[keys[i]]}" for every index
    i, in byte blocks of at most _CSV_BLOCK rows.

    A row depends on its index only through its key, so each tail is
    encoded once per key, NUL-padded to a common width.
    Blocks start at multiples of 10**4 and where the index gains a digit (at
    10**d). So a d-digit index is its high d-4 digits, the same for each
    10**4 rows of a block, then its low digits, the same for every block of
    a run of d-digit indices. Each run gets one record buffer (high digits,
    low digits, comma, tail), with the low digits and commas filled in once.
    A block writes its high digits and gathered tails into the buffer, and
    dropping the NULs leaves the block's bytes.
    """
    yield head.encode()
    padded = np.array([t.encode() for t in tails])
    n = len(keys)
    for d in range(1, len(str(n)) + 1):
        start, stop = 10 ** (d - 1) if d > 1 else 0, min(10 ** d, n)
        if start >= stop:
            break
        hi = max(d - 4, 0)
        rec = np.empty(min(_CSV_BLOCK, stop - start), dtype=[
            ("hi", f"S{hi}"), ("lo", f"S{d - hi}"), ("sep", "S1"),
            ("tail", padded.dtype)])
        rec["lo"] = np.resize(_digit_table(d - hi)[start % 10 ** 4:],
                              len(rec))
        rec["sep"] = b","
        for a in range(start, stop, _CSV_BLOCK):
            b = min(a + _CSV_BLOCK, stop)
            for h in range(a, b, 10 ** 4):  # an empty field below 10**4
                rec["hi"][h - a:h - a + 10 ** 4] = str(h // 10 ** 4)
            rec["tail"][:b - a] = padded[keys[a:b]]
            yield rec[:b - a].tobytes().replace(b"\0", b"")


def jtable_csv(t: AccuracyTable) -> Iterator[bytes]:
    """The table's rows as byte blocks, built as they are consumed."""
    n = float(t.n_samples)
    tails = [f"{c},{_fmt(c / n)}\n" for c in range(t.n_samples + 1)]
    return csv_blocks("weight_index,correct_count,accuracy\n", tails,
                      t.counts)


def distribution_csv(dist: WeightDistribution,
                     table: AccuracyTable) -> Iterator[bytes]:
    """The distribution with the table's normalized accuracy as jhat, as
    byte blocks built as they are consumed.

    dist.p must depend on the weight only through its correct count in
    `table`, as every evolved or uniform distribution does. That is checked
    here, before the first block is asked for.
    """
    counts = table.counts
    if len(dist.p) != len(counts):
        raise ValueError("distribution and table sizes differ")
    p_by_count = np.zeros(table.n_samples + 1)
    p_by_count[counts] = dist.p
    if not np.array_equal(p_by_count[counts], dist.p):
        raise ValueError("probabilities must depend on the weight only "
                         "through its correct count")
    # c / counts.sum() is bit for bit what normalized_accuracy() gives c
    jhat = np.arange(table.n_samples + 1) / counts.sum()
    mid = f",{dist.k},{dist.g},{_fmt(dist.residual)},"
    tails = [f"{_fmt(p)}{mid}{_fmt(j)}\n"
             for p, j in zip(p_by_count.tolist(), jhat.tolist())]
    return csv_blocks("weight_index,probability,k,g,residual,jhat\n",
                      tails, counts)


def rows_csv(head: str, line: str, rows: Iterable[tuple]) -> Iterator[bytes]:
    """Yield `head`, then `line.format(*row)` for each row, in byte blocks of
    at most _CSV_BLOCK rows, built as they are consumed."""
    yield head.encode()
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        yield "".join(line.format(*row) for row in block).encode()
