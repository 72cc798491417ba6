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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolcirc import ModelCircuit, eval_all_weights, unpack_lanes
from .datasets import Dataset, packed_correct_mask

# relative slack when comparing an exact state ratio against sin(angle)^2:
# the angle itself is a rounded float, so boundary cases (ratio exactly 1/4
# vs target pi/6) must not flip on the angle's last ulp
_RATIO_SLACK = 1e-12

AUTO_PAD_TARGET_THETA = math.pi / 6
AUTO_PAD_RESIDUAL_THRESHOLD = 0.9

# search() holds at most this many shot uniforms at once (one candidate's
# shots if that is more), however many candidates it scores
_SHOT_BLOCK = 1 << 20


class DegenerateAngleError(ValueError):
    """Raised when no rotation angle is usable: the solution set is empty,
    is everything, or a shot estimate landed on probability 0 or 1."""


@dataclass
class AccuracyTable:
    """Exact correct-prediction counts for every weight assignment."""
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


@dataclass
class SolutionStats:
    """Exact solution-state counts for a k-parallel configuration."""
    counts_pow: np.ndarray | list  # c_i**k, exact integers
    total: int                     # |S| = sum of counts_pow
    n_states: int                  # 2**d_w * (N + n_aux)**k
    states_per_weight: int         # (N + n_aux)**k


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


def accuracy_table(model: ModelCircuit, d: Dataset) -> AccuracyTable:
    """Exact correct counts for every weight, by bit-parallel full sweep."""
    if model.input_width != d.d_x or model.output_width != d.d_y:
        raise ValueError("model widths do not match dataset")
    n_w = 1 << model.weight_width
    counts = np.zeros(n_w, dtype=np.int64)
    for s in d.samples:
        outs = eval_all_weights(model, s.x)
        mask = packed_correct_mask(d.predicate, s.y, outs)
        counts += unpack_lanes(mask, n_w)
    return AccuracyTable(counts, len(d), model.weight_width)


def solution_stats(t: AccuracyTable, k: int, n_aux: int = 0) -> SolutionStats:
    """Exact k-parallel solution counts: weight i owns counts[i]**k solution
    states out of (N + n_aux)**k; padded samples are never solutions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_aux < 0:
        raise ValueError("n_aux must be >= 0")
    per_weight = (t.n_samples + n_aux) ** k
    n_states = (1 << t.weight_width) * per_weight
    if t.n_samples ** k < 2 ** 62:  # exact in int64
        pow_arr = t.counts ** k
        total = sum(int(v) for v in pow_arr)
        return SolutionStats(pow_arr, total, n_states, per_weight)
    pow_list = [int(c) ** k for c in t.counts]
    return SolutionStats(pow_list, sum(pow_list), n_states, per_weight)


def theta_exact(n_solutions: int, n_total: int, use_sqrt: bool = True) -> float:
    """Rotation angle from the exact solution ratio.

    use_sqrt=True gives arcsin(sqrt(ratio)) (the amplitude angle); False gives
    arcsin(ratio), reproducing planners that feed the raw probability in.
    """
    if n_solutions <= 0:
        raise DegenerateAngleError("no solution states: angle undefined")
    if n_solutions >= n_total:
        raise DegenerateAngleError("every state is a solution: nothing to amplify")
    ratio = n_solutions / n_total
    return math.asin(math.sqrt(ratio)) if use_sqrt else math.asin(ratio)


def theta_shots(t: AccuracyTable, k: int, n_aux: int, shots: int,
                rng: np.random.Generator, use_sqrt: bool = True) -> float:
    """Rotation angle from `shots` Bernoulli samples of the solution ratio."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    stats = solution_stats(t, k, n_aux)
    p = stats.total / stats.n_states
    mean = float(np.mean(rng.random(shots) < p))
    if mean <= 0.0:
        raise DegenerateAngleError(
            "estimated solution probability 0: add shots or pad the dataset")
    if mean >= 1.0:
        raise DegenerateAngleError(
            "estimated solution probability 1: angle degenerate at pi/2")
    return math.asin(math.sqrt(mean)) if use_sqrt else math.asin(mean)


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


def pad_auxiliary(t: AccuracyTable, k: int, target_max_theta: float,
                  use_sqrt: bool = True) -> int:
    """Smallest auxiliary-sample count bringing the angle down to the target.

    The comparison runs in probability space with exact rational arithmetic:
    theta(n) <= target iff |S| / (2**d_w * (N+n)**k) <= sin(target)**2
    (or sin(target) when use_sqrt is False), with 1e-12 relative slack for the
    float rounding of the target angle itself.
    """
    if not 0 < target_max_theta <= math.pi / 4:
        raise ValueError("target angle must lie in (0, pi/4]")
    stats = solution_stats(t, k, 0)
    if stats.total == 0:
        raise DegenerateAngleError("no solution states: padding cannot help")
    s = math.sin(target_max_theta)
    limit = Fraction((s * s if use_sqrt else s) * (1 + _RATIO_SLACK))
    n_w = 1 << t.weight_width
    total = Fraction(stats.total)

    def ok(n: int) -> bool:
        return total / (n_w * (t.n_samples + n) ** k) <= limit

    if ok(0):
        return 0
    # float guess for (N+n)**k >= |S| / (2**d_w * limit), then exact adjust
    need = (stats.total / (n_w * float(limit))) ** (1.0 / k)
    n = max(0, math.ceil(need) - t.n_samples - 2)
    while not ok(n):
        n += 1
    while n > 0 and ok(n - 1):
        n -= 1
    return n


def leakage_bound(stats: SolutionStats, residual: float) -> float:
    """Upper bound on |p_i - s_i/|S|| for the evolved distribution: the
    non-solution mass (1 - residual) spread anywhere can move a weight's
    probability by at most its own share plus one full weight's state block."""
    share_max = max(float(v) for v in
                    (stats.counts_pow if isinstance(stats.counts_pow, list)
                     else stats.counts_pow.tolist())) / stats.total
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
    def angle(n_aux: int) -> float:
        if theta_shot_count is None:
            stats = solution_stats(t, k, n_aux)
            return theta_exact(stats.total, stats.n_states, use_sqrt)
        if rng is None:
            raise ValueError("shot-based angle estimation needs an rng")
        return theta_shots(t, k, n_aux, theta_shot_count, rng, use_sqrt)

    if pad == "auto":
        n_aux = 0
        theta = angle(0)
        g = grover_iterations(theta, m)
        if rotation_residual(theta, g) < AUTO_PAD_RESIDUAL_THRESHOLD:
            n_aux = pad_auxiliary(t, k, AUTO_PAD_TARGET_THETA, use_sqrt)
            if n_aux > 0:
                theta = angle(n_aux)
                g = grover_iterations(theta, m)
    else:
        n_aux = int(pad)
        theta = angle(n_aux)
        g = grover_iterations(theta, m)
    residual = rotation_residual(theta, g)
    stats = solution_stats(t, k, n_aux)
    return GroverPlan(k=k, n_aux=n_aux, theta=theta, m=m, g=g,
                      residual=residual, n_solutions=stats.total,
                      n_states=stats.n_states,
                      leakage_bound=leakage_bound(stats, residual))


def evolve_distribution(t: AccuracyTable, plan: GroverPlan) -> WeightDistribution:
    """Closed-form weight distribution after the planned amplification.

    p_i = s_i * residual/|S| + ((N+n_aux)**k - s_i) * (1-residual)/(T - |S|)
    where s_i = c_i**k and T is the total state count. At residual exactly 1
    this reduces to s_i/|S| with no leakage term (and at k=1 it is then
    bit-identical to normalized_accuracy)."""
    stats = solution_stats(t, plan.k, plan.n_aux)
    if stats.total <= 0:
        raise DegenerateAngleError("no solution states")
    if stats.total >= stats.n_states:
        raise DegenerateAngleError("every state is a solution")
    if isinstance(stats.counts_pow, list):
        s_float = np.fromiter((float(v) for v in stats.counts_pow),
                              np.float64, count=len(stats.counts_pow))
    else:
        s_float = stats.counts_pow.astype(np.float64)
    if plan.residual == 1.0:
        p = s_float / s_float.sum()
    else:
        a = plan.residual / stats.total
        b = (1.0 - plan.residual) / (stats.n_states - stats.total)
        p = s_float * a + (float(stats.states_per_weight) - s_float) * b
        p /= p.sum()
    return WeightDistribution(p, plan.k, plan.g, plan.residual)


def uniform_distribution(weight_width: int) -> WeightDistribution:
    n = 1 << weight_width
    return WeightDistribution(np.full(n, 1.0 / n), 0, 0, 0.0)


def sample_weights(dist: WeightDistribution, m_meas: int,
                   rng: np.random.Generator) -> np.ndarray:
    """m_meas independent weight-index draws from the distribution."""
    if m_meas < 1:
        raise ValueError("measurement budget must be >= 1")
    return rng.choice(len(dist.p), size=m_meas, replace=True, p=dist.p)


def search(dist: WeightDistribution, table: AccuracyTable, m_meas: int,
           rng: np.random.Generator, eval_shots: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample m_meas weights, score each, and track the best so far.

    Each draw is scored by its exact correct count, or, with eval_shots, by
    the hits among eval_shots Bernoulli(J(w)) shots. Returns (draws,
    estimates, best_so_far): the drawn weight indices, their accuracy
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
        j = table.counts[draws] / table.n_samples
        scores = np.empty(m_meas, dtype=np.int64)
        rows = max(1, _SHOT_BLOCK // eval_shots)
        for a in range(0, m_meas, rows):
            shots = rng.random((min(rows, m_meas - a), eval_shots))
            scores[a:a + rows] = np.count_nonzero(
                shots < j[a:a + rows, None], axis=1)
            del shots  # free this block before the next one is drawn
        estimates = scores / eval_shots
    n_w = len(dist.p)
    # one key orders by score, then by smaller index: ties go to the smallest
    key = np.maximum.accumulate(scores * n_w + (n_w - 1 - draws))
    return draws, estimates, n_w - 1 - key % n_w


# ---------------------------------------------------------------------------
# CSV emission (12 significant digits, newline-terminated, byte-stable)

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def jtable_csv(t: AccuracyTable) -> str:
    lines = ["weight_index,correct_count,accuracy"]
    n = float(t.n_samples)
    for i, c in enumerate(t.counts):
        lines.append(f"{i},{int(c)},{_fmt(int(c) / n)}")
    return "\n".join(lines) + "\n"


def distribution_csv(dist: WeightDistribution,
                     jhat: np.ndarray | None = None) -> str:
    head = "weight_index,probability,k,g,residual"
    if jhat is not None:
        head += ",jhat"
    lines = [head]
    for i, p in enumerate(dist.p):
        row = f"{i},{_fmt(p)},{dist.k},{dist.g},{_fmt(dist.residual)}"
        if jhat is not None:
            row += f",{_fmt(jhat[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def trace_csv(draws: np.ndarray, estimates: np.ndarray) -> str:
    lines = ["draw_index,weight_index,estimate"]
    for d, (w, est) in enumerate(zip(draws.tolist(), estimates.tolist())):
        lines.append(f"{d},{w},{_fmt(est)}")
    return "\n".join(lines) + "\n"
