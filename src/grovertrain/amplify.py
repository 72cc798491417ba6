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
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .boolcirc import ModelCircuit, correct_counts, structure_key
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

# rows_csv builds at most this many rows per byte block
_CSV_BLOCK = 10 ** 4
# CsvBlocks drops a table's NUL padding with a GIL-free byte mask when the
# padding is at least this share of its record bytes, else with
# bytes.replace, which holds the GIL but is cheaper on sparse padding
_MASK_NUL_SHARE = 0.01


class DegenerateAngleError(ValueError):
    """Raised when no rotation angle is usable: the solution set is empty,
    is everything, a shot estimate landed on probability 0 or 1, or the plan
    needs 2**52 rounds or more (a tiny angle, or a branch m >= 2**52)."""


@dataclass
class AccuracyTable:
    """Exact correct counts for every weight; `histogram` tallies them."""
    counts: np.ndarray  # int64, length 2**weight_width
    n_samples: int
    weight_width: int
    _powers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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

    def count_powers(self, k: int) -> tuple[list[int], int]:
        """(c**k for c = 0..N, 0 where no weight has c; |S|, their sum
        weighted by the histogram) as exact integers: a weight with c correct
        samples owns c**k solution states, whatever the padding. Computed
        once per k."""
        if k not in self._powers:
            if k < 1:
                raise ValueError("k must be >= 1")
            mult = self.histogram.tolist()
            pow_by_count = [c ** k if m else 0 for c, m in enumerate(mult)]
            self._powers[k] = (pow_by_count,
                               sum(m * s for m, s in zip(mult, pow_by_count)))
        return self._powers[k]


@dataclass
class GroverPlan:
    """One amplification plan: angle, branch, iterations, padding, |S|, T."""
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
        if self.k < 1 or self.n_aux < 0:
            raise ValueError("k must be >= 1 and n_aux >= 0")
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
    def guide(self) -> np.ndarray | None:
        """Per cell [c/K, (c+1)/K) of K = _GUIDE_CELLS: #(cdf <= u) for all u
        in it where #(cdf <= c/K) = #(cdf < (c+1)/K), else -1 (a CDF step).
        None from K weights on, where most cells hold a step."""
        if len(self.p) >= _GUIDE_CELLS:
            return None
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        lo = self.cdf.searchsorted(edges[:-1], side="right")
        hi = self.cdf.searchsorted(edges[1:], side="left")
        return np.where(lo == hi, lo, -1)


def accuracy_table(model: ModelCircuit, d: Dataset) -> AccuracyTable:
    """Exact correct counts for every weight (`boolcirc.correct_counts`),
    computed once per circuit structure and kept on `d`, so the table lives
    as long as the dataset; its counts are read-only."""
    key = structure_key(model)
    t = d._tables.get(key)
    if t is None:
        t = AccuracyTable(correct_counts(model, d.x, d.y), len(d),
                          model.weight_width)
        t.counts.flags.writeable = False
        t = d._tables.setdefault(key, t)  # one table, even if built twice
    return t


def _n_states(t: AccuracyTable, k: int, n_aux: int) -> int:
    """T = 2**d_w blocks of (N + n_aux)**k states; T >> d_w is one block."""
    if n_aux < 0:
        raise ValueError("n_aux must be >= 0")
    return (t.n_samples + n_aux) ** k << t.weight_width


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


def theta_shots(n_solutions: int, n_total: int, shots: int,
                rng: np.random.Generator, use_sqrt: bool = True) -> float:
    """Rotation angle from `shots` Bernoulli samples of the solution ratio
    n_solutions / n_total, counted in bounded blocks of the stream of
    rng.random(shots)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    hits = _count_hits(np.array([n_solutions / n_total]), shots, rng)
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


def pad_auxiliary(t: AccuracyTable, k: int, use_sqrt: bool = True) -> int:
    """Smallest auxiliary-sample count bringing the k-parallel angle down to
    AUTO_PAD_TARGET_THETA.

    The comparison is exact, in integers: theta(n) <= target iff
    |S| * den <= num * 2**d_w * (N+n)**k, where num / den is the float
    sin(target)**2 (or sin(target) when use_sqrt is False) with 1e-12
    relative slack for the float rounding of the target angle itself.
    """
    total = t.count_powers(k)[1]
    if total == 0:
        raise DegenerateAngleError("no solution states: padding cannot help")
    s = math.sin(AUTO_PAD_TARGET_THETA)
    limit = (s * s if use_sqrt else s) * (1 + _RATIO_SLACK)
    num, den = limit.as_integer_ratio()

    def ok(n: int) -> bool:
        return total * den <= num * _n_states(t, k, n)

    # log-space guess for (N+n)**k >= |S| / (2**d_w * limit), then exact adjust
    need = math.exp((math.log(total)
                     - math.log((1 << t.weight_width) * limit)) / k)
    n = max(0, math.ceil(need) - t.n_samples - 2)
    while not ok(n):
        n += 1
    while n > 0 and ok(n - 1):
        n -= 1
    return n


def leakage_bound(t: AccuracyTable, k: int, n_aux: int,
                  residual: float) -> float:
    """Upper bound on |p_i - s_i/|S|| for the evolved distribution: the
    non-solution mass (1 - residual) spread anywhere can move a weight's
    probability by at most its own share plus one full weight's state block."""
    pow_by_count, total = t.count_powers(k)
    n_states = _n_states(t, k, n_aux)
    # 2**e with T / 2**e < 2**1023: the floats stay finite
    scale = 1 << max(0, n_states.bit_length() - 1023)
    share_max = (max(pow_by_count) / scale) / (total / scale)
    spill = (n_states >> t.weight_width) / (n_states - total)
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
    if m >= 1 << 52:  # g >= m at every angle in (0, pi/2)
        raise DegenerateAngleError(f"branch m={m} needs g=m rounds or more, "
                                   "2**52 or more")
    total = t.count_powers(k)[1]

    def plan_for(n_aux: int) -> GroverPlan:
        n_states = _n_states(t, k, n_aux)
        if theta_shot_count is None:
            theta = theta_exact(total, n_states, use_sqrt)
        elif rng is None:
            raise ValueError("shot-based angle estimation needs an rng")
        else:
            theta = theta_shots(total, n_states, theta_shot_count, rng,
                                use_sqrt)
        g = grover_iterations(theta, m)
        residual = rotation_residual(theta, g)
        return GroverPlan(k, n_aux, theta, m, g, residual, total, n_states,
                          leakage_bound(t, k, n_aux, residual))

    plan = plan_for(0 if pad == "auto" else int(pad))
    if pad == "auto" and plan.residual < AUTO_PAD_RESIDUAL_THRESHOLD:
        n_aux = pad_auxiliary(t, k, use_sqrt)
        if n_aux > 0:
            plan = plan_for(n_aux)
    if plan.g >= 1 << 52:  # 2*g + 1 is not exact in float64 from here
        raise DegenerateAngleError(f"theta={plan.theta!r} needs g={plan.g} "
                                   "rounds, 2**52 or more")
    return plan


def _count_shares(t: AccuracyTable, plan: GroverPlan) -> np.ndarray:
    """Unnormalized probability of one weight with each count c = 0..N
    after the planned amplification:

    s_c * residual/|S| + ((N+n_aux)**k - s_c) * (1-residual)/(T - |S|)
    with s_c = c**k and |S| from count_powers(k), T from the plan's n_aux,
    all scaled by one power of two. At residual exactly 1 this reduces to
    s_c with no leakage term (and at k=1 the normalized shares are then
    bit-identical to normalized_accuracy)."""
    pow_by_count, total = t.count_powers(plan.k)
    n_states = _n_states(t, plan.k, plan.n_aux)
    theta_exact(total, n_states)  # raises unless 0 < |S|/T < 1
    scale = 1 << max(0, n_states.bit_length() - 1023)  # as in leakage_bound
    s = np.array([v / scale for v in pow_by_count])
    if plan.residual != 1.0:
        a = plan.residual / (total / scale)
        b = (1.0 - plan.residual) / ((n_states - total) / scale)
        s = s * a + ((n_states >> t.weight_width) / scale - s) * b
    return s


def evolve_distribution(t: AccuracyTable, plan: GroverPlan) -> WeightDistribution:
    """Closed-form weight distribution after the planned amplification:
    `_count_shares` gathered to the weights and normalized."""
    p = _count_shares(t, plan)[t.counts]
    p /= p.sum()
    return WeightDistribution(p)


def uniform_distribution(weight_width: int) -> WeightDistribution:
    n = 1 << weight_width
    return WeightDistribution(np.full(n, 1.0 / n))


def sample_weights(dist: WeightDistribution, m_meas: int,
                   rng: np.random.Generator) -> np.ndarray:
    """m_meas independent weight-index draws from the distribution: #(cdf
    <= u) for one uniform u each, as rng.choice(len(p), size=m_meas, p=p)
    draws them from the same stream. Where there is a guide it gives that in
    one lookup, and only uniforms in a cell that a CDF step splits are
    searched in the CDF; without one every uniform is.
    """
    if m_meas < 1:
        raise ValueError("measurement budget must be >= 1")
    u = rng.random(m_meas)
    if dist.guide is None:
        return dist.cdf.searchsorted(u, side="right")
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


def _low_digits() -> tuple[np.ndarray, np.ndarray]:
    """The text of 0 .. 9999 as S4 items, put together from the ten digit
    bytes by broadcasting: zero-padded to four digits, and with its leading
    zeros turned into NULs, which a block drops."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    padded = np.empty((10,) * 4 + (4,), dtype=np.uint8)
    for col in range(4):
        padded[..., col] = digits.reshape((10,) + (1,) * (3 - col))
    padded = padded.reshape(-1, 4)
    bare = padded.copy()  # a last digit stays, for 0 itself
    bare[:, :3][np.logical_and.accumulate(bare[:, :3] == ord("0"), axis=1)] = 0
    return padded.view("S4").ravel(), bare.view("S4").ravel()


class CsvBlocks:
    """The rows f"{i},{tails[keys[i]]}" for every index i after `head`, as
    byte blocks that any thread can build and write at its own byte offset.
    Tails hold no NUL byte.

    Rows below 10**4 form the first block; their index text has no leading
    zeros and is NUL-padded to four bytes. Every later block is one run of
    10**4 rows that share their high digits, from a multiple of 10**4 on,
    so none spans a change of index width (each 10**d, d >= 5, is such a
    multiple). A d-digit index is then its high d-4 digits, one string per
    block, and its low four digits, the same for every block. Each index
    width gets one table of whole records per key (high digits, low digits,
    then the tail with its comma, NUL-padded to a common width). A block
    gathers its records from it in one contiguous take, writes its low and
    high digits over their fields, and drops the NULs.

    Block i is bytes offsets[i] .. offsets[i + 1] of the file; the head is
    bytes 0 .. offsets[0]. The offsets are exact integers from the tail
    lengths of each block's keys and its index width, known before any
    block is built.
    """

    def __init__(self, head: str, tails: list[str], keys: np.ndarray):
        self.head = head.encode()
        encoded = [b"," + t.encode() for t in tails]
        padded = np.array(encoded)
        n = len(keys)
        self._keys, self._blocks = keys, []
        # the narrowest integer type that holds the tail lengths makes
        # their gather over the keys cheapest
        lengths = [len(t) for t in encoded]
        lengths = np.array(lengths, np.min_scalar_type(max(lengths)))
        record_bytes, spans = 0, []
        padded_digits, bare_digits = _low_digits()
        for start, stop, hi, lo in [(0, 10 ** 4, 0, bare_digits)] + [
                (10 ** (d - 1), 10 ** d, d - 4, padded_digits)
                for d in range(5, len(str(n)) + 1)]:
            stop = min(stop, n)
            if start >= stop:
                break
            recs = np.zeros(len(tails), dtype=[
                ("hi", f"S{hi}"), ("lo", "S4"), ("tail", padded.dtype)])
            recs["tail"] = padded
            for a in range(start, stop, 10 ** 4):
                b = min(a + 10 ** 4, stop)
                self._blocks.append((recs, lo, a, b))
                # a digit per row, one more for each of 10, 100, ... that
                # the row's index reaches, and its tail (summed into int64
                # without an int64 copy of the gather)
                spans.append(b - a + sum(
                    max(0, b - max(a, 10 ** k))
                    for k in range(1, len(str(b))))
                    + int(lengths[keys[a:b]].sum(dtype=np.int64)))
            record_bytes += (stop - start) * recs.itemsize
        self.offsets = np.cumsum([len(self.head), *spans]).tolist()
        # the share of record bytes that are NUL padding, to be dropped
        nul_share = 1 - (self.offsets[-1] - self.offsets[0]) / max(
            record_bytes, 1)
        self._mask = nul_share >= _MASK_NUL_SHARE
        self._local = threading.local()  # each thread's record buffer

    def __len__(self) -> int:
        return len(self._blocks)

    def build(self, i: int):
        """Block i's bytes (a bytes-like object), made in this thread's
        reused record buffer."""
        recs, lo, a, b = self._blocks[i]
        buf = getattr(self._local, "buf", None)
        if buf is None or len(buf) != (b - a) * recs.itemsize:
            buf = self._local.buf = bytearray((b - a) * recs.itemsize)
        rec = np.frombuffer(buf, dtype=recs.dtype)
        # mode="clip": the default mode would gather into a temporary
        np.take(recs, self._keys[a:b], out=rec, mode="clip")
        rec["lo"] = lo[:b - a]
        rec["hi"] = str(a // 10 ** 4)  # an empty field below 10**4
        if self._mask:
            r = np.frombuffer(buf, dtype=np.uint8)
            data = r[r != 0]
        else:
            data = buf.replace(b"\0", b"")
        if len(data) != self.offsets[i + 1] - self.offsets[i]:
            raise RuntimeError(f"CSV block {i} has {len(data)} bytes, its "
                               f"span {self.offsets[i + 1] - self.offsets[i]}")
        return data


def jtable_csv(t: AccuracyTable) -> CsvBlocks:
    """The table's rows as byte blocks, built as they are consumed."""
    n = float(t.n_samples)
    tails = [f"{c},{_fmt(c / n)}\n" for c in range(t.n_samples + 1)]
    return CsvBlocks("weight_index,correct_count,accuracy\n", tails,
                     t.counts)


def evolved_csv(t: AccuracyTable, plan: GroverPlan) -> CsvBlocks:
    """The evolved distribution (what `evolve_distribution` gives each
    weight, bit for bit) with the table's normalized accuracy as jhat, as
    byte blocks built as they are consumed; one row text per count."""
    s = _count_shares(t, plan)
    p_by_count = s / s[t.counts].sum()
    # c / counts.sum() is bit for bit what normalized_accuracy() gives c
    jhat = np.arange(t.n_samples + 1) / t.counts.sum()
    mid = f",{plan.k},{plan.g},{_fmt(plan.residual)},"
    tails = [f"{_fmt(p)}{mid}{_fmt(j)}\n"
             for p, j in zip(p_by_count.tolist(), jhat.tolist())]
    return CsvBlocks("weight_index,probability,k,g,residual,jhat\n",
                     tails, t.counts)


def rows_csv(head: str, line: str, rows: Iterable[tuple]) -> Iterator[bytes]:
    """Yield `head`, then `line.format(*row)` for each row, in byte blocks of
    at most _CSV_BLOCK rows, built as they are consumed."""
    yield head.encode()
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        yield "".join(line.format(*row) for row in block).encode()
