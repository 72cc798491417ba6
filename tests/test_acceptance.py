"""Acceptance gate for the assembled package.

Each test prints exactly one line of the form

    CRITERION n: PASS - <measured numbers>
    CRITERION n: FAIL - <measured numbers and cause>

and then asserts the verdict, so a red criterion fails loudly with its
evidence in the message. The same lines are echoed in the terminal summary
by a conftest hook. Tolerances and reference values are frozen here on
purpose: a criterion that cannot be met is left failing rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, dense, index_to_bits
from grovertrain import amplify as am
from grovertrain import boolcirc as bc
from grovertrain import cli
from grovertrain import statevec as sv
from grovertrain import tasks
from grovertrain import theory as th


def _record(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def _read_curve(path):
    """Parse shots_curve.csv into {budget: (mean_train, std_train, mean_test, std_test)}."""
    rows = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "budget,mean_train,std_train,mean_test,std_test"
    for ln in lines[1:]:
        b, *vals = ln.split(",")
        rows[int(b)] = tuple(float(v) for v in vals)
    return rows


def test_criterion_1():
    """Closed-form weight distribution matches the statevector simulator."""
    t0 = time.monotonic()
    worst = 0.0
    cases = (("toy", 1), ("toy", 2), ("simplified-ed", 1))
    for name, k in cases:
        bundle = tasks.load_task(name)
        table = am.accuracy_table(bundle.model, bundle.train)
        plan = am.make_plan(table, k)
        dist = am.evolve_distribution(table, plan)
        marg = sv.grover_run(bundle.model, bundle.train, k, plan.g,
                             n_aux=plan.n_aux)
        worst = max(worst, float(np.max(np.abs(marg - dist.p))))
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 60.0
    line = _record(1, ok,
                   f"max closed-form vs statevector deviation {worst:.3e} "
                   f"(< 1e-9) over toy k=1, toy k=2, simplified-ed k=1 "
                   f"in {dt:.1f}s (< 60s)")
    assert ok, line


def test_criterion_2():
    """One-copy amplified distribution is a faithful accuracy landscape."""
    edge = tasks.load_task("edge")
    table = am.accuracy_table(edge.model, edge.full)
    plan = am.make_plan(table, 1)
    dist = am.evolve_distribution(table, plan)
    jhat = table.normalized_accuracy()
    pearson = float(np.corrcoef(dist.p, jhat)[0, 1])
    dev = float(np.max(np.abs(dist.p - jhat)))
    ok = pearson >= 0.999 and dev <= plan.leakage_bound
    line = _record(2, ok,
                   f"edge k=1: Pearson(p, normalized accuracy) = {pearson:.6f} "
                   f"(>= 0.999), max |p - jhat| = {dev:.3e} within the plan's "
                   f"leakage bound {plan.leakage_bound:.3e}")
    assert ok, line


def test_criterion_3():
    """Four-copy amplification concentrates on the best weights."""
    edge = tasks.load_task("edge")
    table = am.accuracy_table(edge.model, edge.full)
    n_w = 1 << table.weight_width
    dist1 = am.evolve_distribution(table, am.make_plan(table, 1))
    dist4 = am.evolve_distribution(table, am.make_plan(table, 4))
    acc = table.accuracy()
    above = np.flatnonzero(dist4.p > 1.0 / n_w)
    decile_cut = float(np.quantile(acc, 0.9))
    outside = sorted(int(w) for w in above if acc[w] < decile_cut)
    argmax_set = np.flatnonzero(table.counts == table.counts.max())
    mass1 = float(dist1.p[argmax_set].sum())
    mass4 = float(dist4.p[argmax_set].sum())
    ratio = mass4 / mass1
    contained = not outside
    ok = contained and ratio >= 5.0
    if contained:
        subset_msg = (f"all {len(above)} above-uniform weights sit in the "
                      f"top accuracy decile (cut {decile_cut:.4f})")
    else:
        subset_msg = (f"{len(outside)} of {len(above)} above-uniform weights "
                      f"fall below the top-decile accuracy cut "
                      f"{decile_cut:.4f}: {outside}")
    line = _record(3, ok,
                   f"edge k=4: {subset_msg}; best-weight mass grows "
                   f"{ratio:.2f}x over k=1 (>= 5x)")
    assert ok, line


def test_criterion_4():
    """Exhaustive optimum on the downsampled handwritten-digit task."""
    t0 = time.monotonic()
    try:
        bundle = tasks.load_task("tiny-mnist")
    except tasks.TaskError as exc:
        line = _record(4, False,
                       f"digit image files unavailable in this environment "
                       f"({exc}); point GROVERTRAIN_MNIST_DIR at the four IDX "
                       f"files to run the +/-2pp check against 86.08/82.61")
        pytest.fail(line, pytrace=False)
    t_train = am.accuracy_table(bundle.model, bundle.train)
    t_test = am.accuracy_table(bundle.model, bundle.test)
    best = int(t_train.counts.max())
    winners = np.flatnonzero(t_train.counts == best)
    train_pct = 100.0 * best / t_train.n_samples
    test_pct = 100.0 * max(int(t_test.counts[w]) for w in winners) / t_test.n_samples
    dt = time.monotonic() - t0
    ok = abs(train_pct - 86.08) <= 2.0 and abs(test_pct - 82.61) <= 2.0 and dt <= 120.0
    line = _record(4, ok,
                   f"exhaustive sweep of {1 << t_train.weight_width} weights: "
                   f"best train {train_pct:.2f}% (target 86.08 +/- 2), its test "
                   f"{test_pct:.2f}% (target 82.61 +/- 2) in {dt:.1f}s (<= 120s)")
    assert ok, line


# Reference budget-sweep curve the simplified edge task is compared against,
# in percentage points: means must land within 3 points, stds within 5.
_REF_BUDGETS = (1, 2, 4, 8, 16, 32, 64, 128)
_REF_MEANS = (60.74, 66.20, 71.52, 77.49, 83.82, 89.59, 93.93, 96.88)
_REF_STDS = (10.72, 10.26, 10.96, 11.12, 10.09, 7.87, 5.53, 3.86)


def test_criterion_5(tmp_path):
    """Shot-budget sweep on the simplified edge task vs the reference row."""
    t0 = time.monotonic()
    rc = cli.main(["shots-curve", "--task", "simplified-ed", "--k", "1",
                   "--runs", "20", "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_curve(tmp_path / "shots_curve.csv")
    dt = time.monotonic() - t0
    mean_devs = [100.0 * rows[b][0] - m for b, m in zip(_REF_BUDGETS, _REF_MEANS)]
    std_devs = [100.0 * rows[b][1] - s for b, s in zip(_REF_BUDGETS, _REF_STDS)]
    worst_mean = max(mean_devs, key=abs)
    worst_std = max(std_devs, key=abs)
    b_mean = _REF_BUDGETS[mean_devs.index(worst_mean)]
    b_std = _REF_BUDGETS[std_devs.index(worst_std)]
    ok = (all(abs(d) <= 3.0 for d in mean_devs)
          and all(abs(d) <= 5.0 for d in std_devs)
          and dt < 60.0)
    line = _record(5, ok,
                   f"20 runs x budgets {{1..128}}, k=1: mean train deviates up "
                   f"to {worst_mean:+.2f}pp (budget {b_mean}, limit 3) and std "
                   f"up to {worst_std:+.2f} (budget {b_std}, limit 5) from the "
                   f"reference row; sweep saturates at "
                   f"{100.0 * rows[128][0]:.2f}% by budget 128 in {dt:.1f}s")
    assert ok, line


def test_criterion_6(tmp_path):
    """Measurement-budget advantage of four copies over uniform sampling."""
    t0 = time.monotonic()
    kpd_dir = tmp_path / "kpd"
    urs_dir = tmp_path / "urs"
    kpd_budgets = list(range(5, 61, 5))
    urs_budgets = list(range(25, 400, 25)) + [399]
    rc = cli.main(["shots-curve", "--task", "edge", "--k", "4",
                   "--budget", ",".join(map(str, kpd_budgets)),
                   "--runs", "20", "--seed", "0", "--out", str(kpd_dir)])
    assert rc == 0
    rc = cli.main(["shots-curve", "--task", "edge", "--method", "urs",
                   "--budget", ",".join(map(str, urs_budgets)),
                   "--runs", "20", "--seed", "0", "--out", str(urs_dir)])
    assert rc == 0
    kpd = _read_curve(kpd_dir / "shots_curve.csv")
    urs = _read_curve(urs_dir / "shots_curve.csv")
    dt = time.monotonic() - t0
    hit = next((b for b in kpd_budgets if kpd[b][2] >= 0.98), None)
    urs_peak = max(urs[b][2] for b in urs_budgets)
    ok = hit is not None and urs_peak < 0.98 and dt < 300.0
    hit_msg = (f"k=4 mean test reaches {100.0 * kpd[hit][2]:.2f}% at "
               f"{hit} shots (<= 60)" if hit is not None
               else "k=4 mean test never reaches 98% within 60 shots")
    line = _record(6, ok,
                   f"edge: {hit_msg}; uniform sampling peaks at "
                   f"{100.0 * urs_peak:.2f}% below 400 shots (< 98%) "
                   f"in {dt:.1f}s (< 300s)")
    assert ok, line


def test_criterion_7():
    """Query-count identities on a seeded random parameter grid."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1000)
    n = 1000
    alphas = 2.0 ** rng.uniform(-20, -0.1, n)
    betas = alphas * rng.uniform(0.01, 0.99, n)
    cs = 2.0 ** rng.uniform(1, 10, n)
    reduction_breaks = 0
    held = 0
    disagreements = []
    for a, b, c in zip(alphas, betas, cs):
        if th.queries_kpd(a, b, c, 1) != th.queries_1pd(a, c):
            reduction_breaks += 1
        if not th.k_star_condition(a, b, c):
            continue
        held += 1
        k_closed = th.optimal_k(a, b, c)
        k_brute = th.brute_force_optimal_k(a, b, c, max(3 * k_closed + 2, 12))
        if k_closed != k_brute:
            disagreements.append((float(a), float(b), float(c),
                                  k_closed, k_brute))
    dt = time.monotonic() - t0
    ok = reduction_breaks == 0 and not disagreements and dt < 1.0
    if disagreements:
        ea, eb, ec, ko, kb = disagreements[0]
        tail = (f"closed-form optimal copy count disagrees with exhaustive "
                f"minimization on {len(disagreements)}/{held} points where "
                f"the optimality condition holds (e.g. alpha={ea:.3g}, "
                f"beta={eb:.3g}, C={ec:.3g}: {ko} vs {kb})")
    else:
        tail = (f"closed-form optimal copy count matches exhaustive "
                f"minimization on all {held} condition-holding points")
    line = _record(7, ok,
                   f"k=1 query count equals the one-dataset formula on "
                   f"{n - reduction_breaks}/{n} grid points exactly; {tail}; "
                   f"{dt:.2f}s (< 1s)")
    assert ok, line


def _compiled_planes(gate_list, x_bits, lanes, wplanes):
    """Bit-parallel classical run of a compiled gate list over all weights.

    Plane q is an int whose bit L holds qubit q's value for weight index L.
    """
    full = (1 << lanes) - 1
    planes = [0] * gate_list.n_qubits
    for i in range(gate_list.n_w):
        planes[i] = wplanes[i]
    for j, xb in enumerate(x_bits):
        planes[gate_list.n_w + j] = full if xb else 0
    for gate in gate_list.gates:
        m = full
        for c in gate.controls:
            m &= planes[c]
            if not m:
                break
        if m:
            planes[gate.target] ^= m
    return planes


def _check_compiled_exhaustive(model):
    gl = bc.compile_circuit(model)
    assert gl.n_w + gl.n_x <= 16
    lanes = 1 << gl.n_w
    full = (1 << lanes) - 1
    wplanes = [sum(((lane >> i) & 1) << lane for lane in range(lanes))
               for i in range(gl.n_w)]
    anc = (set(range(gl.n_qubits)) - set(range(gl.n_w + gl.n_x))
           - set(gl.out_qubits))
    for xi in range(1 << gl.n_x):
        x_bits = index_to_bits(xi, gl.n_x)
        planes = _compiled_planes(gl, x_bits, lanes, wplanes)
        want = [0] * len(gl.out_qubits)
        for lane in range(lanes):
            w_bits = index_to_bits(lane, gl.n_w)
            for b, bit in enumerate(bc.eval_circuit(model, w_bits, x_bits)):
                want[b] |= bit << lane
        for b, q in enumerate(gl.out_qubits):
            if planes[q] != want[b]:
                return False, f"output {b} differs at x index {xi}"
        for i in range(gl.n_w):
            if planes[i] != wplanes[i]:
                return False, f"weight qubit {i} mutated at x index {xi}"
        for j in range(gl.n_x):
            if planes[gl.n_w + j] != (full if x_bits[j] else 0):
                return False, f"input qubit {j} mutated at x index {xi}"
        for q in anc:
            if planes[q] != 0:
                return False, f"ancilla {q} not restored at x index {xi}"
    return True, f"2^{gl.n_w + gl.n_x} weight-input pairs"


def test_criterion_8(tmp_path):
    """Always-on property bundle: normalization, involution, unitarity,
    compiled-circuit equality, copy-count exponent law, byte-stable reruns."""
    problems = []

    # Distribution normalization (<= 1e-12) across tasks and copy counts.
    norm_worst = 0.0
    edge = tasks.load_task("edge")
    toy = tasks.load_task("toy")
    sed = tasks.load_task("simplified-ed")
    for bundle, d, ks in ((edge, edge.full, (1, 2, 3, 4)),
                          (toy, toy.train, (1, 2)),
                          (sed, sed.train, (1,))):
        table = am.accuracy_table(bundle.model, d)
        for k in ks:
            dist = am.evolve_distribution(table, am.make_plan(table, k))
            norm_worst = max(norm_worst, abs(float(dist.p.sum()) - 1.0))
    if norm_worst > 1e-12:
        problems.append(f"normalization drift {norm_worst:.2e}")

    # Reflection applied twice is the identity (<= 1e-12).
    plan = am.make_plan(am.accuracy_table(toy.model, toy.train), 1)
    state, layout = sv.prepare_initial(toy.model, toy.train, 1, plan.n_aux)
    sv.phase_oracle(state)
    before = dense(state)
    sv.reflect(state)
    sv.reflect(state)
    invol = float(np.max(np.abs(dense(state) - before)))
    if invol > 1e-12:
        problems.append(f"double reflection deviates {invol:.2e}")

    # Norm preservation over a long run (total drift <= 1e-10, which is
    # stricter than 1e-10 per gate).
    plan2 = am.make_plan(am.accuracy_table(toy.model, toy.train), 2)
    _, state2, _ = sv.grover_run(toy.model, toy.train, 2, 100,
                                 n_aux=plan2.n_aux, return_state=True)
    drift = abs(float(np.linalg.norm(dense(state2))) - 1.0)
    if drift > 1e-10:
        problems.append(f"norm drift {drift:.2e} after 100 rounds")

    # Compiled gate lists reproduce direct circuit evaluation exhaustively
    # for every built-in model with weight+input width <= 16.
    pair_msgs = []
    for name in ("toy", "simplified-ed"):
        bundle = tasks.load_task(name)
        good, msg = _check_compiled_exhaustive(bundle.model)
        if not good:
            problems.append(f"{name}: {msg}")
        else:
            pair_msgs.append(f"{name} {msg}")

    # Copy-count exponent law is exact when no amplitude leaks: the
    # distribution equals normalized counts**k bit for bit.
    counts = np.array([7, 1], dtype=np.int64)
    t = am.AccuracyTable(counts, 7, 1)
    plan_exp = am.make_plan(t, 2, pad=3)
    dist_exp = am.evolve_distribution(t, plan_exp)
    powed = counts.astype(float) ** 2
    if plan_exp.residual != 1.0 or not np.array_equal(dist_exp.p,
                                                      powed / powed.sum()):
        problems.append("exponent law not exact at full residual")

    # Same seed, same bytes: CSV outputs of repeated runs are identical.
    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        rc = cli.main(["distribution", "--task", "toy", "--k", "1",
                       "--shots", "64", "--seed", "7", "--out", str(d)])
        assert rc == 0
        rc = cli.main(["shots-curve", "--task", "toy", "--budget", "1,2,4",
                       "--runs", "5", "--seed", "3", "--out", str(d)])
        assert rc == 0
        outputs.append((d / "distribution.csv").read_bytes()
                       + (d / "shots_curve.csv").read_bytes())
    if outputs[0] != outputs[1]:
        problems.append("rerun with fixed seeds changed CSV bytes")

    ok = not problems
    detail = ("; ".join(problems) if problems else
              f"normalization <= {max(norm_worst, 1e-16):.1e}, double "
              f"reflection <= {max(invol, 1e-16):.1e}, norm drift "
              f"{drift:.1e} over 100 rounds, compiled gates match direct "
              f"evaluation on {' and '.join(pair_msgs)}, exponent law exact "
              f"at full residual, reruns byte-identical")
    line = _record(8, ok, detail)
    assert ok, line
