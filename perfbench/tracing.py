"""Spans and counts around the package's layers, recorded from outside.

`install` replaces each traced function in the namespace its callers look it
up in (for example `amplify.eval_all_weights`, not `boolcirc.eval_all_weights`,
because `accuracy_table` calls the name imported into `amplify`), and
returns a callable that puts the originals back. Spans live in memory as
[id, parent id, job, name, start, end]; counts are kept per job and come
from the arguments' sizes. Nothing here changes what the traced functions
compute.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

JOB = "job"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: list[dict] = []  # counters of each traced job
        self.job = -1

    def begin_job(self, job: int) -> None:
        self.job = job
        self.counts.append(defaultdict(int))

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1,
               self.job, name, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[4] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced


def install(tr: Tracer, am, cli, sv, tasks):
    """Wrap every traced name of the amplify, cli, statevec and tasks
    modules; returns the function that restores the originals."""
    saved = []

    def patch(owner, attr, name, hook=None):
        """Span `name` around owner.attr; hook(counters, *args) runs first
        inside the span and may return replacement args. A name the package
        no longer has is left alone, and its layer reads 0."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        saved.append((owner, attr, orig))
        fn = orig
        if hook:
            def fn(*args, **kwargs):
                return orig(*(hook(tr.counts[-1], *args, **kwargs) or args),
                            **kwargs)
        setattr(owner, attr, tr.wrap(name, fn))

    def words(c, circuit, x):
        c["boolcirc.word_ops"] += len(circuit.gates) * (
            ((1 << circuit.weight_width) + 63) // 64)

    def pairs(c, model, d):
        c["pairs"] += (1 << model.weight_width) * len(d)

    def table_rows(c, t):
        c["csv_rows"] += len(t.counts)

    def dist_rows(c, dist, jhat=None):
        c["csv_rows"] += len(dist.p)

    def draws(c, dist, m_meas, rng):
        c["amplify.sample_weights.draws"] += m_meas

    def gates(c, state, gate_iter):
        gate_list = list(gate_iter)  # may be a one-shot iterator
        c["statevec.amp_passes"] += len(gate_list) << state.n_qubits
        return state, gate_list

    def flip(c, state, qubits):
        c["statevec.amp_passes"] += 1 << state.n_qubits

    def diffusion(c, state, psi0):
        c["statevec.amp_passes"] += 1 << state.n_qubits
        c["statevec.rounds"] += 1

    patch(am, "eval_all_weights", "boolcirc.eval_all_weights", words)
    patch(am, "unpack_lanes", "boolcirc.unpack_lanes")
    patch(am, "packed_correct_mask", "datasets.packed_correct_mask")
    patch(am, "accuracy_table", "amplify.accuracy_table", pairs)
    for attr in ("solution_stats", "make_plan", "evolve_distribution"):
        patch(am, attr, f"amplify.{attr}")
    patch(am, "jtable_csv", "amplify.jtable_csv", table_rows)
    patch(am, "distribution_csv", "amplify.distribution_csv", dist_rows)
    patch(am, "sample_weights", "amplify.sample_weights", draws)
    patch(cli, "load_task", "tasks.load_task")
    patch(tasks, "load_task", "tasks.load_task")
    patch(cli, "cmd_shots_curve", "cli.cmd_shots_curve")
    patch(sv, "compile_circuit", "boolcirc.compile_circuit")
    patch(sv, "prepare_initial", "statevec.prepare_initial")
    patch(sv, "apply_oracle", "statevec.apply_oracle")
    patch(sv, "apply_diffusion", "statevec.apply_diffusion", diffusion)
    qs = sv.QuantumState
    patch(qs, "apply_gates", "statevec.QuantumState.apply_gates", gates)
    patch(qs, "apply_phase_flip", "statevec.QuantumState.apply_phase_flip",
          flip)
    for attr in ("norm", "marginal", "weight_marginal", "measure_register"):
        patch(qs, attr, f"statevec.QuantumState.{attr}")

    # the support of the prepared state is counted outside its span, so the
    # count_nonzero pass is charged to the caller, not to prepare_initial
    prepare = sv.prepare_initial

    def prepare_counted(*args, **kwargs):
        state, layout = prepare(*args, **kwargs)
        c = tr.counts[-1]
        if hasattr(state, "amps"):  # a dense state vector
            c["support"] += int(np.count_nonzero(state.amps))
            c["states"] += 1 << state.n_qubits
        c["statevec.max_qubits"] = max(c["statevec.max_qubits"],
                                       state.n_qubits)
        return state, layout
    sv.prepare_initial = prepare_counted
    patch(sv, "grover_run", "statevec.grover_run")

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return undo


SELF_LAYERS = (
    "boolcirc.eval_all_weights", "boolcirc.unpack_lanes",
    "datasets.packed_correct_mask", "amplify.accuracy_table",
    "amplify.solution_stats", "amplify.make_plan",
    "amplify.evolve_distribution", "amplify.jtable_csv",
    "amplify.distribution_csv", "tasks.load_task", "amplify.sample_weights",
    "cli.cmd_shots_curve", "boolcirc.compile_circuit")
COMMANDS = ("gen-data", "jtable", "distribution", "shots-curve",
            "verify-oracle", "theory")
STATEVEC_STAGES = ("prepare_initial", "apply_oracle", "apply_diffusion")
GATES = "statevec.QuantumState.apply_gates"
GATE_PARENTS = {"statevec.prepare_initial": "prepare",
                "statevec.apply_oracle": "oracle"}


def _per_job(tr: Tracer) -> list[dict]:
    """Inclusive seconds, self seconds and calls by span name for each
    traced job, in job order. Self time is a span's duration minus that of
    its direct children; apply_gates self time is also keyed by its parent."""
    spans = tr.spans
    child = defaultdict(float)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    jobs: dict[int, dict] = {}
    for sid, parent, job, name, t0, t1 in spans:
        j = jobs.setdefault(job, {"incl": defaultdict(float),
                                  "self": defaultdict(float),
                                  "calls": defaultdict(int)})
        own = t1 - t0 - child[sid]
        j["incl"][name] += t1 - t0
        j["self"][name] += own
        j["calls"][name] += 1
        if name == GATES:
            kind = GATE_PARENTS.get(spans[parent][3]) if parent >= 0 else None
            if kind:
                j["self"][f"{GATES}.{kind}"] += own
    return [jobs[k] for k in sorted(jobs)]


def layer_metrics(tr: Tracer, untraced_s: list[float],
                  traced_s: list[float]) -> dict[str, float]:
    """Per-layer figures per job: medians over traced jobs for times and
    counts, sums over all traced jobs for rates."""
    jobs = list(zip(_per_job(tr), tr.counts))

    def med(f):
        return statistics.median(f(j, c) for j, c in jobs)

    def rate(work, seconds):
        s = sum(seconds(j) for j, _ in jobs)
        return sum(work(c) for _, c in jobs) / s if s else 0.0

    m = {f"{n}.self_s": med(lambda j, c, n=n: j["self"][n])
         for n in SELF_LAYERS}
    m["boolcirc.eval_all_weights.calls"] = med(
        lambda j, c: j["calls"]["boolcirc.eval_all_weights"])
    m["tasks.load_task.calls"] = med(
        lambda j, c: j["calls"]["tasks.load_task"])
    for key in ("boolcirc.word_ops", "amplify.sample_weights.draws",
                "statevec.rounds", "statevec.amp_passes",
                "statevec.max_qubits"):
        m[key] = med(lambda j, c, key=key: c[key])
    m["amplify.accuracy_table.pairs_per_s"] = rate(
        lambda c: c["pairs"], lambda j: j["incl"]["amplify.accuracy_table"])
    m["amplify.solution_stats.calls_per_plan"] = med(
        lambda j, c: j["calls"]["amplify.solution_stats"]
        / max(j["calls"]["amplify.make_plan"], 1))
    m["amplify.csv_rows_per_s"] = rate(
        lambda c: c["csv_rows"],
        lambda j: j["incl"]["amplify.jtable_csv"]
        + j["incl"]["amplify.distribution_csv"])
    m["cli.draws_per_s"] = rate(lambda c: c["amplify.sample_weights.draws"],
                                lambda j: j["incl"]["cli.cmd_shots_curve"])
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = med(lambda j, c, cmd=cmd: j["incl"][f"cli.{cmd}"])
    for stage in STATEVEC_STAGES:
        m[f"statevec.{stage}.s"] = med(
            lambda j, c, stage=stage: j["incl"][f"statevec.{stage}"])
    for kind in GATE_PARENTS.values():
        m[f"{GATES}.self_s.{kind}"] = med(
            lambda j, c, kind=kind: j["self"][f"{GATES}.{kind}"])
    m["statevec.support_frac"] = med(
        lambda j, c: c["support"] / c["states"] if c["states"] else 0.0)
    m["trace.job_s"] = statistics.median(traced_s)
    m["trace.overhead_s"] = m["trace.job_s"] - statistics.median(untraced_s)
    m["trace.self_sum_s"] = med(
        lambda j, c: sum(v for n, v in j["self"].items()
                         if n != JOB and not n.startswith(GATES + ".")))
    return m


def write_spans(tr: Tracer, path) -> None:
    """All spans of the run, one [id, parent, job, name, start, end] each."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"fields": ["id", "parent", "job", "name", "start_s",
                              "end_s"], "spans": tr.spans}, f)
