"""Run one benchmark workload in this process and print its figures as JSON.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

`perfbench/run.py` starts this in a fresh process with one BLAS thread and
`src` on the import path. Set-up imports grovertrain and makes the inputs
from the seed. A job is the workload's fixed sequence of commands; jobs
repeat until --seconds have passed. Outputs of the first job are checked
against `refcheck` and `reference.json`; every later job must write the same
bytes. With --trace 1, untraced and traced jobs alternate and per-layer
figures come from the traced ones. The last stdout line is one JSON object.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refcheck as rc  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
TOL = 1e-9  # closed form vs statevector, and norm drift


class Op:
    """One operation of a job: a CLI call or a direct API call."""

    def __init__(self, name: str):
        self.name = name
        self.error: str | None = None  # exit code or exception
        self.stdout = ""
        self.out: Path | None = None
        self.value = None

    def digest(self) -> str:
        """Hash of everything the op produced except run manifests, which
        hold wall times."""
        h = hashlib.sha256(self.stdout.replace(str(self.out), "OUT").encode())
        if self.out is not None and self.out.is_dir():
            for p in sorted(self.out.iterdir()):
                if p.name != "run_manifest.json":
                    h.update(p.name.encode())
                    h.update(p.read_bytes())
        h.update(repr(self.value).encode())
        return h.hexdigest()


class Workload:
    """Base: runs CLI commands and records failures per op."""

    def __init__(self, seed: int, work: Path, gt):
        self.seed, self.gt = seed, gt

    @staticmethod
    def span(name: str):
        """No span while untraced; a traced job rebinds this to Tracer.span."""
        return contextlib.nullcontext()

    def cli(self, ops: list, out: Path, label: str, argv: list[str]) -> Op:
        op = Op(label)
        op.out = out / label
        argv = argv + ["--out", str(op.out)]
        buf = io.StringIO()
        try:
            with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
                code = self.gt.cli.main(argv)
            if code != 0:
                op.error = f"exit code {code}"
        except Exception as e:  # a failed operation, counted, not fatal
            op.error = f"{type(e).__name__}: {e}"
        op.stdout = buf.getvalue()
        ops.append(op)
        return op

    def info(self) -> dict:
        return {}


# ---------------------------------------------------------------------------

class MnistLandscape(Workload):
    """2^20-weight sweep, k=8 plan and evolve, 1M-row CSVs."""

    K, RUNS, BUDGETS = 8, 20, (1, 4, 16, 64, 256)

    def __init__(self, seed, work, gt):
        super().__init__(seed, work, gt)
        self.data = rc.synth_mnist(seed)
        self.mnist = work / "mnist"
        self.mnist.mkdir()
        rc.write_mnist_dir(self.mnist, self.data)

    def job(self, out: Path) -> list[Op]:
        ops: list[Op] = []
        common = ["--task", "tiny-mnist", "--mnist-dir", str(self.mnist),
                  "--seed", str(self.seed)]
        self.cli(ops, out, "jtable", ["jtable", "--split", "train"] + common)
        self.cli(ops, out, "distribution",
                 ["distribution", "--k", str(self.K)] + common)
        self.cli(ops, out, "shots-curve",
                 ["shots-curve", "--k", str(self.K), "--runs", str(self.RUNS),
                  "--budget", ",".join(map(str, self.BUDGETS))] + common)
        return ops

    def _refs(self):
        return (rc.mnist_reference(*self.data["train"][1:]),
                rc.mnist_reference(*self.data["test"][1:]))

    def info(self):
        (xs, _), (xt, _) = self._refs()
        return {"train_distinct": len(xs), "test_distinct": len(xt)}

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        model = self.gt.boolcirc.tiny_mnist_model()
        (xs, ys), (xt, yt) = self._refs()
        n_w = 1 << model.weight_width

        def train_counts(w):
            return rc.correct_counts(model, w, xs, ys, decode=True)

        def test_counts(w):
            return rc.correct_counts(model, w, xt, yt, decode=True)

        bad: dict[str, list[str]] = {}
        op = {o.name: o for o in ops}
        jt = rc.csv_columns(op["jtable"].out / "jtable.csv",
                            ["weight_index", "correct_count", "accuracy"])
        counts = jt["correct_count"].astype(np.int64)
        sample = np.random.default_rng([self.seed, 1]).integers(0, n_w, 256)
        sample = np.append(sample, np.argmax(counts))
        msgs = bad.setdefault("jtable", [])
        if not np.array_equal(jt["weight_index"], np.arange(n_w)):
            msgs.append("weight_index is not 0..2^20-1")
        if not np.array_equal(counts[sample], train_counts(sample)):
            msgs.append("correct_count differs from the gate-level reference")
        if not rc.close(jt["accuracy"], counts / len(xs)):
            msgs.append("accuracy != correct_count / N")

        plan = rc.reference_plan(rc.count_histogram(counts), len(xs), 20,
                                 self.K)
        p_ref = rc.reference_distribution(counts, plan)
        msgs = bad.setdefault("distribution", [])
        d = rc.csv_columns(op["distribution"].out / "distribution.csv",
                           ["weight_index", "probability", "k", "g",
                            "residual", "jhat"])
        printed = dict(re.findall(r"(n_aux|g)=(\d+)",
                                  op["distribution"].stdout))
        if printed != {"n_aux": str(plan["n_aux"]), "g": str(plan["g"])}:
            msgs.append(f"printed plan {printed} != reference "
                        f"n_aux={plan['n_aux']} g={plan['g']}")
        if not (np.all(d["k"] == self.K) and np.all(d["g"] == plan["g"])
                and rc.close(d["residual"], np.full(n_w, plan["residual"]))):
            msgs.append("k/g/residual columns differ from the reference plan")
        if not rc.close(d["probability"], p_ref):
            msgs.append("probability differs from the exact closed form")
        if not rc.close(d["jhat"], counts / counts.sum()):
            msgs.append("jhat != counts / sum(counts)")

        curve = rc.reference_curve(p_ref, train_counts, len(xs), test_counts,
                                   len(xt), list(self.BUDGETS), self.RUNS,
                                   self.seed, None)
        bad["shots-curve"] = _check_curve(op["shots-curve"], curve)
        return bad


class EdgeBudget(Workload):
    """The headline budget curve: the per-draw search loop on edge, k=4."""

    K, RUNS = 4, 200
    BUDGETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)
    EVAL_SHOTS = 100

    def job(self, out: Path) -> list[Op]:
        ops: list[Op] = []
        seed = ["--seed", str(self.seed)]
        curve = ["shots-curve", "--task", "edge", "--runs", str(self.RUNS),
                 "--budget", ",".join(map(str, self.BUDGETS))] + seed
        self.cli(ops, out, "kpd-exact", curve + ["--k", str(self.K)])
        self.cli(ops, out, "kpd-shots", curve + [
            "--k", str(self.K), "--eval-shots", str(self.EVAL_SHOTS)])
        self.cli(ops, out, "urs", curve + ["--method", "urs"])
        self.cli(ops, out, "gen-data", ["gen-data", "--task", "edge"] + seed)
        self.cli(ops, out, "theory", ["theory", "--task", "edge",
                                      "--k-max", "8"])
        return ops

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        model = self.gt.boolcirc.edge_detection_model()
        op = {o.name: o for o in ops}
        bad: dict[str, list[str]] = {}
        # shots-curve always uses the task's own split seed, 0
        xs, ys, tr, te = rc.edge_reference(0)
        all_w = np.arange(1 << model.weight_width)
        c_train = rc.correct_counts(model, all_w, xs[tr], ys[tr], False)
        c_test = rc.correct_counts(model, all_w, xs[te], ys[te], False)
        plan = rc.reference_plan(rc.count_histogram(c_train), len(tr),
                                 model.weight_width, self.K)
        p_kpd = rc.reference_distribution(c_train, plan)
        p_urs = np.full(len(all_w), 1.0 / len(all_w))
        for name, p, shots in (("kpd-exact", p_kpd, None),
                               ("kpd-shots", p_kpd, self.EVAL_SHOTS),
                               ("urs", p_urs, None)):
            curve = rc.reference_curve(
                p, c_train.__getitem__, len(tr), c_test.__getitem__, len(te),
                list(self.BUDGETS), self.RUNS, self.seed, shots)
            bad[name] = _check_curve(op[name], curve)

        msgs = bad.setdefault("gen-data", [])
        xs, ys, tr, te = rc.edge_reference(self.seed)
        x_bits = ["".join(map(str, r)) for r in xs.tolist()]
        y_bits = ["".join(map(str, r)) for r in ys.tolist()]
        for fname, rows in (("dataset.csv", range(512)), ("train.csv", tr),
                            ("test.csv", te)):
            got = _text_columns(op["gen-data"].out / fname)
            if (got.get("x_bits") != [x_bits[i] for i in rows]
                    or got.get("y_bits") != [y_bits[i] for i in rows]):
                msgs.append(f"{fname} differs from the reference rows")

        msgs = bad.setdefault("theory", [])
        ref = _recorded()["edge_theory"]
        got = rc.csv_columns(op["theory"].out / "theory.csv", list(ref))
        for col, values in ref.items():
            if not rc.close(got[col], values):
                msgs.append(f"theory.csv column {col} differs from the "
                            "recorded reference")
        return bad


class KcopyCrosscheck(Workload):
    """Closed form vs gate-level statevector on the k-copy system."""

    INSTANCES = ([("toy", k, 0) for k in range(1, 6)]
                 + [("simplified-ed", 1, m) for m in range(4)])

    def __init__(self, seed, work, gt):
        super().__init__(seed, work, gt)
        order = np.random.default_rng([seed, 2]).permutation(
            len(self.INSTANCES))
        self.instances = [self.INSTANCES[i] for i in order]

    def job(self, out: Path) -> list[Op]:
        ops: list[Op] = []
        self.cli(ops, out, "verify-oracle",
                 ["verify-oracle", "--seed", str(self.seed)])
        am, sv, tasks = self.gt.amplify, self.gt.statevec, self.gt.tasks
        for task, k, m in self.instances:
            op = Op(f"{task}:k={k}:m={m}")
            try:
                b = tasks.load_task(task)
                table = am.accuracy_table(b.model, b.train)
                plan = am.make_plan(table, k, m=m)
                p = am.evolve_distribution(table, plan).p
                marg, state, layout = sv.grover_run(
                    b.model, b.train, k, plan.g, plan.n_aux,
                    return_state=True)
                op.value = {"n_aux": plan.n_aux, "g": plan.g,
                            "n_qubits": layout.n_qubits,
                            "dev": float(np.abs(marg - p).max()),
                            "drift": abs(state.norm() - 1.0),
                            "mass": float(marg.sum())}
                del state  # free 2^n amplitudes before the next instance
            except Exception as e:  # a failed operation, counted, not fatal
                op.error = f"{type(e).__name__}: {e}"
            ops.append(op)
        return ops

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        rec = _recorded()["kcopy_qubits"]
        bad: dict[str, list[str]] = {}
        xs, ys, tr, _ = rc.edge_reference(0)
        sed_counts = rc.correct_counts(
            self.gt.boolcirc.simplified_ed_model(), np.arange(16), xs[tr],
            ys[tr, :1] ^ 1, False)  # simplified-ed label: a full row exists
        toy_hist = {2: 1, 0: 1}  # o = w XOR x on {(0,0), (1,1)}: w=0 right
        for op in ops:
            msgs = bad.setdefault(op.name, [])
            if op.name == "verify-oracle":
                msgs.extend(self._check_verify(op, toy_hist, sed_counts, rec))
                continue
            if op.value is None:
                continue
            task, k, m = op.name.split(":")
            k, m = int(k[2:]), int(m[2:])
            v = op.value
            if task == "toy":
                plan = rc.reference_plan(toy_hist, 2, 1, k, m)
            else:
                plan = rc.reference_plan(rc.count_histogram(sed_counts), 400,
                                         4, k, m)
            if (v["n_aux"], v["g"]) != (plan["n_aux"], plan["g"]):
                msgs.append(f"plan n_aux={v['n_aux']} g={v['g']} != "
                            f"reference {plan['n_aux']}, {plan['g']}")
            if v["n_qubits"] != rec[op.name]:
                msgs.append(f"{v['n_qubits']} qubits, recorded {rec[op.name]}")
            if not (v["dev"] <= TOL and v["drift"] <= TOL
                    and abs(v["mass"] - 1) <= TOL):
                msgs.append(f"deviation {v['dev']:.3e}, norm drift "
                            f"{v['drift']:.3e}, mass {v['mass']!r}")
        return bad

    @staticmethod
    def _check_verify(op, toy_hist, sed_counts, rec) -> list[str]:
        text = (op.out / "verify_oracle.txt").read_text()
        lines = [dict(re.findall(r"(\w+)=(\S+)", ln))
                 for ln in text.splitlines() if ln.startswith("instance=")]
        if [ln.get("instance") for ln in lines] != ["toy", "simplified-ed"]:
            return ["verify_oracle.txt does not list toy and simplified-ed"]
        msgs = []
        for ln, hist, n, d_w in ((lines[0], toy_hist, 2, 1),
                                 (lines[1], rc.count_histogram(sed_counts),
                                  400, 4)):
            plan = rc.reference_plan(hist, n, d_w, 1)
            name = ln["instance"]
            if (int(ln["n_aux"]), int(ln["g"])) != (plan["n_aux"], plan["g"]):
                msgs.append(f"{name}: plan differs from the reference")
            if not math.isclose(float(ln["theta"]), plan["theta"],
                                rel_tol=1e-9):
                msgs.append(f"{name}: theta differs from the reference")
            if int(ln["n_qubits"]) != rec[f"{name}:k=1:m=0"]:
                msgs.append(f"{name}: qubit count differs from the record")
            if not (float(ln["max_deviation"]) <= TOL
                    and float(ln["norm_drift"]) <= TOL):
                msgs.append(f"{name}: deviation or norm drift above {TOL}")
            if not 0 <= int(ln["measured_weight"]) < 1 << d_w:
                msgs.append(f"{name}: measured weight out of range")
        return msgs


WORKLOADS = {"mnist-landscape": MnistLandscape, "edge-budget": EdgeBudget,
             "kcopy-crosscheck": KcopyCrosscheck}


def _check_curve(op: Op, ref: dict) -> list[str]:
    got = rc.csv_columns(op.out / "shots_curve.csv", list(ref))
    return [f"shots_curve.csv column {col} differs from the replayed search"
            for col in ref if not rc.close(got[col], ref[col], abs_=1e-12)]


def _text_columns(path: Path) -> dict[str, list[str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


def _recorded() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------

def run(wl: Workload, seconds: float, trace: bool, work: Path) -> dict:
    """Repeat jobs for about `seconds`; check the first job's outputs in
    full and every later job's against the first by digest. With tracing,
    jobs alternate untraced and traced, at least one of each."""
    tr = tracing.Tracer()
    wall, cpu, traced_wall = [], [], []
    first: list[Op] = []
    digests: list[str] = []
    attempted = 0
    failures: dict[tuple[int, str], list[str]] = {}
    deadline = time.perf_counter() + seconds
    last = 0.0  # duration of the previous job
    j = 0
    # start a job only while it would end less than half a job past the
    # deadline, so slow hosts get fewer jobs rather than longer runs
    while j == 0 or time.perf_counter() + last / 2 < deadline or (
            trace and not traced_wall):
        traced = trace and j % 2 == 1
        out = work / f"job{j}"
        if traced:
            tr.begin_job(j)
            undo = tracing.install(tr, wl.gt.amplify, wl.gt.cli,
                                   wl.gt.statevec, wl.gt.tasks)
            wl.span = tr.span
            t0 = time.perf_counter()
            try:
                with tr.span(tracing.JOB):
                    ops = wl.job(out)
            finally:
                last = time.perf_counter() - t0
                traced_wall.append(last)
                undo()
                del wl.span
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            ops = wl.job(out)
            last = time.perf_counter() - t0
            wall.append(last)
            cpu.append(time.process_time() - c0)
        attempted += len(ops)
        for op in ops:
            if op.error:
                failures[j, op.name] = [op.error]
        job_digests = [op.digest() for op in ops]
        if j == 0:
            first, digests = ops, job_digests
        else:
            for op, d, d0 in zip(ops, job_digests, digests):
                if d != d0:
                    failures.setdefault((j, op.name), []).append(
                        "output differs from job 0")
            shutil.rmtree(out, ignore_errors=True)
        j += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        bad = wl.check(first)
    except Exception as e:  # a check that cannot run fails every op it reads
        bad = {op.name: [f"check raised {type(e).__name__}: {e}"]
               for op in first}
    for name, msgs in bad.items():
        if msgs:
            failures.setdefault((0, name), []).extend(msgs)
    result = {"job_s": wall, "job_cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": len(failures),
              "failures": {f"job{k[0]}:{k[1]}": v
                           for k, v in list(failures.items())[:10]},
              "info": wl.info()}
    if trace:
        result["layers"] = tracing.layer_metrics(tr, wall, traced_wall)
        tracing.write_spans(tr, ROOT / ".perfbench" / "spans"
                            / f"{type(wl).__name__}-seed{wl.seed}.json")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import grovertrain as gt
    import grovertrain.cli  # noqa: F401  (not imported by the package)
    src = (ROOT / "src").resolve()
    if src not in Path(gt.__file__).resolve().parents:
        print(f"grovertrain was imported from {gt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        wl = WORKLOADS[args.workload](args.seed, work, gt)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = run(wl, args.seconds, bool(args.trace), work)
            result["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
