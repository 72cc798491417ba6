"""Command-line experiment runner.

Subcommands generate datasets, sweep exact accuracy tables, evolve and dump
weight distributions, run shot-budget curves, cross-check the closed-form
evolution against the statevector simulator, and evaluate the query-count
calculators. Every run writes its CSV outputs plus a run_manifest.json
(config snapshot, seed, version, output list, wall time, seconds per stage,
peak RSS, and for an amplified run the plan) into the output directory.
With a fixed (config, seed) pair the CSV outputs are byte-identical across
reruns.

Configs can come from a flat key=value text file (--config PATH, '#' starts
a comment, keys match flag names with '-' or '_'); each value is typed and
checked by the flag it names, and explicit command-line flags override it.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included, and a run size above its cap: the MAX_* constants, listed
with what each guards in the README's flags section), 3 degenerate rotation
angle (none usable, or a plan of 2**52 rounds or more: a tiny angle or m).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import threading
import time
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from . import amplify as am
from . import boolcirc
from . import statevec as sv
from . import theory as th
from .datasets import dataset_to_csv
from .tasks import TASK_NAMES, TaskError, load_task

# caps: shots-curve's budget (about 48 bytes a draw) and runs x budgets,
# uniforms for shots (about 11 s on one core), theory's rows (about 4 s),
# --k and an explicit --pad (the plan's exact integers have k times their
# digits)
MAX_CURVE, MAX_SHOTS, MAX_ROWS = 1 << 26, 1 << 32, 1 << 20
MAX_K, MAX_PAD = 1 << 16, 1 << 32

_SWITCH_WORDS = (dict.fromkeys(("1", "true", "yes", "on"), True)
                 | dict.fromkeys(("0", "false", "no", "off"), False))


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ConfigError, so main returns 2 for it."""

    def error(self, message):
        raise ConfigError(message)


def _int_at_least(low: int, kind: str = "an integer"):
    """argparse type: an integer >= low (`kind` names what it takes)."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"needs {kind}, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value file -> {flag dest: value text}."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _config_value(action: argparse.Action | None, key: str, text: str):
    """Config text typed and checked the way its flag types and checks it."""
    if action is None:
        raise ConfigError(f"unknown config key {key!r}")
    if action.nargs == 0:  # a switch
        if text.lower() not in _SWITCH_WORDS:
            raise ConfigError(f"config {key}={text!r} needs a boolean")
        return _SWITCH_WORDS[text.lower()]
    try:
        value = action.type(text) if action.type else text
    except argparse.ArgumentTypeError as e:
        raise ConfigError(f"config {key}={text!r}: {e}") from e
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config {key}={text!r} is not one of "
                          f"{', '.join(action.choices)}")
    return value


def _parse_budgets(text: str) -> list[int]:
    """argparse type: comma-separated positive integers, sorted, no repeats."""
    try:
        budgets = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad budget list {text!r}") from None
    if not budgets or budgets[0] < 1:
        raise argparse.ArgumentTypeError("budgets must be positive integers")
    return budgets


def _parse_epsilons(text: str) -> list[float]:
    """argparse type: comma-separated finite nonnegative numbers."""
    try:
        eps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad epsilon list {text!r}") from None
    if not eps or not all(0 <= e < math.inf for e in eps):
        raise argparse.ArgumentTypeError(
            "epsilons must be finite nonnegative numbers")
    return eps


def _parse_pad(text: str):
    """argparse type: 'auto' or a padding count >= 0."""
    if text == "auto":
        return text
    return _int_at_least(0, "'auto' or an integer")(text)


class _Stages:
    """Seconds per stage of one command, counted on the thread that made
    it: a call from that thread charges the time since its previous call to
    the named stage; a call from any other records nothing. Either returns
    `value`, so `x = lap("table", make_table())` times make_table."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.monotonic()
        self._owner = threading.current_thread()

    def __call__(self, stage: str, value=None):
        if threading.current_thread() is not self._owner:
            return value
        now = time.monotonic()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._last
        self._last = now
        return value


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# shots-curve runs its repetitions on every core once a run draws at least
# this many shot uniforms (largest budget x eval-shots); below it the GIL-bound
# draw and score steps cost more in thread handoffs than a core saves
PARALLEL_SHOTS = 1 << 16


def _on_cores(n: int, workers: int, do) -> None:
    """Call do(i) for i = 0 .. n-1 on `workers` threads, this one among
    them. Each thread takes the next i not yet taken, so a thread that a
    busy core slows takes fewer, and none is taken once a call has raised;
    the first error is raised here once every thread has ended."""
    items, taking, errors = iter(range(n)), threading.Lock(), []

    def take():
        with taking:
            return None if errors else next(items, None)

    def work():
        try:
            while (i := take()) is not None:
                do(i)
        except BaseException as e:  # raised again once every thread ended
            errors.append(e)

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(workers - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of data at offset: os.pwrite may write less than asked."""
    view = memoryview(data)
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _write(path: Path, data: str | am.CsvBlocks | Iterable[bytes]) -> Path:
    """Write text, or byte blocks one after another as they are made, to
    path. A CsvBlocks table is built and written on every core, capped at
    its block count, each block at its own offset."""
    try:
        with open(path, "wb") as f:
            if isinstance(data, am.CsvBlocks):
                fd = f.fileno()
                _pwrite(fd, data.head, 0)
                _on_cores(len(data), min(len(data), _cores()),
                          lambda i: _pwrite(fd, data.build(i),
                                            data.offsets[i]))
            else:
                f.writelines([data.encode()] if isinstance(data, str)
                             else data)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    return path


def _int_text(n: int) -> str:
    """n in decimal, or in hex ("0x...") where str() refuses it for having
    more digits than Python's int-to-str limit (4300 by default)."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _write_manifest(out: Path, args, outputs: list[Path], t0: float,
                    plan: am.GroverPlan | None, stages: _Stages) -> None:
    manifest = {
        "command": args.command,
        "config": vars(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [p.name for p in outputs],
        "wall_time_s": round(time.monotonic() - t0, 3),
        "stages": {k: round(v, 4) for k, v in stages.seconds.items()},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if plan is not None:
        manifest["plan"] = {
            "theta": plan.theta, "g": plan.g, "residual": plan.residual,
            "n_aux": plan.n_aux, "leakage_bound": plan.leakage_bound,
            "n_solutions": _int_text(plan.n_solutions),
            "n_states": _int_text(plan.n_states)}
    _write(out / "run_manifest.json",
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# Each command writes into `out`, names its stages to `lap`, and returns
# (output paths, plan or None).

def cmd_gen_data(args, out: Path, lap: _Stages):
    bundle = lap("load", load_task(args.task, args.mnist_dir,
                                   split_seed=args.seed))
    outputs = lap("write", [
        _write(out / "dataset.csv", dataset_to_csv(bundle.full)),
        _write(out / "train.csv", dataset_to_csv(bundle.train)),
        _write(out / "test.csv", dataset_to_csv(bundle.test)),
    ])
    print(f"{args.task}: {len(bundle.full)} samples "
          f"({len(bundle.train)} train / {len(bundle.test)} test) -> {out}")
    return outputs, None


def cmd_jtable(args, out: Path, lap: _Stages):
    bundle = lap("load", load_task(args.task, args.mnist_dir,
                                   split_seed=args.seed))
    d = getattr(bundle, args.split)  # one of --split's choices
    table = lap("table", am.accuracy_table(bundle.model, d))
    outputs = lap("write", [_write(out / "jtable.csv", am.jtable_csv(table))])
    best = int(np.argmax(table.counts))
    print(f"{args.task}/{args.split}: {len(table.counts)} weights, "
          f"best weight {best} at accuracy "
          f"{table.counts[best] / table.n_samples:.6g} -> {out}")
    return outputs, None


def cmd_distribution(args, out: Path, lap: _Stages):
    bundle = lap("load", load_task(args.task, args.mnist_dir))
    table = lap("table", am.accuracy_table(bundle.model, bundle.full))
    rng = np.random.default_rng(args.seed)
    plan = lap("plan", am.make_plan(table, args.k, pad=args.pad,
                                    m=args.branch_m,
                                    theta_shot_count=args.shots, rng=rng,
                                    use_sqrt=not args.strict_ratio_theta))
    rows = lap("evolve", am.evolved_csv(table, plan))
    outputs = lap("write", [_write(out / "distribution.csv", rows)])
    print(f"{args.task} k={plan.k}: n_aux={plan.n_aux} theta={plan.theta:.6g} "
          f"g={plan.g} residual={plan.residual:.6g} "
          f"leakage_bound={plan.leakage_bound:.3g} -> {out}")
    return outputs, plan


def cmd_shots_curve(args, out: Path, lap: _Stages):
    budgets = args.budget
    bundle = lap("load", load_task(args.task, args.mnist_dir))
    t_train = lap("table", am.accuracy_table(bundle.model, bundle.train))
    if args.method == "kpd":
        plan = lap("plan", am.make_plan(t_train, args.k, pad=args.pad,
                                        m=args.branch_m,
                                        use_sqrt=not args.strict_ratio_theta))
        dist = lap("evolve", am.evolve_distribution(t_train, plan))
        label = f"kpd:{args.k}"
    else:
        plan = None
        dist = am.uniform_distribution(bundle.model.weight_width)
        label = "urs"
    at_budget = np.array(budgets) - 1
    best = np.zeros((args.runs, len(budgets)), dtype=np.int64)
    outputs = ([out / f"trace_rep{rep}.csv" for rep in range(args.runs)]
               if args.dump_traces else [])

    # each repetition has its own generator and its own row and trace, so
    # any split of the runs among threads draws the same uniforms
    def work(rep):
        rng = np.random.default_rng([args.seed, rep])
        draws, estimates, found = am.search(
            dist, t_train, budgets[-1], rng, args.eval_shots)
        best[rep] = found[at_budget]
        lap("search")
        if args.dump_traces:
            rows = zip(range(len(draws)), draws.tolist(), estimates.tolist())
            lap("write", _write(outputs[rep], am.rows_csv(
                "draw_index,weight_index,estimate\n", "{},{},{:.12g}\n",
                rows)))

    shots = budgets[-1] * (args.eval_shots or 0)
    workers = min(args.runs, _cores()) if shots >= PARALLEL_SHOTS else 1
    dist.guide  # built once, before the threads share it
    _on_cores(args.runs, workers, work)
    lap("search")
    train_acc = t_train.counts[best] / t_train.n_samples
    # the test split is scored only at the weights the runs kept
    test_acc = lap("table", boolcirc.correct_counts(
        bundle.model, bundle.test.x, bundle.test.y, best)) / len(bundle.test)
    # one column at a time: mean(axis=0) would sum in another order
    rows = ((b, tr.mean(), tr.std(), te.mean(), te.std())
            for b, tr, te in zip(budgets, train_acc.T, test_acc.T))
    outputs.insert(0, _write(out / "shots_curve.csv", am.rows_csv(
        "budget,mean_train,std_train,mean_test,std_test\n",
        "{}" + ",{:.12g}" * 4 + "\n", rows)))
    lap("write")
    print(f"{args.task} {label}: budgets {budgets} x {args.runs} runs -> {out}")
    return outputs, plan


def cmd_verify_oracle(args, out: Path, lap: _Stages):
    report = ["closed-form evolution vs statevector simulation"]
    outputs = []
    worst = 0.0
    for idx, name in enumerate(("toy", "simplified-ed")):
        bundle = lap("load", load_task(name))
        table = lap("table", am.accuracy_table(bundle.model, bundle.train))
        plan = lap("plan", am.make_plan(table, 1))
        predicted = lap("evolve", am.evolve_distribution(table, plan).p)
        marginal, state, layout = sv.grover_run(
            bundle.model, bundle.train, plan.k, plan.g, plan.n_aux,
            return_state=True)
        dev = float(np.abs(marginal - predicted).max())
        worst = max(worst, dev)
        drift = abs(state.norm() - 1.0)
        rng = np.random.default_rng([args.seed, idx])
        measured = int(am.sample_weights(
            am.WeightDistribution(marginal / marginal.sum()), 1, rng)[0])
        lap("simulate")
        report.append(
            f"instance={name} n_qubits={layout.n_qubits} k={plan.k} "
            f"n_aux={plan.n_aux} theta={plan.theta:.12g} g={plan.g} "
            f"residual={plan.residual:.12g} max_deviation={dev:.3e} "
            f"norm_drift={drift:.3e} measured_weight={measured}")
        if args.dump_statevector:
            outputs.append(lap("write", _write(out / f"statevector_{name}.csv",
                                               sv.statevector_csv(state))))
    text = "\n".join(report) + "\n"
    outputs.insert(0, lap("write", _write(out / "verify_oracle.txt", text)))
    print(text, end="")
    print(f"worst deviation {worst:.3e} -> {out}")
    return outputs, None


def cmd_theory(args, out: Path, lap: _Stages):
    bundle = lap("load", load_task(args.task, args.mnist_dir))
    table = lap("table", am.accuracy_table(bundle.model, bundle.full))
    C = float(bundle.full.class_count)
    points = []
    for eps in args.epsilons:
        try:
            alpha, beta = th.alpha_beta(table, eps)
        except ValueError as e:  # epsilon admits every weight, or none scores
            raise ConfigError(f"epsilon {eps:g}: {e}") from e
        if beta > 1:
            raise ConfigError(f"epsilon {eps:g} admits more weights than it "
                              f"leaves out (beta = {beta:.6g} > 1)")
        k_star = th.optimal_k(alpha, beta, C)
        holds = th.k_star_condition(alpha, beta, C)
        why = (" (alpha <= beta: parallel copies cannot help)"
               if alpha <= beta else "")
        print(f"epsilon={eps:g}: alpha={alpha:.6g} beta={beta:.6g} "
              f"k_star={k_star} condition_holds={holds}{why}")
        points.append((eps, alpha, beta, k_star,
                       [th.queries_kpd(alpha, beta, C, k)
                        for k in range(1, args.k_max + 1)]))
    lap("bounds")
    rows = ((eps, alpha, beta, C, k, q, k_star)
            for eps, alpha, beta, k_star, qs in points
            for k, q in enumerate(qs, 1))
    outputs = lap("write", [_write(out / "theory.csv", am.rows_csv(
        "epsilon,alpha,beta,C,k,bound_value,k_star\n",
        "{:.12g},{:.12g},{:.12g},{:.12g},{},{:.12g},{}\n", rows))])
    print(f"{args.task}: C={C:g}, {len(points) * args.k_max} rows -> {out}")
    return outputs, None


def build_parser(config: dict[str, str] | None = None
                 ) -> argparse.ArgumentParser:
    """Build the argument parser. `config` maps flag dests to config-file
    text; each value is typed and checked by its flag, then becomes a
    default of every subcommand that has the flag, so explicit flags win."""
    parser = _Parser(
        prog="grovertrain",
        description="Gradient-free training of Boolean models by amplitude "
                    "amplification: datasets, accuracy landscapes, evolved "
                    "weight distributions, shot-budget curves, simulator "
                    "cross-checks, and query-count calculators.")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    positive, nonnegative = _int_at_least(1), _int_at_least(0)

    def command(name, summary, task=True, seed=True):
        p = sub.add_parser(name, help=summary)
        if task:
            p.add_argument("--task", default="simplified-ed",
                           choices=TASK_NAMES)
            p.add_argument("--mnist-dir", metavar="DIR",
                           help="directory with the four standard IDX files "
                                "(needed by tiny-mnist)")
        if seed:
            p.add_argument("--seed", type=nonnegative, default=0)
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default runs/<command>)")
        return p

    def plan_flags(p):
        p.add_argument("--k", type=positive, default=1,
                       help="parallel dataset copies")
        p.add_argument("--pad", type=_parse_pad, default="auto",
                       metavar="auto|N",
                       help="auxiliary padding samples (auto: pad when the "
                            "rounded iteration count keeps too little mass)")
        p.add_argument("--branch-m", type=nonnegative, default=0,
                       help="rotation branch index in the iteration-count "
                            "rule")
        p.add_argument("--strict-ratio-theta", action="store_true",
                       help="set the angle to arcsin of the solution ratio "
                            "itself rather than of its square root")

    command("gen-data", "write dataset/train/test CSVs")

    p = command("jtable", "exact accuracy table over all weights")
    p.add_argument("--split", choices=("full", "train", "test"),
                   default="full")

    p = command("distribution", "evolved weight distribution for one plan")
    plan_flags(p)
    p.add_argument("--shots", type=positive,
                   help="estimate the rotation angle from this many samples")

    p = command("shots-curve", "best-found accuracy vs measurement budget")
    plan_flags(p)
    p.add_argument("--method", choices=("kpd", "urs"), default="kpd",
                   help="amplified sampling (kpd) or uniform random search")
    p.add_argument("--budget", type=_parse_budgets,
                   default="1,2,4,8,16,32,64,128",
                   help="comma-separated measurement budgets")
    p.add_argument("--runs", type=positive, default=20,
                   help="repetitions per budget")
    p.add_argument("--eval-shots", type=positive, default=None,
                   help="shots per candidate evaluation (default: exact)")
    p.add_argument("--dump-traces", action="store_true",
                   help="write per-repetition sampling traces")

    p = command("verify-oracle",
                "closed form vs statevector on small instances", task=False)
    p.add_argument("--dump-statevector", action="store_true",
                   help="also write final statevectors (large files)")

    p = command("theory", "query-count bounds and best k", seed=False)
    p.add_argument("--epsilons", type=_parse_epsilons, default="0",
                   help="comma-separated accuracy slacks")
    p.add_argument("--k-max", type=positive, default=8,
                   help="evaluate bounds for k = 1..k_max")

    if config:
        # every key is checked, also where the chosen command lacks its
        # flag; subcommands parse into a fresh namespace, so the defaults
        # go on each subparser that has the flag
        subparsers = sub.choices.values()
        actions = {a.dest: a for sp in subparsers for a in sp._actions
                   if a.dest != "help"}
        values = {key: _config_value(actions.get(key), key, text)
                  for key, text in config.items()}
        for sp in subparsers:
            sp.set_defaults(**{a.dest: values[a.dest] for a in sp._actions
                               if a.dest in values})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of runs without a config, built once: each build leaves
    some 400 objects in reference cycles."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        if args.config:
            parser = build_parser(parse_config_file(args.config))
            args = parser.parse_args(argv)
        # every size a run allocates or loops over, as (value, what, cap),
        # where a flag the command lacks (or leaves unset) counts as 0
        get = vars(args).get
        budgets, runs, pad = get("budget", [0]), get("runs", 0), get("pad", 0)
        for n, what, cap in (
                (budgets[-1], "measurements (largest budget)", MAX_CURVE),
                (runs * len(budgets), "best-so-far weights (runs x budgets)",
                 MAX_CURVE),
                (get("shots") or 0, "shots", MAX_SHOTS),
                (runs * budgets[-1] * (get("eval_shots") or 0),
                 "eval-shots uniforms (runs x budget x eval-shots)",
                 MAX_SHOTS),
                (get("k_max", 0) * len(get("epsilons", ())),
                 "theory rows (epsilons x k-max)", MAX_ROWS),
                (get("k", 0), "parallel copies (--k)", MAX_K),
                (0 if pad == "auto" else pad, "padding samples (--pad)",
                 MAX_PAD)):
            if n > cap:
                raise ConfigError(f"{n} {what} are above the cap of {cap}")
        t0 = time.monotonic()
        out = Path(args.out or Path("runs") / args.command)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(
                f"cannot create output directory {out}: {e}") from e
        stages = _Stages()
        command = globals()["cmd_" + args.command.replace("-", "_")]
        outputs, plan = command(args, out, stages)
        _write_manifest(out, args, outputs, t0, plan, stages)
        return 0
    except am.DegenerateAngleError as e:
        print(f"degenerate angle: {e}", file=sys.stderr)
        return 3
    except (ConfigError, TaskError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
