import argparse
import errno
import gc
import gzip
import hashlib
import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grovertrain import amplify as am
from grovertrain import cli
from grovertrain import datasets as ds
from grovertrain import statevec as sv
from grovertrain.tasks import load_task
from conftest import console_env, make_synthetic_idx_dir
from test_amplify import reference_evolved_csv, reference_jtable_csv


TASKS = ["toy", "edge", "simplified-ed"]


def run(*argv):
    return cli.main(list(argv))


def read_manifest(out_dir):
    return json.loads((out_dir / "run_manifest.json").read_text())


class TestGenData:
    def test_writes_splits_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("gen-data", "--task", "toy", "--out", str(out)) == 0
        for name in ("dataset.csv", "train.csv", "test.csv"):
            assert (out / name).stat().st_size > 0
        man = read_manifest(out)
        assert man["command"] == "gen-data"
        assert man["seed"] == 0
        assert sorted(man["outputs"]) == ["dataset.csv", "test.csv",
                                          "train.csv"]
        assert man["config"]["task"] == "toy"
        assert isinstance(man["wall_time_s"], float)
        assert "toy: 2 samples" in capsys.readouterr().out

    def test_split_seed_flows_through(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--task", "edge", "--out", str(a)) == 0
        assert run("gen-data", "--task", "edge", "--seed", "5",
                   "--out", str(b)) == 0
        assert (a / "train.csv").read_bytes() != (b / "train.csv").read_bytes()

    def test_image_task_needs_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GROVERTRAIN_MNIST_DIR", raising=False)
        assert run("gen-data", "--task", "tiny-mnist",
                   "--out", str(tmp_path / "o")) == 2

    def test_image_task_with_synthetic_files(self, tmp_path):
        idx = make_synthetic_idx_dir(tmp_path / "idx", n_train=300,
                                     n_test=100)
        out = tmp_path / "o"
        assert run("gen-data", "--task", "tiny-mnist", "--mnist-dir",
                   str(idx), "--out", str(out)) == 0
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header == "x_bits,y_bits"


class TestJtable:
    def test_full_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("jtable", "--task", "simplified-ed", "--split", "train",
                   "--out", str(out)) == 0
        lines = (out / "jtable.csv").read_text().splitlines()
        assert lines[0] == "weight_index,correct_count,accuracy"
        assert len(lines) == 1 + 16
        assert "best weight" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("jtable", "--task", "edge", "--out", str(out)) == 0
        assert (a / "jtable.csv").read_bytes() == (b / "jtable.csv").read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(TASKS), st.sampled_from(["full", "train", "test"]),
           st.integers(-3, 3))
    def test_numeric_flags_never_crash(self, tmp_path_factory, task, split,
                                       seed):
        out = tmp_path_factory.mktemp("jtable")
        code = run("jtable", "--task", task, "--split", split, "--seed",
                   str(seed), "--out", str(out))
        assert code == (0 if seed >= 0 else 2)

    @pytest.mark.parametrize("case", [
        "bad-magic", "no-1-2-7-labels", "count-mismatch", "not-28x28",
        "labels-hold-images", "truncated-gz", "not-gzip", "corrupt-gz"])
    def test_bad_image_files_exit_two(self, tmp_path, capsys, case):
        idx = make_synthetic_idx_dir(tmp_path / "idx", n_train=300,
                                     n_test=100)
        images = idx / "train-images-idx3-ubyte"
        labels = idx / "train-labels-idx1-ubyte"
        if case == "bad-magic":
            images.write_bytes(b"\0\0\x08\x04" + images.read_bytes()[4:])
        elif case == "no-1-2-7-labels":
            labels.write_bytes(ds.write_idx(np.full(300, 3, np.uint8)))
        elif case == "count-mismatch":
            labels.write_bytes(ds.write_idx(np.full(299, 1, np.uint8)))
        elif case == "not-28x28":
            images.write_bytes(ds.write_idx(np.zeros((300, 27, 28),
                                                     np.uint8)))
        elif case == "labels-hold-images":
            labels.write_bytes(images.read_bytes())
        else:
            packed = gzip.compress(images.read_bytes())
            packed = {"truncated-gz": packed[:len(packed) // 2],
                      "not-gzip": b"not gzip data",
                      "corrupt-gz": packed[:40] + bytes([packed[40] ^ 0xFF])
                      + packed[41:]}[case]
            images.unlink()
            images = images.with_name(images.name + ".gz")
            images.write_bytes(packed)
        assert run("jtable", "--task", "tiny-mnist", "--mnist-dir", str(idx),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and images.name in err


class TestDistribution:
    def test_writes_distribution_with_overlay(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("distribution", "--task", "toy", "--out", str(out)) == 0
        lines = (out / "distribution.csv").read_text().splitlines()
        assert lines[0] == "weight_index,probability,k,g,residual,jhat"
        assert len(lines) == 1 + 2
        # the toy plan pads to a lossless rotation: all mass on weight 0
        assert lines[1].startswith("0,1,1,1,1,1")
        assert "n_aux=2" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("distribution", "--task", "edge", "--k", "4",
                       "--out", str(out)) == 0
        assert (a / "distribution.csv").read_bytes() == \
            (b / "distribution.csv").read_bytes()

    def test_write_path_matches_per_row_reference(self, tmp_path,
                                                  edge_table):
        # the byte blocks reach the file through cli._write unchanged
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("jtable", "--task", "edge", "--out", str(a)) == 0
        assert run("distribution", "--task", "edge", "--k", "4",
                   "--out", str(b)) == 0
        assert (a / "jtable.csv").read_bytes() == \
            reference_jtable_csv(edge_table).encode()
        assert (b / "distribution.csv").read_bytes() == \
            reference_evolved_csv(edge_table,
                                  am.make_plan(edge_table, 4)).encode()

    # sha256 of distribution.csv, recorded while the rows still came from a
    # per-weight distribution scattered back to its counts
    PINS = {
        "edge-k4": ("292b4696706aed6bd1fab1f405e795a3"
                    "0f07b904e84bc0ce81b5a5f1b1eafe0b",
                    ["--task", "edge", "--k", "4"]),
        # padded to n_aux=1, residual 0.858609
        "toy-k3": ("c19d4c3bbb4ba864a49862606603f025"
                   "58199891bb79e2c125a2e499ef4658ad",
                   ["--task", "toy", "--k", "3"]),
        "simplified-ed-k2-shots": ("b316c86db6f7d53825fbcd0ef9c7fed1"
                                   "968080b8d604e564842a18e2fd97125b",
                                   ["--task", "simplified-ed", "--k", "2",
                                    "--shots", "5000", "--seed", "3"]),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_rows_pinned(self, tmp_path, name):
        want, flags = self.PINS[name]
        assert run("distribution", *flags, "--out", str(tmp_path)) == 0
        data = (tmp_path / "distribution.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want

    def test_manifest_records_the_plan(self, tmp_path, edge_table):
        out = tmp_path / "o"
        assert run("distribution", "--task", "edge", "--k", "4",
                   "--out", str(out)) == 0
        plan = am.make_plan(edge_table, 4)
        assert read_manifest(out)["plan"] == {
            "theta": plan.theta, "g": plan.g, "residual": plan.residual,
            "n_aux": plan.n_aux, "leakage_bound": plan.leakage_bound,
            "n_solutions": str(plan.n_solutions),
            "n_states": str(plan.n_states)}
        assert plan.n_states == 2 ** 8 * 512 ** 4

    @pytest.mark.parametrize("command, split", [
        (["distribution"], "full"),
        (["shots-curve", "--budget", "1,4", "--runs", "2"], "train"),
    ])
    def test_manifest_plan_past_the_str_digit_limit(self, tmp_path,
                                                    edge_bundle, command,
                                                    split):
        # T = 2^8 * (N + n_aux)^1700 has over 4400 decimal digits, past
        # the 4300 that str() accepts
        out = tmp_path / "o"
        assert run(*command, "--task", "edge", "--k", "1700",
                   "--out", str(out)) == 0
        table = am.accuracy_table(edge_bundle.model,
                                  getattr(edge_bundle, split))
        plan = am.make_plan(table, 1700)
        got = read_manifest(out)["plan"]
        assert got["n_states"].startswith("0x")
        assert int(got["n_states"], 16) == plan.n_states
        assert int(got["n_solutions"], 16) == plan.n_solutions
        assert got["g"] == plan.g

    def test_explicit_pad(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("distribution", "--task", "toy", "--pad", "6",
                   "--out", str(out)) == 0
        assert "n_aux=6" in capsys.readouterr().out

    def test_flag_conflicts_and_bad_values(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("distribution", "--task", "toy", "--shots", "0",
                   "--out", out) == 2
        assert run("distribution", "--task", "toy", "--shots",
                   str(cli.MAX_SHOTS + 1), "--out", out) == 2
        assert run("distribution", "--task", "toy", "--pad", "-3",
                   "--out", out) == 2
        assert run("distribution", "--task", "toy", "--pad", "many",
                   "--out", out) == 2

    def test_degenerate_shot_estimate_exits_three(self, tmp_path):
        # one shot against a tiny solution ratio lands on zero probability
        assert run("distribution", "--task", "edge", "--k", "4", "--shots",
                   "1", "--seed", "1", "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("flags, code", [
        (["--k", "177"], 0),  # g = 4.26e15, below 2**52
        (["--k", "178"], 3),  # g = 5.22e15, 2**52 or more
        (["--branch-m", str(2 ** 51)], 3),  # g = 2**52 at theta = pi/4
        (["--branch-m", str(10 ** 400)], 3),  # g >= m, past the float range
    ])
    def test_plans_of_2_52_rounds_exit_three(self, tmp_path, capsys, flags,
                                             code):
        for argv in (["distribution"], ["shots-curve", "--method", "kpd"]):
            assert run(*argv, "--task", "toy", *flags,
                       "--out", str(tmp_path / "o")) == code
            if code == 3:
                assert "g=" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(TASKS), st.integers(-2, 1100),
           st.sampled_from(["auto"] + [str(n) for n in range(21)]),
           st.integers(-2, 3) | st.integers(2 ** 52 - 2, 10 ** 400))
    def test_numeric_flags_never_crash(self, tmp_path_factory, task, k, pad,
                                       m):
        out = tmp_path_factory.mktemp("dist")
        code = run("distribution", "--task", task, "--k", str(k), "--pad",
                   pad, "--branch-m", str(m), "--out", str(out))
        assert code in (0, 2, 3)
        if code == 0:
            rows = (out / "distribution.csv").read_text().splitlines()[1:]
            p = [float(r.split(",")[1]) for r in rows]
            assert all(math.isfinite(v) for v in p)
            # the shares are divided by their sum over the weights; 12
            # significant digits per row move the sum by up to 5e-12
            assert abs(math.fsum(p) - 1.0) <= 1e-11


class TestShotsCurve:
    def test_budget_grid(self, tmp_path):
        out = tmp_path / "o"
        assert run("shots-curve", "--task", "simplified-ed", "--budget",
                   "4,1,2,2", "--runs", "3", "--out", str(out)) == 0
        lines = (out / "shots_curve.csv").read_text().splitlines()
        assert lines[0] == "budget,mean_train,std_train,mean_test,std_test"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "4"]
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")[1:]]
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_deterministic_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("shots-curve", "--task", "simplified-ed", "--budget",
                       "1,8", "--runs", "4", "--eval-shots", "32",
                       "--seed", "7", "--out", str(out)) == 0
        assert (a / "shots_curve.csv").read_bytes() == \
            (b / "shots_curve.csv").read_bytes()

    def test_trace_dump(self, tmp_path):
        out = tmp_path / "o"
        assert run("shots-curve", "--task", "toy", "--budget", "1,4",
                   "--runs", "2", "--dump-traces", "--out", str(out)) == 0
        for rep in (0, 1):
            lines = (out / f"trace_rep{rep}.csv").read_text().splitlines()
            assert lines[0] == "draw_index,weight_index,estimate"
            assert len(lines) == 1 + 4
        man = read_manifest(out)
        assert "trace_rep1.csv" in man["outputs"]

    def test_uniform_search_method(self, tmp_path):
        out = tmp_path / "o"
        assert run("shots-curve", "--task", "simplified-ed", "--method",
                   "urs", "--budget", "1,16", "--runs", "2",
                   "--out", str(out)) == 0
        assert (out / "shots_curve.csv").stat().st_size > 0
        assert "plan" not in read_manifest(out)

    def test_amplified_search_records_the_plan(self, tmp_path,
                                               sed_train_table):
        out = tmp_path / "o"
        assert run("shots-curve", "--task", "simplified-ed", "--k", "2",
                   "--budget", "1,4", "--runs", "2", "--out", str(out)) == 0
        plan = am.make_plan(sed_train_table, 2)
        got = read_manifest(out)["plan"]
        assert (got["theta"], got["g"], got["n_aux"]) == \
            (plan.theta, plan.g, plan.n_aux)
        assert int(got["n_solutions"]) == plan.n_solutions

    # demos/03_shots_curves.py's three runs; the goldens are the curves it
    # wrote before the search loop was vectorized
    @pytest.mark.parametrize("golden,argv", [
        ("sed_curve", ["--task", "simplified-ed", "--k", "1"]),
        ("edge_k4", ["--task", "edge", "--k", "4",
                     "--budget", "5,10,15,20,30,40,60"]),
        ("edge_urs", ["--task", "edge", "--method", "urs",
                      "--budget", "50,100,200,400,900"]),
    ])
    def test_demo_curves_match_goldens(self, tmp_path, golden, argv):
        assert run("shots-curve", *argv, "--runs", "20", "--seed", "0",
                   "--out", str(tmp_path)) == 0
        want = Path(__file__).parent / "data" / f"{golden}.csv"
        assert (tmp_path / "shots_curve.csv").read_bytes() == want.read_bytes()

    # sha256 of the edge-budget curves, recorded while each draw was still a
    # binary search of the CDF and shots were counted with count_nonzero
    EDGE_BUDGET = {
        "kpd": ("e64acd029c8185d5aa84d2908a3eae04"
                "76080782296b4cd32fdc56075e18016d", ["--k", "4"]),
        "kpd-shots": ("34805ebedc94054eeefbe9bc2bbda6cf"
                      "489f9bfd53be412da1a40590953c2e3b",
                      ["--k", "4", "--eval-shots", "100"]),
        "urs": ("0bb0337ccbffebead4cf121ef3091458"
                "edfba9bdb6fad527581c18d43ef1e041", ["--method", "urs"]),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_BUDGET))
    def test_edge_budget_curves_pinned(self, tmp_path, name):
        want, flags = self.EDGE_BUDGET[name]
        assert run("shots-curve", "--task", "edge", "--runs", "200",
                   "--budget", "1,2,4,8,16,32,64,128,256,512,1000", *flags,
                   "--out", str(tmp_path)) == 0
        data = (tmp_path / "shots_curve.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want

    # sha256 of each run's curve and traces, recorded while both were
    # written by hand-made f-string joins
    TRACES = {
        "edge-shots": (["--task", "edge", "--k", "4", "--eval-shots", "5",
                        "--budget", "1,2,4,8,16,32", "--runs", "3"], {
            "shots_curve": "b19f4330241e9a29d9413b4132d3606a"
                           "b726e4ce9ddaab14e82836aa39c276cd",
            "trace_rep0": "58f99c3140a01cc0c8ac8544ba321f9f"
                          "35ee24416823455340a44f359f326181",
            "trace_rep1": "1ea62370c269cb51f8f049606252e42b"
                          "6f32cca304165e07356d97fe2ed725a2",
            "trace_rep2": "bd49505be4aac37a41394258b9c30f03"
                          "a90032221eaf7c0579726bb943bdbb6d"}),
        "sed-urs": (["--task", "simplified-ed", "--method", "urs",
                     "--budget", "1,3,9,27", "--runs", "7", "--seed", "5"], {
            "shots_curve": "db330ab4bbc9f5a027c3de636c81d852"
                           "f2367a088366714f51b58139b719b768",
            "trace_rep0": "357f5da799d1cf57e5518abe42b52b91"
                          "a140ff0d0ed29035939db834f833a632",
            "trace_rep6": "63e0d3750247dac954a38639bcced552"
                          "91511e5d2f5a2327a1d40c22a1047484"}),
        # 25000 draws: a trace of three blocks
        "edge-long": (["--task", "edge", "--k", "2", "--budget", "25000",
                       "--runs", "1"], {
            "shots_curve": "a8a8bcfa546d6d7bf563355cadaf1627"
                           "d4ec6135efb9f2cc5336f7cb6d791816",
            "trace_rep0": "11cc9226e19a4f6b2d1b6f5a866da9fa"
                          "4a3b4485a8e00d605f16e6bbf13d0d96"}),
    }

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_curves_and_traces_pinned(self, tmp_path, monkeypatch, name):
        # each run is below the thread rule, so none starts on any host
        started = self.spy_threads(monkeypatch, 4)
        flags, want = self.TRACES[name]
        assert run("shots-curve", *flags, "--dump-traces",
                   "--out", str(tmp_path)) == 0
        assert started == []
        for stem, digest in want.items():
            data = (tmp_path / f"{stem}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, stem

    # above the rule: 32 x 2048 = 2^16 shot uniforms per run
    THREADED = ["shots-curve", "--task", "edge", "--k", "4", "--runs", "5",
                "--budget", "1,32", "--eval-shots", "2048", "--dump-traces"]

    @staticmethod
    def spy_threads(monkeypatch, cores):
        """Pretend to have `cores` CPUs; returns the list of threads that
        shots-curve starts."""
        started = []

        class Spy(cli.threading.Thread):
            def start(self):
                started.append(self)
                super().start()
        monkeypatch.setattr(cli, "_cores", lambda: cores)
        monkeypatch.setattr(cli.threading, "Thread", Spy)
        return started

    def test_cores_without_affinity(self, monkeypatch):
        # where the platform has no sched_getaffinity, the CPU count, and
        # one core where even that is unknown
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._cores() == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._cores() == 1

    def test_threaded_runs_match_one_core(self, tmp_path, monkeypatch):
        # 8 cores: a thread per run, more threads than this host may have,
        # switched often, so a lost row or a shared stream would show
        outs = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (None, 1, 3, 8):
                if cores is not None:
                    monkeypatch.setattr(cli, "_cores", lambda: cores)
                outs[cores] = tmp_path / str(cores)
                assert run(*self.THREADED, "--out", str(outs[cores])) == 0
        finally:
            sys.setswitchinterval(interval)
        names = ["shots_curve.csv"] + [f"trace_rep{r}.csv" for r in range(5)]
        for out in outs.values():
            assert read_manifest(out)["outputs"] == names
            for name in names:
                assert (out / name).read_bytes() == \
                    (outs[1] / name).read_bytes(), (out, name)

    @pytest.mark.parametrize("cores, runs, budget, shots, threads", [
        (4, 5, "1,32", 2048, 3),
        (4, 2, "1,32", 2048, 1),   # workers capped at runs
        (1, 5, "1,32", 2048, 0),
        (4, 1, "1,32", 2048, 0),
        (4, 3, "64", 1024, 2),     # exactly 2^16 shots per run
        (4, 3, "63", 1040, 0),     # 65520: just below the rule
        (4, 3, "1,1000", None, 0),  # exact scores
    ])
    def test_threads_start_only_above_the_rule(self, tmp_path, monkeypatch,
                                               cores, runs, budget, shots,
                                               threads):
        started = self.spy_threads(monkeypatch, cores)
        argv = ["shots-curve", "--task", "edge", "--k", "4", "--runs",
                str(runs), "--budget", budget, "--out", str(tmp_path)]
        if shots is not None:
            argv += ["--eval-shots", str(shots)]
        assert run(*argv) == 0
        assert len(started) == threads

    def test_threads_end_with_the_run(self, tmp_path, monkeypatch):
        started = self.spy_threads(monkeypatch, 3)
        before = cli.threading.active_count()
        assert run(*self.THREADED, "--out", str(tmp_path)) == 0
        assert len(started) == 2
        assert cli.threading.active_count() == before

    @pytest.mark.parametrize("rep", [0, 1, 4])
    def test_failed_trace_write_in_any_thread_exits_two(
            self, tmp_path, monkeypatch, capsys, rep):
        # the failing run may be taken by the calling thread or another one
        started = self.spy_threads(monkeypatch, 3)
        write = cli._write

        def failing(path, data):
            if path.name == f"trace_rep{rep}.csv":
                raise cli.ConfigError(f"cannot write {path}: refused")
            return write(path, data)
        monkeypatch.setattr(cli, "_write", failing)
        before = cli.threading.active_count()
        assert run(*self.THREADED, "--out", str(tmp_path)) == 2
        assert len(started) == 2
        assert cli.threading.active_count() == before
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"config error: cannot write {tmp_path}/trace_rep{rep}.csv: "
            "refused"]

    def test_no_run_is_taken_after_a_failure(self, tmp_path, monkeypatch):
        # two threads take runs 0 and 1; run 0 fails while run 1 writes
        # slowly, and then neither thread takes runs 2..4
        self.spy_threads(monkeypatch, 2)
        write = cli._write

        def failing(path, data):
            if path.name == "trace_rep0.csv":
                raise cli.ConfigError(f"cannot write {path}: refused")
            if path.name == "trace_rep1.csv":
                time.sleep(0.2)
            return write(path, data)
        monkeypatch.setattr(cli, "_write", failing)
        assert run(*self.THREADED, "--out", str(tmp_path)) == 2
        assert {p.name for p in tmp_path.glob("trace_rep*.csv")} <= \
            {"trace_rep1.csv"}

    def test_validation(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("shots-curve", "--task", "toy", "--runs", "0",
                   "--out", out) == 2
        assert run("shots-curve", "--task", "toy", "--budget", "0,2",
                   "--out", out) == 2
        assert run("shots-curve", "--task", "toy", "--budget", "x",
                   "--out", out) == 2
        assert run("shots-curve", "--task", "toy", "--eval-shots", "0",
                   "--out", out) == 2

    def test_budget_and_grid_caps(self, tmp_path, capsys):
        # one entry past the cap is refused before anything is allocated,
        # the output directory included
        out = tmp_path / "o"
        cap = cli.MAX_CURVE
        assert run("shots-curve", "--task", "toy", "--budget", f"1,{cap + 1}",
                   "--out", str(out)) == 2
        assert f"above the cap of {cap}" in capsys.readouterr().err
        assert run("shots-curve", "--task", "toy", "--budget", "1,2",
                   "--runs", str(cap // 2 + 1), "--out", str(out)) == 2
        assert f"above the cap of {cap}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_shots_cap(self, tmp_path, capsys):
        # runs x largest budget x eval-shots uniforms just past the cap, or
        # 10^20 shots per candidate, are refused before anything is drawn
        out = tmp_path / "o"
        cap = cli.MAX_SHOTS
        for runs, budget, shots in ((1, "2", 10 ** 20),
                                    (3, "1,4", cap // 12 + 1)):
            assert run("shots-curve", "--task", "edge", "--runs", str(runs),
                       "--budget", budget, "--eval-shots", str(shots),
                       "--out", str(out)) == 2
            assert (f"eval-shots uniforms (runs x budget x eval-shots) are "
                    f"above the cap of {cap}") in capsys.readouterr().err
        assert not out.exists()
        assert run("shots-curve", "--task", "toy", "--runs", "2",
                   "--budget", "1,3", "--eval-shots", "5", "--out",
                   str(out)) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(TASKS), st.sampled_from(["kpd", "urs"]),
           st.integers(-2, 1100),
           st.lists(st.integers(-1, 300), min_size=1, max_size=4),
           st.integers(-1, 4), st.none() | st.integers(-1, 200),
           st.integers(-2, 3) | st.integers(2 ** 52 - 2, 10 ** 400))
    def test_numeric_flags_never_crash(self, tmp_path_factory, task, method,
                                       k, budgets, runs, eval_shots, m):
        out = tmp_path_factory.mktemp("curve")
        argv = ["shots-curve", "--task", task, "--method", method,
                f"--k={k}", "--budget=" + ",".join(map(str, budgets)),
                f"--runs={runs}", f"--branch-m={m}", "--out", str(out)]
        if eval_shots is not None:
            argv.append(f"--eval-shots={eval_shots}")
        code = run(*argv)
        assert code in (0, 2, 3)
        if code == 0:
            rows = (out / "shots_curve.csv").read_text().splitlines()[1:]
            assert [int(r.split(",")[0]) for r in rows] == sorted(set(budgets))
            assert all(0 <= float(v) <= 1 for r in rows
                       for v in r.split(",")[1:])


class TestVerifyOracle:
    def test_report_and_deviation(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("verify-oracle", "--out", str(out)) == 0
        text = (out / "verify_oracle.txt").read_text()
        lines = [ln for ln in text.splitlines() if ln.startswith("instance=")]
        assert [ln.split()[0] for ln in lines] == ["instance=toy",
                                                   "instance=simplified-ed"]
        for ln in lines:
            fields = dict(tok.split("=") for tok in ln.split())
            assert float(fields["max_deviation"]) < 1e-9
            assert float(fields["norm_drift"]) < 1e-9
            assert fields["measured_weight"].isdigit()
            assert fields["g"] == "1" and fields["residual"] == "1"
        assert "worst deviation" in capsys.readouterr().out

    # sha256 of both dumps: toy's recorded while each row was still
    # formatted on its own, simplified-ed's since its unmarked rows print
    # the exact 0 (see test_simplified_ed_dump_values)
    DUMPS = {
        "toy":
        "d47887b7b013b118731443e7b735e3e10e55c6495bd64f08836f6f52f07b6359",
        "simplified-ed":
        "a0e7e1c4b349d196bfca0d3ce6ce1a7f1771a8fa8f86d9846f1a3be00af65982"}

    # sha256 of verify_oracle.txt at seed 0, recorded while measured_weight
    # was drawn with Generator.choice
    REPORT = "1f04fd0ed0bfe9667a8d2517de310cfbbaa2d2e513a19f6d80e847ba4c63c330"

    def test_report_pinned(self, tmp_path):
        assert run("verify-oracle", "--seed", "0", "--out", str(tmp_path)) == 0
        data = (tmp_path / "verify_oracle.txt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.REPORT

    def test_statevector_dump(self, tmp_path):
        out = tmp_path / "o"
        assert run("verify-oracle", "--dump-statevector",
                   "--out", str(out)) == 0
        for name, want in self.DUMPS.items():
            data = (out / f"statevector_{name}.csv").read_bytes()
            assert data.splitlines()[0] == b"basis_index,re,im"
            assert hashlib.sha256(data).hexdigest() == want

    def test_simplified_ed_dump_values(self, tmp_path):
        # at residual 1 one round moves all the mass onto the 3200 marked
        # states: each holds 2 / sqrt(12800) and each of the 9600 unmarked
        # ones exactly 0, as do the basis states off the support
        assert run("verify-oracle", "--dump-statevector",
                   "--out", str(tmp_path)) == 0
        rows = (tmp_path / "statevector_simplified-ed.csv").read_text(
            ).splitlines()[1:]
        amp = np.array([r.split(",")[1] for r in rows])
        bundle = load_task("simplified-ed")
        plan = am.make_plan(am.accuracy_table(bundle.model, bundle.train), 1)
        _, state, _ = sv.grover_run(bundle.model, bundle.train, 1, plan.g,
                                    plan.n_aux, return_state=True)
        idx, mark = state.support()
        marked, unmarked = idx[mark], idx[~mark]
        assert (len(marked), len(unmarked)) == (3200, 9600)
        assert np.all(amp[marked] == "0.0176776695297")
        assert np.all(amp[unmarked] == "0")
        off = np.ones(len(amp), bool)
        off[idx] = False
        assert np.all(amp[off] == "0")

    def test_report_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("verify-oracle", "--out", str(out)) == 0
        assert (a / "verify_oracle.txt").read_bytes() == \
            (b / "verify_oracle.txt").read_bytes()


class TestTheory:
    def test_line_task_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("theory", "--task", "edge", "--epsilons", "0",
                   "--k-max", "4", "--out", str(out)) == 0
        lines = (out / "theory.csv").read_text().splitlines()
        assert lines[0] == "epsilon,alpha,beta,C,k,bound_value,k_star"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert float(first[1]) == 1 / 64
        assert float(first[2]) == pytest.approx(1 / 255, abs=1e-15)
        assert float(first[3]) == 4.0
        assert float(first[5]) == pytest.approx(128.0, abs=1e-9)
        assert first[6] == "4"
        printed = capsys.readouterr().out
        assert "condition_holds=True" in printed
        assert "cannot help" not in printed  # alpha > beta here

    def test_multiple_epsilons(self, tmp_path):
        out = tmp_path / "o"
        assert run("theory", "--task", "simplified-ed", "--epsilons",
                   "0,0.25", "--k-max", "3", "--out", str(out)) == 0
        lines = (out / "theory.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_degenerate_ratio_reason_on_stdout(self, tmp_path, capsys):
        # toy has alpha = beta = 1 at every epsilon that leaves a weight out
        assert run("theory", "--task", "toy", "--epsilons", "0,0.5",
                   "--out", str(tmp_path)) == 0
        got = capsys.readouterr()
        assert got.err == ""
        lines = got.out.splitlines()
        assert [ln.split(":")[0] for ln in lines[:2]] == ["epsilon=0",
                                                           "epsilon=0.5"]
        assert all(ln.endswith("k_star=1 condition_holds=False (alpha <= "
                               "beta: parallel copies cannot help)")
                   for ln in lines[:2])

    # sha256 of theory.csv, recorded while the rows were held as tuples,
    # the set of epsilon-optimal weights was a list of indices, and the
    # file was joined into one string
    PINS = {
        "edge": ("1b3b7233b75869e05027c7c5d5304cf2"
                 "e07228499cdbcab7901ad32210f97247",
                 ["--task", "edge", "--epsilons", "0,0.05,0.3",
                  "--k-max", "40"]),
        "toy": ("85bcef15fb139b8c0627a0b15dd7f4fd"
                "4d2e093616f1b0f9422634e68ea6e842",
                ["--task", "toy", "--epsilons", "0,0.5", "--k-max", "3000"]),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_rows_pinned(self, tmp_path, name):
        want, flags = self.PINS[name]
        assert run("theory", *flags, "--out", str(tmp_path)) == 0
        data = (tmp_path / "theory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want

    def test_validation(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("theory", "--task", "edge", "--epsilons", "-1",
                   "--out", out) == 2
        assert run("theory", "--task", "edge", "--k-max", "0",
                   "--out", out) == 2
        assert run("theory", "--task", "edge", "--epsilons", "zero",
                   "--out", out) == 2
        capsys.readouterr()
        # epsilon 1 leaves no weight out; at 0.8 more are in than out
        for eps, why in (("1", "every weight is epsilon-optimal"),
                         ("0.8", "beta = 6.75758 > 1")):
            assert run("theory", "--task", "edge", "--epsilons", eps,
                       "--out", out) == 2
            assert why in capsys.readouterr().err

    def test_row_cap(self, tmp_path, capsys):
        # one row past the cap is refused before anything is allocated, the
        # output directory included
        out = tmp_path / "o"
        cap = cli.MAX_ROWS
        assert run("theory", "--task", "toy", "--epsilons", "0,0.5",
                   "--k-max", str(cap // 2 + 1), "--out", str(out)) == 2
        assert (f"rows (epsilons x k-max) are above the cap of {cap}"
                in capsys.readouterr().err)
        assert not out.exists()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(TASKS), st.integers(-2, 12),
           st.lists(st.floats(-0.1, 1.1) | st.floats()
                    | st.sampled_from(["x", ""]), min_size=1, max_size=3))
    def test_numeric_flags_never_crash(self, tmp_path_factory, task, k_max,
                                       epsilons):
        out = tmp_path_factory.mktemp("theory")
        code = run("theory", "--task", task, f"--k-max={k_max}",
                   "--epsilons=" + ",".join(map(str, epsilons)),
                   "--out", str(out))
        assert code in (0, 2, 3)
        if code == 0:
            rows = (out / "theory.csv").read_text().splitlines()[1:]
            assert len(rows) == k_max * len([e for e in epsilons if e != ""])


class TestConfigFile:
    def test_file_values_apply_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=edge\n"
                       "k=4  # four parallel copies\n"
                       "\n"
                       "strict-ratio-theta=false\n")
        out_a = tmp_path / "a"
        assert run("--config", str(cfg), "distribution",
                   "--out", str(out_a)) == 0
        man = read_manifest(out_a)
        assert man["config"]["task"] == "edge"
        assert man["config"]["k"] == 4
        out_b = tmp_path / "b"
        assert run("--config", str(cfg), "distribution", "--k", "1",
                   "--out", str(out_b)) == 0
        assert read_manifest(out_b)["config"]["k"] == 1

    def test_keys_for_other_commands_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=toy\nbudget=1,2\n")
        out = tmp_path / "o"
        assert run("--config", str(cfg), "gen-data", "--out", str(out)) == 0
        assert read_manifest(out)["config"]["task"] == "toy"

    def test_bad_config_files(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        assert run("--config", str(cfg), "gen-data", "--out", out) == 2
        cfg.write_text("just a line\n")
        assert run("--config", str(cfg), "gen-data", "--out", out) == 2
        for text in ("k=three", "pad=many", "budget=x", "epsilons=x"):
            cfg.write_text(text + "\n")
            assert run("--config", str(cfg), "distribution",
                       "--out", out) == 2
            # a key is checked by its flag even where the command lacks it
            assert run("--config", str(cfg), "gen-data", "--out", out) == 2
        cfg.write_text("help=1\n")
        assert run("--config", str(cfg), "gen-data", "--out", out) == 2
        assert run("--config", str(tmp_path / "absent.cfg"), "gen-data",
                   "--out", out) == 2

    @pytest.mark.parametrize("key", ["split", "method", "task"])
    def test_values_outside_a_flags_choices(self, tmp_path, capsys, key):
        argv = {"split": ["jtable", "--task", "toy"],
                "method": ["shots-curve", "--task", "toy"],
                "task": ["jtable"]}[key]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=bogus\n")
        assert run("--config", str(cfg), *argv,
                   "--out", str(tmp_path / "o")) == 2
        assert f"{key}='bogus'" in capsys.readouterr().err

    def test_boolean_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dump-statevector=yes\n")
        out = tmp_path / "o"
        assert run("--config", str(cfg), "verify-oracle",
                   "--out", str(out)) == 0
        assert (out / "statevector_toy.csv").exists()
        cfg.write_text("dump-statevector=maybe\n")
        assert run("--config", str(cfg), "verify-oracle",
                   "--out", str(out)) == 2


class TestParserSurface:
    def test_unknown_task_and_method_are_parse_errors(self, tmp_path,
                                                      capsys):
        assert run("jtable", "--task", "imagenet") == 2
        assert "config error: argument --task" in capsys.readouterr().err
        assert run("shots-curve", "--method", "annealing") == 2
        assert "config error: argument --method" in capsys.readouterr().err

    def test_command_is_required(self, capsys):
        assert run() == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("--help")
        assert e.value.code == 0
        assert "shots-curve" in capsys.readouterr().out

    def test_back_to_back_commands_match_separate_processes(self, tmp_path):
        # one parser serves every call of a process; two subcommands run in
        # turn write what each writes alone in a fresh process
        calls = {"curve": ["shots-curve", "--task", "edge", "--k", "4",
                           "--runs", "5", "--eval-shots", "9"],
                 "dist": ["distribution", "--task", "toy", "--shots", "500"]}
        names = {"curve": "shots_curve.csv", "dist": "distribution.csv"}
        for key, argv in calls.items():
            assert run(*argv, "--out", str(tmp_path / "in" / key)) == 0
            subprocess.run([sys.executable, "-m", "grovertrain.cli", *argv,
                            "--out", str(tmp_path / "alone" / key)],
                           env=console_env(), check=True, timeout=120,
                           capture_output=True)
            assert ((tmp_path / "in" / key / names[key]).read_bytes()
                    == (tmp_path / "alone" / key / names[key]).read_bytes())

    def test_repeated_calls_leave_no_parser_garbage(self, tmp_path):
        # the parser is built once; later calls leave no argparse object in
        # a reference cycle for the garbage collector to find
        argv = ["theory", "--task", "edge", "--out", str(tmp_path)]
        assert run(*argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                assert run(*argv) == 0
            gc.collect()
            kinds = (argparse.ArgumentParser, argparse.Action,
                     argparse._ArgumentGroup)
            left = [o for o in gc.garbage if isinstance(o, kinds)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_commands_are_looked_up_when_a_run_starts(self, tmp_path,
                                                      monkeypatch):
        # the parser outlives a call, so a command function replaced after
        # it was built (a wrapper that times it, say) is the one that runs
        assert run("theory", "--task", "edge", "--out", str(tmp_path)) == 0
        original, seen = cli.cmd_theory, []

        def wrapped(args, out, lap):
            seen.append(args.command)
            return original(args, out, lap)

        monkeypatch.setattr(cli, "cmd_theory", wrapped)
        assert run("theory", "--task", "edge", "--out", str(tmp_path)) == 0
        assert seen == ["theory"]

    def test_every_subcommand_has_a_command_function(self):
        # main finds a command's function by its name when the run starts,
        # so a missing one would otherwise show only when that command runs
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 6
        for name in sub.choices:
            assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))

    def test_shared_flags_agree_across_subcommands(self):
        # a config value is typed by the first flag with its dest and then
        # becomes the default of every subcommand that has that dest
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        by_dest = {}
        for sp in sub.choices.values():
            for a in sp._actions:
                by_dest.setdefault(a.dest, []).append(a)
        shared = {d: acts for d, acts in by_dest.items() if len(acts) > 1}
        assert {"task", "seed", "out", "k", "pad", "branch_m",
                "strict_ratio_theta"} <= set(shared)
        for dest, acts in shared.items():
            first = acts[0]
            for a in acts[1:]:
                assert a.type is first.type, dest
                assert a.default == first.default, dest
                assert a.choices == first.choices, dest


class TestRunLimits:
    """Every size flag is checked against its cap in one table in main,
    whether its value comes from a flag or from a --config file."""

    LIMITS = {
        "budget": ("shots-curve", {"budget": f"1,{cli.MAX_CURVE + 1}"}),
        "grid": ("shots-curve", {"budget": "1,2",
                                 "runs": cli.MAX_CURVE // 2 + 1}),
        "shots": ("distribution", {"shots": cli.MAX_SHOTS + 1}),
        "eval-shots": ("shots-curve", {"runs": 3, "budget": "1,4",
                                       "eval-shots": cli.MAX_SHOTS // 12 + 1}),
        "rows": ("theory", {"epsilons": "0,0.5",
                            "k-max": cli.MAX_ROWS // 2 + 1}),
        "k": ("distribution", {"k": cli.MAX_K + 1}),
        "k-urs": ("shots-curve", {"method": "urs", "k": cli.MAX_K + 1}),
        "pad": ("distribution", {"pad": cli.MAX_PAD + 1}),
    }

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("limit", list(LIMITS))
    def test_each_cap_refuses_before_the_output_directory(
            self, tmp_path, capsys, limit, source):
        command, values = self.LIMITS[limit]
        if source == "flags":
            argv = [command] + [t for key, v in values.items()
                                for t in (f"--{key}", str(v))]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv = ["--config", str(cfg), command]
        out = tmp_path / "o"
        assert run(*argv, "--task", "toy", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "are above the cap of" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags, code", [
        (["--pad", str(cli.MAX_PAD)], 0),
        (["--k", str(cli.MAX_K)], 3),  # toy's solution ratio underflows
    ])
    def test_caps_are_inclusive(self, tmp_path, flags, code):
        assert run("distribution", "--task", "toy", *flags,
                   "--out", str(tmp_path / "o")) == code


class TestOutputDirectory:
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("a regular file\n")
        assert run("gen-data", "--task", "toy",
                   "--out", str(blocker / "sub")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot create output directory")

    @pytest.mark.parametrize("blocked", ["jtable.csv", "run_manifest.json"])
    def test_unwritable_output_file_exits_two(self, tmp_path, capsys,
                                              blocked):
        out = tmp_path / "D"
        (out / blocked).mkdir(parents=True)
        assert run("jtable", "--task", "toy", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / blocked}")

    def test_rejected_flag_creates_no_directory(self, tmp_path):
        out = tmp_path / "D"
        for argv in (["distribution", "--k", "0"],
                     ["shots-curve", "--budget", "x"],
                     ["theory", "--epsilons", "x"],
                     ["distribution", "--pad", "many"]):
            assert run(*argv, "--out", str(out)) == 2
            assert not out.exists()

    def test_default_directory_is_named_after_the_command(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gen-data", "--task", "toy") == 0
        assert read_manifest(tmp_path / "runs" / "gen-data")["command"] == \
            "gen-data"


class TestManifestStages:
    @pytest.mark.parametrize("argv, stages", [
        (["gen-data", "--task", "toy"], {"load", "write"}),
        (["jtable", "--task", "edge"], {"load", "table", "write"}),
        (["distribution", "--task", "edge", "--k", "4"],
         {"load", "table", "plan", "evolve", "write"}),
        (["shots-curve", "--task", "edge", "--k", "4", "--dump-traces"],
         {"load", "table", "plan", "evolve", "search", "write"}),
        (["shots-curve", "--task", "edge", "--method", "urs"],
         {"load", "table", "search", "write"}),
        # two threads: their trace writes are charged to search
        (TestShotsCurve.THREADED,
         {"load", "table", "plan", "evolve", "search", "write"}),
        (["verify-oracle"],
         {"load", "table", "plan", "evolve", "simulate", "write"}),
        (["theory", "--task", "edge"], {"load", "table", "bounds", "write"}),
    ], ids=["gen-data", "jtable", "distribution", "shots-curve-kpd",
            "shots-curve-urs", "shots-curve-threaded", "verify-oracle",
            "theory"])
    def test_stage_seconds_and_peak_memory(self, tmp_path, monkeypatch, argv,
                                           stages):
        monkeypatch.setattr(cli, "_cores", lambda: 2)
        out = tmp_path / "o"
        assert run(*argv, "--out", str(out)) == 0
        man = read_manifest(out)
        assert set(man["stages"]) == stages
        assert all(v >= 0 for v in man["stages"].values())
        assert sum(man["stages"].values()) <= man["wall_time_s"] + 1e-3
        assert man["peak_rss_mb"] > 0


    def test_other_threads_record_nothing(self):
        # a call from another thread returns its value and records nothing;
        # the owner's next call charges it the time that thread took
        lap, got = cli._Stages(), []

        def other():
            time.sleep(0.05)
            got.append(lap("other", 7))
        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == [7] and lap.seconds == {}
        assert lap("search", "v") == "v"
        assert list(lap.seconds) == ["search"]
        assert lap.seconds["search"] >= 0.05


class TestLargeOutputsPinned:
    """sha256 of the 2^20-row CSVs of synthetic tiny-mnist, recorded before
    the writers streamed their blocks; any byte that moves shows here."""

    JTABLE = "c77d864049744d1d577e9823abf5bb5e73555000d0dcd80fa2676c1fb67fa75f"
    DISTRIBUTION = \
        "eb5c282fc3a41dd4a15c4e26910d032be12f43b8d0b1f1c5b6f3610fd2c8a67f"
    # recorded while shots-curve still built the full 2^20-weight test table
    SHOTS_CURVE = \
        "38d2e6231953f07b1589bf8b258221b5f351c3d90601ff53453ba4950c2449aa"

    def test_jtable_and_distribution_k8(self, tmp_path):
        idx = make_synthetic_idx_dir(tmp_path / "idx")
        common = ["--task", "tiny-mnist", "--mnist-dir", str(idx)]
        assert run("jtable", *common, "--out", str(tmp_path / "j")) == 0
        assert run("distribution", "--k", "8", *common,
                   "--out", str(tmp_path / "d")) == 0
        for path, want in ((tmp_path / "j" / "jtable.csv", self.JTABLE),
                           (tmp_path / "d" / "distribution.csv",
                            self.DISTRIBUTION)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_shots_curve_k8(self, tmp_path):
        idx = make_synthetic_idx_dir(tmp_path / "idx")
        assert run("shots-curve", "--task", "tiny-mnist", "--mnist-dir",
                   str(idx), "--k", "8", "--runs", "20",
                   "--budget", "1,4,16,64,256", "--out", str(tmp_path)) == 0
        data = (tmp_path / "shots_curve.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SHOTS_CURVE


class TestBlockWriter:
    """cli._write builds and writes a CsvBlocks table on every core, each
    block at its own offset."""

    @pytest.fixture(scope="class")
    def idx(self, tmp_path_factory):
        return make_synthetic_idx_dir(tmp_path_factory.mktemp("idx"))

    def test_outputs_match_at_any_worker_count(self, idx, tmp_path,
                                               monkeypatch):
        # the pinned 2^20-row files and statevector dumps, at 1 to 8
        # workers, with the threads switched often
        pins = [("j", "jtable.csv", TestLargeOutputsPinned.JTABLE),
                ("d", "distribution.csv",
                 TestLargeOutputsPinned.DISTRIBUTION)]
        pins += [("v", f"statevector_{name}.csv", want)
                 for name, want in TestVerifyOracle.DUMPS.items()]
        common = ["--task", "tiny-mnist", "--mnist-dir", str(idx)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for cores in (1, 2, 3, 8):
                monkeypatch.setattr(cli, "_cores", lambda: cores)
                out = tmp_path / str(cores)
                assert run("jtable", *common, "--out", str(out / "j")) == 0
                assert run("distribution", "--k", "8", *common,
                           "--out", str(out / "d")) == 0
                assert run("verify-oracle", "--dump-statevector",
                           "--out", str(out / "v")) == 0
                for sub, name, want in pins:
                    data = (out / sub / name).read_bytes()
                    assert hashlib.sha256(data).hexdigest() == want, \
                        (cores, name)
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_tables_start_no_thread(self, tmp_path, monkeypatch):
        started = TestShotsCurve.spy_threads(monkeypatch, 8)
        assert run("jtable", "--task", "edge", "--out", str(tmp_path)) == 0
        toy = load_task("toy")
        plan = am.make_plan(am.accuracy_table(toy.model, toy.train), 1)
        _, state, _ = sv.grover_run(toy.model, toy.train, plan.k, plan.g,
                                    plan.n_aux, return_state=True)
        dump = sv.statevector_csv(state)
        assert len(dump) == 1
        cli._write(tmp_path / "statevector_toy.csv", dump)
        assert started == []

    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_large_tables_start_a_thread_per_other_core(
            self, idx, tmp_path, monkeypatch, cores):
        started = TestShotsCurve.spy_threads(monkeypatch, cores)
        before = cli.threading.active_count()
        assert run("jtable", "--task", "tiny-mnist", "--mnist-dir", str(idx),
                   "--out", str(tmp_path)) == 0
        assert len(started) == cores - 1  # 105 blocks, more than the cores
        assert cli.threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_failed_block_write_exits_two(self, idx, tmp_path, monkeypatch,
                                          capsys, where, cores):
        # the other blocks are written slowly, so in the moment the failing
        # write takes to be reported each other thread can take one block
        # at most; none is taken after that
        started = TestShotsCurve.spy_threads(monkeypatch, cores)
        tables, built, failed_at = [], [], []
        build, pwrite = am.CsvBlocks.build, cli._pwrite

        def spy_build(table, i):
            tables.append(table)
            built.append(i)
            return build(table, i)

        def failing(fd, data, offset):
            table = tables[0] if tables else None  # none for the head
            if table is not None and offset in table.offsets:
                n = len(table)
                if table.offsets.index(offset) == {
                        "first": 0, "middle": n // 2, "last": n - 1}[where]:
                    failed_at.append(len(built))
                    raise OSError(errno.ENOSPC, "No space left on device")
                if cores > 1:
                    time.sleep(0.01)
            pwrite(fd, data, offset)
        monkeypatch.setattr(am.CsvBlocks, "build", spy_build)
        monkeypatch.setattr(cli, "_pwrite", failing)
        before = cli.threading.active_count()
        assert run("jtable", "--task", "tiny-mnist", "--mnist-dir", str(idx),
                   "--out", str(tmp_path)) == 2
        assert len(started) == cores - 1
        assert cli.threading.active_count() == before
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"config error: cannot write {tmp_path / 'jtable.csv'}: "
            "[Errno 28] No space left on device"]
        assert len(failed_at) == 1
        assert len(built) - failed_at[0] <= cores - 1
        if cores == 1:  # blocks are taken in order, up to the failing one
            assert built == list(range(failed_at[0]))


class TestConsoleEntry:
    """`python -m grovertrain.cli` goes through sys.exit(main())."""

    @pytest.mark.parametrize("case", ["bad-flag", "config-choice",
                                      "unwritable-out", "huge-budget",
                                      "huge-runs", "huge-shots",
                                      "huge-theory", "huge-k", "huge-pad",
                                      "config-huge-k", "config-not-utf8",
                                      "idx-is-a-directory"])
    def test_bad_input_exits_two_with_one_line(self, tmp_path, case):
        (tmp_path / "F").write_text("a regular file\n")
        (tmp_path / "bad.cfg").write_text("split=bogus\n")
        (tmp_path / "latin.cfg").write_bytes(b"k=\xff\xfe2\n")
        (tmp_path / "k.cfg").write_text("k=70000\n")
        (tmp_path / "d" / "train-images-idx3-ubyte").mkdir(parents=True)
        argv = {"bad-flag": ["distribution", "--k", "three"],
                "config-choice": ["--config", "bad.cfg", "jtable"],
                "config-not-utf8": ["--config", "latin.cfg", "distribution",
                                    "--task", "toy"],
                "idx-is-a-directory": ["jtable", "--task", "tiny-mnist",
                                       "--mnist-dir", "d"],
                "unwritable-out": ["gen-data", "--task", "toy",
                                   "--out", "F/sub"],
                "huge-budget": ["shots-curve", "--task", "toy",
                                "--budget", "10000000000"],
                "huge-runs": ["shots-curve", "--task", "toy",
                              "--runs", "100000000000"],
                "huge-shots": ["distribution", "--task", "toy",
                               "--shots", "100000000000000"],
                "huge-theory": ["theory", "--task", "toy",
                                "--k-max", "100000000"],
                "huge-k": ["distribution", "--task", "edge",
                           "--k", "1000000"],
                "huge-pad": ["distribution", "--task", "edge", "--k",
                             "65536", "--pad", str(10 ** 300)],
                "config-huge-k": ["--config", "k.cfg", "distribution",
                                  "--task", "edge"]}[case]
        proc = subprocess.run([sys.executable, "-m", "grovertrain.cli",
                               *argv], cwd=tmp_path, env=console_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")


DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("0*.py"))


class TestDemos:
    def test_all_five_are_found(self):
        assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]

    # demos 01, 02 and 05 call make_plan, evolve_distribution,
    # sample_weights and search directly
    @pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
    def test_demo_runs_clean(self, tmp_path, demo):
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                              env=console_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout
