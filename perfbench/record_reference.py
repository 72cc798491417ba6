"""Rewrite perfbench/reference.json from the package in `src`.

    PYTHONPATH=src python3 perfbench/record_reference.py

It records the outputs that no seed changes and that `refcheck` does not
re-derive: the columns of `theory --task edge --k-max 8` and the qubit count
of each k-copy cross-check instance. Run it only when a change of those
outputs is intended.
"""
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from grovertrain import amplify, cli, statevec, tasks
from workload import KcopyCrosscheck

HERE = Path(__file__).resolve().parent

with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
    if cli.main(["theory", "--task", "edge", "--k-max", "8",
                 "--out", tmp]) != 0:
        raise SystemExit("theory --task edge failed")
    lines = (Path(tmp) / "theory.csv").read_text().splitlines()
header = lines[0].split(",")
rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
theory = {h: rows[:, i].tolist() for i, h in enumerate(header)}

qubits = {}
for task, k, m in KcopyCrosscheck.INSTANCES:
    b = tasks.load_task(task)
    plan = amplify.make_plan(amplify.accuracy_table(b.model, b.train), k, m=m)
    layout = statevec.prepare_initial(b.model, b.train, k, plan.n_aux)[1]
    qubits[f"{task}:k={k}:m={m}"] = layout.n_qubits

(HERE / "reference.json").write_text(json.dumps(
    {"edge_theory": theory, "kcopy_qubits": qubits}, indent=1) + "\n")
