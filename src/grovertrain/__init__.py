"""Gradient-free training of Boolean reversible models by amplitude
amplification, simulated two ways: a closed-form evolution over exact
accuracy tables and a statevector simulator, which must agree.

Modules:
    boolcirc  Boolean circuit IR, exact correct counts for every weight
              (contracted at the weight groups), reversible compilation to
              X/CNOT/multi-controlled-X gates.
    datasets  Input and label bit arrays: line images, IDX digits at 3x3.
    amplify   Amplification planning (angle, iterations, padding), the
              closed-form evolved weight distribution, and the one search
              kernel (sample, score exactly or by shots, best so far).
    statevec  Statevector simulation of the same pipeline, stored on the
              basis states it can reach with real amplitudes: model gates
              on each copy's slice, the oracle as one sign read off the
              label and prediction bits in place, the reflection as
              inversion about the mean.
    theory    Query-count calculators and the best-parallel-copies rule
              with its brute-force validator.
    tasks     Named model+dataset bundles with fixed splits.
    cli       Experiment runner (entry point: grovertrain).
"""

__version__ = "0.1.0"

from . import amplify, boolcirc, datasets, statevec, tasks, theory
from .amplify import (AccuracyTable, DegenerateAngleError, GroverPlan,
                      WeightDistribution, accuracy_table, evolve_distribution,
                      grover_iterations, make_plan, pad_auxiliary,
                      sample_weights, search, theta_exact, theta_shots)
from .boolcirc import (Gate, GateList, ModelCircuit, RGate, compile_circuit,
                       correct_counts, edge_detection_model, eval_circuit,
                       simplified_ed_model, tiny_mnist_model, toy_xor_model)
from .datasets import (Dataset, gen_edge_detection, gen_simplified_ed,
                       make_tiny_mnist, parse_idx, split, write_idx)
from .statevec import (QuantumState, grover_run, oracle_sign,
                       prepare_initial, reflect)
from .tasks import TaskBundle, load_task
from .theory import (alpha_beta, brute_force_optimal_k, optimal_k,
                     queries_1pd, queries_kpd)
