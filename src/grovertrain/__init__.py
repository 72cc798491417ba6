"""Gradient-free training of Boolean reversible models by amplitude
amplification, simulated two ways: a closed-form evolution over exact
accuracy tables and a statevector simulator, which must agree.

Modules (`import grovertrain` binds each but cli, and no name from them):
    boolcirc  Boolean circuit IR, exact correct counts for every weight
              (contracted at the weight groups), reversible compilation to
              X/CNOT/multi-controlled-X gates.
    datasets  Input and label bit arrays: line images, IDX digits at 3x3.
    amplify   Amplification planning (angle, iterations, padding), the
              closed-form evolved weight distribution, and the one search
              kernel (sample, score exactly or by shots, best so far).
    statevec  Statevector simulation of the same pipeline on the basis
              states it can reach: one marked count per weight (c^k, for
              c correct samples) and two real amplitudes, one on the marked
              states and one on the rest; model gates bit-sliced on packed
              planes, a row per data state with eight weights a byte
              (boolcirc's layout), per block of weights, checked to restore
              every qubit but the predictions; the reflection as inversion
              about the exact mean; the support's basis indices built only
              for dumps and tests, up to MAX_SUPPORT of them.
    theory    Query-count calculators and the best-parallel-copies rule
              with its brute-force validator.
    tasks     Named model+dataset bundles with fixed splits.
    cli       Experiment runner (entry point: grovertrain).
"""

__version__ = "0.1.0"

from . import amplify, boolcirc, datasets, statevec, tasks, theory
