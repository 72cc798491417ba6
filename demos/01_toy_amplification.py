"""Smallest end-to-end walkthrough: amplify the weight register of a
one-weight, one-input model and watch the good weight take over.

The toy model computes XOR(w0, x0) over a two-sample dataset. Weight 0 gets
one prediction right, weight 1 gets both. The closed-form evolution and the
full statevector simulator must tell the same story; at the end we draw
simulated measurements and count how often the better weight comes up.
"""

import numpy as np

from grovertrain import amplify as am
from grovertrain import statevec as sv
from grovertrain import tasks


def main():
    bundle = tasks.load_task("toy")
    model, train = bundle.model, bundle.train
    print(f"model: {model.weight_width} weight bit(s), "
          f"{model.input_width} input bit(s), "
          f"{model.output_width} output bit(s)")
    for x, y in zip(train.x.tolist(), train.y.tolist()):
        print(f"  sample x={tuple(x)} y={tuple(y)}")

    table = am.accuracy_table(model, train)
    print("\nexact accuracy per weight:")
    for w, c in enumerate(table.counts):
        print(f"  w={w}: {c}/{table.n_samples} correct")

    plan = am.make_plan(table, k=1)
    print(f"\nplan: pad {plan.n_aux} auxiliary samples, "
          f"theta={plan.theta:.6f}, g={plan.g} iteration(s), "
          f"residual={plan.residual:.6f}, "
          f"leakage bound {plan.leakage_bound:.3e}")

    dist = am.evolve_distribution(table, plan)
    marg = sv.grover_run(model, train, k=1, g=plan.g, n_aux=plan.n_aux)
    print("\nweight probabilities after amplification:")
    for w in range(len(dist)):
        print(f"  w={w}: closed form {dist.p[w]:.6f}, "
              f"statevector {marg[w]:.6f}")
    print(f"max deviation: {np.max(np.abs(dist.p - marg)):.3e}")

    rng = np.random.default_rng(42)
    draws = am.sample_weights(dist, 200, rng)
    freq = np.bincount(draws, minlength=len(dist)) / len(draws)
    print("\n200 simulated measurements:")
    for w in range(len(dist)):
        print(f"  w={w}: measured {freq[w]:.3f} (expected {dist.p[w]:.3f})")


if __name__ == "__main__":
    main()
