"""Regenerate ``ring5_params.json``, the fixed ansatz parameters of the
``dense-ring5`` workload.

The workload keeps the optimizer out of its timed passes, so its parameters
are produced once by the call recorded in ``CALL`` and stored as data.

    python3 perfbench/make_ring5_params.py
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from vdcut import AnsatzSpec, evolve, expectation, maxcut_hamiltonian, optimize_parameters, ring_problem  # noqa: E402

CALL = ("optimize_parameters(ring_problem(5), AnsatzSpec(5, reps=2, entanglement='circular'), "
        "seed=0, restarts=6, maxiter=400)")


def main() -> None:
    problem = ring_problem(5)
    ansatz = AnsatzSpec(5, reps=2, entanglement="circular")
    theta = optimize_parameters(problem, ansatz, seed=0, restarts=6, maxiter=400)
    cut = expectation(evolve(ansatz.circuit(theta)), maxcut_hamiltonian(problem))
    doc = {
        "call": CALL,
        "problem": {"ring": 5},
        "reps": 2,
        "entanglement": "circular",
        "noiseless_cut": cut,
        "parameters": [float(v) for v in theta],
    }
    (HERE / "ring5_params.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"noiseless cut value {cut!r}")


if __name__ == "__main__":
    main()
