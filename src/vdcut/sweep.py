"""Gate-count overhead study: CNOT counts of routed original circuits versus
their routed distillation circuits across qubit counts, layer counts and
coupling topologies.  Each count is that of the body that
:func:`~vdcut.runner.compile_circuit` builds without noise or folding."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import real_amplitudes
from .circuit import CNOT
from .runner import compile_circuit
from .transpile import coupling_map_for
from .vd import build_vd_circuit


@dataclass(frozen=True)
class SweepRow:
    n: int
    layers: int
    map_spec: str
    cnot_original: int
    cnot_vd: int

    @property
    def cnot_extra(self) -> int:
        return self.cnot_vd - self.cnot_original


def overhead_point(n: int, layers: int, map_spec: str) -> SweepRow:
    ansatz = real_amplitudes(n, reps=layers)
    cmap = coupling_map_for(map_spec, 2 * n)
    original, vd = (compile_circuit(c, cmap=cmap).body.count(CNOT)
                    for c in (ansatz, build_vd_circuit(ansatz)))
    return SweepRow(n, layers, map_spec, original, vd)


def overhead_sweep(qubits: Iterable[int], layers: Iterable[int],
                   map_spec: str) -> list[SweepRow]:
    return [overhead_point(n, reps, map_spec) for n in qubits for reps in layers]


def growth_exponent(rows: Sequence[SweepRow]) -> float:
    """Least-squares power-law exponent of extra CNOTs versus qubit count."""
    ns = np.array([r.n for r in rows], dtype=float)
    extra = np.array([max(r.cnot_extra, 1) for r in rows], dtype=float)
    design = np.vstack([np.ones_like(ns), np.log(ns)]).T
    coef, *_ = np.linalg.lstsq(design, np.log(extra), rcond=None)
    return float(coef[1])


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "layers", "map", "cnot_original", "cnot_vd", "cnot_extra"])
        for r in rows:
            writer.writerow([r.n, r.layers, r.map_spec, r.cnot_original,
                             r.cnot_vd, r.cnot_extra])
