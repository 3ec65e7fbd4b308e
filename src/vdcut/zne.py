"""Zero-noise extrapolation over folded diagonalizing gates: each
``diag``-tagged gate G becomes G (G' G)^(scale-1)/2 with G' its adjoint, so
the noiseless unitary is unchanged while the gate noise is amplified; a
linear fit over the measured scales extrapolates to zero noise."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import TWO_QUBIT_UNITARY, Circuit, Gate, two_qubit
from .vd import DIAG_TAG


class FoldingError(ValueError):
    pass


def fold_diagonalizing(circuit: Circuit, scale: int) -> Circuit:
    """Replace every ``diag``-tagged gate G by G followed by (scale-1)/2
    adjoint pairs (G^dag G); only diagonalizing gates are folded."""
    if scale < 1 or scale % 2 == 0:
        raise FoldingError(f"scale must be an odd positive integer, got {scale}")
    diags = [g for g in circuit.ops if g.tag == DIAG_TAG]
    if not diags:
        raise FoldingError("circuit contains no diag-tagged gates to fold")
    if scale == 1:
        return circuit
    ops: list[Gate] = []
    for g in circuit.ops:
        ops.append(g)
        if g.tag == DIAG_TAG:
            if g.kind != TWO_QUBIT_UNITARY:
                raise FoldingError("can only fold explicit-unitary diagonalizing gates")
            adjoint = np.asarray(g.unitary).conj().T
            for _ in range((scale - 1) // 2):
                ops.append(two_qubit(adjoint, *g.qubits, tag=DIAG_TAG))
                ops.append(two_qubit(np.asarray(g.unitary), *g.qubits, tag=DIAG_TAG))
    return Circuit(circuit.width, tuple(ops))


def extrapolate_linear(scales: Sequence[int], values: Sequence[float]) -> float:
    """Ordinary least-squares line through the points (scale, value), one
    per measured noise scale; returns its intercept at scale zero."""
    if len(scales) != len(values):
        raise FoldingError(f"{len(scales)} scales but {len(values)} values")
    if len(scales) < 2:
        raise FoldingError("need at least two scaled runs to extrapolate")
    scales = np.array(scales, dtype=float)
    if np.ptp(scales) == 0:
        raise FoldingError("scales must not all be equal")
    design = np.vstack([np.ones_like(scales), scales]).T
    coef, *_ = np.linalg.lstsq(design, np.array(values, dtype=float), rcond=None)
    return float(coef[0])
