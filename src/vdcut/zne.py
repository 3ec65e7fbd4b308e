"""Zero-noise extrapolation over folded diagonalizing gates: each ``DIAG``
gate G becomes G (G^dag G)^((scale-1)/2), so the noiseless unitary is
unchanged while the gate noise is amplified; a linear fit over the
measured scales extrapolates to zero noise."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import DIAG, Circuit, Gate


class FoldingError(ValueError):
    pass


def fold_diagonalizing(circuit: Circuit, scale: int) -> Circuit:
    """Replace every ``DIAG`` gate G by G followed by (scale-1)/2 adjoint
    pairs (G^dag G): the gate is its own inverse, so the fold repeats it
    ``scale`` times.  A circuit without ``DIAG`` gates, a basis-decomposed
    one included, is refused at every scale."""
    if scale < 1 or scale % 2 == 0:
        raise FoldingError(f"scale must be an odd positive integer, got {scale}")
    if not any(g.kind == DIAG for g in circuit.ops):
        raise FoldingError(f"circuit contains no {DIAG} gates to fold")
    if scale == 1:
        return circuit
    ops: list[Gate] = []
    for g in circuit.ops:
        ops += [g] * scale if g.kind == DIAG else [g]
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
