"""Zero-noise extrapolation over folded diagonalizing gates: each
``diag``-tagged gate G becomes G (G^dag G)^((scale-1)/2), so the noiseless
unitary is unchanged while the gate noise is amplified; a linear fit over
the measured scales extrapolates to zero noise."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import DIAG, Circuit, Gate
from .vd import DIAG_TAG


class FoldingError(ValueError):
    pass


def fold_diagonalizing(circuit: Circuit, scale: int) -> Circuit:
    """Replace every ``diag``-tagged gate G by G followed by (scale-1)/2
    adjoint pairs (G^dag G).  Only ``DIAG`` gates are folded: the gate is
    its own inverse, so the fold repeats it ``scale`` times."""
    if scale < 1 or scale % 2 == 0:
        raise FoldingError(f"scale must be an odd positive integer, got {scale}")
    if not any(g.tag == DIAG_TAG for g in circuit.ops):
        raise FoldingError("circuit contains no diag-tagged gates to fold")
    if scale == 1:
        return circuit
    ops: list[Gate] = []
    for g in circuit.ops:
        if g.tag != DIAG_TAG:
            ops.append(g)
        elif g.kind == DIAG:
            ops += [g] * scale
        else:
            raise FoldingError(f"can only fold {DIAG} gates, not a diag-tagged {g.kind}")
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
