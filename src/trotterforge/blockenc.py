"""Block encodings, the qubitization walk operator, and its cost model.

The exact constructions are dense matrices for desk-scale verification;
each is sized against physical memory before it is allocated.
The cost functions at the bottom are the declared gate-count model used by
the compilers module; their constants are recorded, not claimed optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomp import nested_boxes, shifted_region
from .errors import DomainError, ValidationError, check_float_range, check_memory


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """H/lam sits in the corner block g1^dag @ u @ g0."""

    g0: np.ndarray
    g1: np.ndarray
    u: np.ndarray
    lam: float
    hermitian: bool

    def encoded(self) -> np.ndarray:
        return self.g1.conj().T @ self.u @ self.g0


@dataclass(frozen=True, eq=False)
class PreparedBlock:
    """Post-selected preparation state over a cross block, row-major cells."""

    state: np.ndarray
    success_probability: float
    encoding_error: float
    coeffs: np.ndarray  # encoded magnitudes (exact or resolution-rounded)


def build_lcu_encoding(terms: Sequence[tuple[float, np.ndarray]]) -> BlockEncoding:
    """Linear-combination-of-unitaries encoding with g = sum sqrt(b/lam)|g>."""
    if not terms:
        raise ValidationError("need at least one term")
    weights = np.array([w for w, _ in terms], dtype=float)
    if np.any(weights <= 0):
        raise DomainError("weights must be positive")
    mats = [np.asarray(u, dtype=complex) for _, u in terms]
    ds = mats[0].shape[0]
    for m in mats:
        if m.shape != (ds, ds):
            raise ValidationError("term unitaries must share one dimension")
    branches = 1 << max(1, (len(terms) - 1).bit_length()) if len(terms) > 1 else 1
    big = branches * ds
    # u; the terms, g, g^dag and g^dag u (big x ds each); three ds x ds in the Hermitian test
    check_memory(16 * big * (big + 7 * ds), f"an LCU encoding of dimension {big}")
    lam = float(weights.sum())
    amps = np.zeros(branches)
    amps[: len(terms)] = np.sqrt(weights / lam)
    g = np.kron(amps.reshape(-1, 1), np.eye(ds, dtype=complex))
    u = np.zeros((big, big), dtype=complex)
    for idx in range(branches):
        block = mats[idx] if idx < len(mats) else np.eye(ds, dtype=complex)
        u[idx * ds : (idx + 1) * ds, idx * ds : (idx + 1) * ds] = block
    b = g.conj().T @ u @ g
    hermitian = bool(np.abs(b - b.conj().T).max() <= 1e-10)
    return BlockEncoding(g0=g, g1=g, u=u, lam=lam, hermitian=hermitian)


def build_boxed_preparation(block: np.ndarray, xi: int | None = None) -> PreparedBlock:
    """Preparation state over one square cross block, grouped by its box grid.

    Exact mode (xi None) yields amplitudes sqrt|b|/sqrt(1-norm) with success probability
    (1-norm)/(box norm). Finite inequality-test resolution xi rounds each magnitude up to
    the box max times ceil(xi |b| / max)/xi; the reported encoding error is the induced
    coefficient perturbation sum |b~ - |b||.
    """
    if xi is not None and xi < 2:
        raise DomainError(f"resolution must be >= 2, got {xi}")
    b = np.abs(np.asarray(block, dtype=float))
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValidationError(f"block shape {b.shape} is not square")
    boxes = nested_boxes(len(b))  # rejects a side that is not a power of two
    if not np.all(np.isfinite(b)):
        raise ValidationError("block entries must be finite")
    if b.max() == 0.0:
        return PreparedBlock(np.zeros(0), 0.0, 0.0, np.zeros_like(b))
    tilde = np.zeros_like(b)
    box_norm = 0.0
    for box in boxes:
        rows, cols = shifted_region(box.u, box.v, len(b)).slices()
        sub = b[rows, cols]
        box_max = float(sub.max())
        if box_max == 0.0:
            continue
        tilde[rows, cols] = sub if xi is None else box_max * np.ceil(xi * sub / box_max) / xi
        box_norm += box.weight * box_max
    one_norm = float(tilde.sum())
    state = np.sqrt(tilde.flatten() / one_norm)
    error = float(np.abs(tilde - b).sum())
    return PreparedBlock(state, one_norm / box_norm, error, tilde)


def walk_operator(enc: BlockEncoding) -> np.ndarray:
    """Angle-free iterate (X (x) I)(|0><0| (x) U + |1><1| (x) U^dag)(2|G+><G+| - I).

    The reflection sign matters: reflecting about the complement instead
    would negate every invariant block and shift all eigenphases by pi.
    """
    if not enc.hermitian:
        raise ValidationError("walk operator requires a Hermitian-flagged encoding")
    big = enc.u.shape[0]
    # refl, sel and the result, plus under one more for gplus and the copy of U^dag
    check_memory(4 * 16 * (2 * big) ** 2, f"a walk operator of dimension {2 * big}")
    ds = enc.g0.shape[1]
    gplus = np.zeros((2 * big, ds), dtype=complex)
    gplus[:big] = enc.g0 / math.sqrt(2.0)
    gplus[big:] = enc.g1 / math.sqrt(2.0)
    refl = 2.0 * (gplus @ gplus.conj().T) - np.eye(2 * big, dtype=complex)
    # (X (x) I)(|0><0| (x) U + |1><1| (x) U^dag): the controlled U with its halves swapped
    sel = np.zeros((2 * big, 2 * big), dtype=complex)
    sel[big:, :big] = enc.u
    sel[:big, big:] = enc.u.conj().T
    return sel @ refl


def walk_invariant_phases(enc: BlockEncoding) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases of the walk on the encoded invariant subspace vs +/-arccos(E).

    Returns (measured, expected), both sorted. Phases are taken in (-pi, pi]
    with -pi folded to pi, so the pair at E = -1 appears as {pi, pi}.
    """
    v = walk_operator(enc)
    b = enc.encoded()
    b = (b + b.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(b)
    big = enc.u.shape[0]
    measured = []
    expected = []
    for e, phi in zip(evals, evecs.T):
        a0 = np.zeros(2 * big, dtype=complex)
        a0[:big] = enc.g0 @ phi / math.sqrt(2.0)
        a0[big:] = enc.g1 @ phi / math.sqrt(2.0)
        va = v @ a0
        overlap = np.vdot(a0, va)
        resid = va - overlap * a0
        rnorm = np.linalg.norm(resid)
        if rnorm < 1e-9:
            basis = a0.reshape(-1, 1)
        else:
            basis = np.column_stack([a0, resid / rnorm])
        m = basis.conj().T @ v @ basis
        closure = np.linalg.norm(v @ basis - basis @ m)
        if closure > 1e-8:
            raise ValidationError("walk operator did not close on the 2D block")
        for lam in np.linalg.eigvals(m):
            ang = float(np.angle(lam))
            measured.append(math.pi if ang <= -math.pi + 1e-12 else ang)
        e_clip = min(1.0, max(-1.0, float(e)))
        if basis.shape[1] == 1:
            expected.append(math.acos(e_clip) if e_clip >= 0 else math.pi)
        else:
            expected.extend([math.acos(e_clip), -math.acos(e_clip)])
            if e_clip <= -1.0 + 1e-15:
                expected[-1] = math.pi  # -pi folds to pi
    return np.sort(np.array(measured)), np.sort(np.array(expected))


def qubitization_step_count(tau: float, eps: float) -> int:
    """Smallest even integer >= max(2, e tau + ln(1/eps))."""
    if tau < 0:
        raise DomainError(f"effective time must be >= 0, got {tau}")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"accuracy must be in (0,1), got {eps}")
    raw = max(2.0, math.e * tau + math.log(1.0 / eps))
    r = math.ceil(check_float_range(raw, f"the qubitization step count at tau={tau!r}, eps={eps!r}"))
    return r + (r % 2)


# -- Declared gate-count cost model (constants recorded, not optimized) -------


def block_select_cost(half: int) -> int:
    """Selection over a half-length-L pair: swap network plus addressing."""
    return 2 * half + 2 * math.ceil(math.log2(2 * half))


def block_prep_cost(half: int, lam_ratio: float, width: int) -> int:
    """Boxed preparation with ceil(sqrt(ratio)) rounds of amplification."""
    a = math.ceil(math.sqrt(max(1.0, lam_ratio)))
    logl = math.ceil(math.log2(half)) if half > 1 else 0
    return a * (logl * logl + width)


def cell_select_cost(width_j: int, width_k: int) -> int:
    return width_j + width_k


def cell_prep_cost(width_j: int, width_k: int, lam_ratio: float) -> int:
    a = math.ceil(math.sqrt(max(1.0, lam_ratio)))
    return a * (width_j + width_k)
