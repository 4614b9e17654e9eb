"""Six causal self-attention mechanisms behind one forward interface.

* csa      - scaled dot-product attention with a classical value layer
* qisa     - value layer replaced by quadratic-form features
             <x|W^T P W|x> of Pauli observables over a trainable map W
* qisa_a   - like qisa, but the map is a parameterized circuit acting
             on the amplitude-encoded token
* qsann    - per-position circuits produce scalar queries/keys (first-
             qubit Z) and observable-vector values; Gaussian-kernel
             attention; no output projection
* qsann_v1 - qsann with one circuit triple shared across positions
* qsann_v2 - qsann_v1 with vector-valued queries/keys built from
             observable expectations

Every forward accepts [l, m] or batched [B, l, m] input and an additive
causal mask, and is differentiable through the tape engine.

Every quantum feature is a real quadratic form x^T A_k x of the
L2-normalized token x, so the five quantum variants share one feature
path.  Each weights class builds its coefficients A_k = S^T P~_k S per
head and role (value, query, key): S = [Re U; Im U] of the ansatz unitary
with P~_k the real form of the Pauli matrix P_k, which makes
A_k = Re(U^dag P_k U); for qisa, S = W~ and P~_k = Re(P_k).  Every stack
has the layout [L, K, m, m]: L = 1 when one map serves every position,
L = l for per-position qsann.  The tape op :func:`quadratic_features`
turns tokens and coefficients into features.  A forward takes the
layer's coefficients as an argument: built on the tape for training,
under ``no_grad`` for inference, or frozen in an evolved-observable
cache, so the paths differ only in where A comes from.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .qsim import PauliString, hea_unitary_tensors, pauli_matrix, select_observables
from .tensor import (
    Tensor,
    _accum,
    _make,
    concat,
    matmul,
    normalize_rows,
    reshape,
    softmax_rows,
    swap_last,
)

VARIANTS = ("csa", "qisa", "qisa_a", "qsann", "qsann_v1", "qsann_v2")

_ALIASES = {
    "csa": "csa",
    "qisa": "qisa",
    "qisa_a": "qisa_a",
    "qisa-a": "qisa_a",
    "qisaa": "qisa_a",
    "qsann": "qsann",
    "qsann_v1": "qsann_v1",
    "qsannv1": "qsann_v1",
    "qsann_v2": "qsann_v2",
    "qsannv2": "qsann_v2",
}


def canonical_variant(name: str) -> str:
    key = name.strip().lower().replace(" ", "") if isinstance(name, str) else None
    if key not in _ALIASES:
        raise ConfigError(f"unknown attention variant {name!r}; choose one of {VARIANTS}")
    return _ALIASES[key]


@dataclass
class AttentionSpec:
    """Shape-level description of one attention mechanism."""

    variant: str
    m: int
    H: int
    l: int
    p: int = 1
    v2_kernel: str = "dot"  # "dot" or "gaussian" for qsann_v2

    def __post_init__(self):
        self.variant = canonical_variant(self.variant)
        if self.m < 1 or self.H < 1 or self.l < 1 or self.p < 1:
            raise ConfigError("m, H, l, p must all be positive")
        if self.m % self.H != 0:
            raise ConfigError(f"embedding size {self.m} is not divisible by {self.H} heads")
        if self.variant != "csa" and (self.m & (self.m - 1)) != 0:
            raise ConfigError(f"quantum variants need a power-of-two embedding size, got {self.m}")
        if self.v2_kernel not in ("dot", "gaussian"):
            raise ConfigError(f"v2_kernel must be 'dot' or 'gaussian', got {self.v2_kernel!r}")
        if self.variant == "qsann" and self.H > 1:
            warnings.warn("the per-position variant is normally compared with a single head", stacklevel=2)

    @property
    def h(self) -> int:
        return self.m // self.H

    @property
    def n_qubits(self) -> int:
        return max(1, math.ceil(math.log2(self.m)))

    @property
    def uses_wo(self) -> bool:
        return self.variant in ("csa", "qisa", "qisa_a")

    def value_observables(self) -> list[PauliString]:
        mode = "real_congruence" if self.variant == "qisa" else "unitary"
        return select_observables(self.n_qubits, self.h, mode)

    def qk_observables(self) -> list[PauliString]:
        return select_observables(self.n_qubits, self.m, "unitary")


def causal_mask(l: int) -> np.ndarray:
    """Additive mask: 0 on and below the diagonal, -inf above."""
    if l < 1:
        raise ConfigError("mask length must be positive")
    mask = np.zeros((l, l))
    mask[np.triu_indices(l, k=1)] = -np.inf
    return mask


def count_params(spec: AttentionSpec) -> int:
    """Trainable scalars per head (output projection excluded)."""
    m, h, p, l = spec.m, spec.h, spec.p, spec.l
    n3 = 3 * spec.n_qubits  # rotation angles per ansatz layer
    if spec.variant == "csa":
        return 3 * m * h
    if spec.variant == "qisa":
        return 2 * m * h + m * m
    if spec.variant == "qisa_a":
        return 2 * m * h + n3 * p
    if spec.variant == "qsann":
        return 3 * n3 * p * l
    return 3 * n3 * p  # qsann_v1, qsann_v2


def output_projection_params(spec: AttentionSpec) -> int:
    return spec.m * spec.m if spec.uses_wo else 0


def total_attention_params(spec: AttentionSpec) -> int:
    return count_params(spec) * spec.H + output_projection_params(spec)


# ---------------------------------------------------------------------------
# feature coefficients
# ---------------------------------------------------------------------------


def _lift(observables: list[PauliString], real: bool = False) -> Tensor:
    """Constant observable stack P~ of shape [K, d, d] for S^T P~_k S.

    With ``real`` it is Re(P_k), for a real map S = W~.  Otherwise it is
    [[Re P_k, -Im P_k], [Im P_k, Re P_k]], the real form of P_k acting on
    S = [Re U; Im U], so that S^T P~_k S = Re(U^dag P_k U).
    """
    mats = np.stack([pauli_matrix(o) for o in observables])
    if real:
        return Tensor(mats.real)
    return Tensor(np.block([[mats.real, -mats.imag], [mats.imag, mats.real]]))


def congruence(s: Tensor, lifted: Tensor) -> Tensor:
    """Coefficients A_k = S^T P~_k S of shape [L, K, m, m] for a stack of L
    maps ``s`` of shape [L, d, m]."""
    s = reshape(s, (s.shape[0], 1) + s.shape[1:])
    return matmul(matmul(swap_last(s), lifted), s)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _normal(rng, shape):
    return Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True)


def _angles(rng, spec):
    return Tensor(rng.uniform(-np.pi, np.pi, size=(spec.p, spec.n_qubits, 3)), requires_grad=True)


class AttentionWeights:
    """Base: holds an AttentionSpec and enumerates trainable tensors by name."""

    spec: AttentionSpec

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        raise NotImplementedError

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def coefficients(self) -> list[dict[str, Tensor]] | None:
        """The layer's feature coefficients: per head, A by role ("query",
        "key", "value"), each [L, K, m, m].  None for the classical variant."""
        return None


class CSAWeights(AttentionWeights):
    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        self.spec = spec
        m, h = spec.m, spec.h
        self.wq = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.wk = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.wv = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.wo = _normal(rng, (m, m))

    def named_parameters(self):
        out = []
        for j in range(self.spec.H):
            out += [(f"head{j}.wq", self.wq[j]), (f"head{j}.wk", self.wk[j]), (f"head{j}.wv", self.wv[j])]
        out.append(("wo", self.wo))
        return out


class QISAWeights(AttentionWeights):
    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        self.spec = spec
        m, h = spec.m, spec.h
        self.wq = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.wk = [_normal(rng, (m, h)) for _ in range(spec.H)]
        # std 1/sqrt(m) keeps |W x| ~ 1 for unit tokens, so the quadratic-form
        # features start in the same [-1, 1] range the unitary variants produce
        self.wv_tilde = [Tensor(rng.normal(0.0, m**-0.5, (m, m)), requires_grad=True)
                         for _ in range(spec.H)]
        self.wo = _normal(rng, (m, m))
        self.value_obs = spec.value_observables()
        self._lifted = _lift(self.value_obs, real=True)

    def named_parameters(self):
        out = []
        for j in range(self.spec.H):
            out += [(f"head{j}.wq", self.wq[j]), (f"head{j}.wk", self.wk[j]),
                    (f"head{j}.wv_tilde", self.wv_tilde[j])]
        out.append(("wo", self.wo))
        return out

    def coefficients(self):
        return [{"value": congruence(reshape(w, (1,) + w.shape), self._lifted)} for w in self.wv_tilde]


class QISAAWeights(AttentionWeights):
    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        self.spec = spec
        m, h = spec.m, spec.h
        self.wq = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.wk = [_normal(rng, (m, h)) for _ in range(spec.H)]
        self.theta = [_angles(rng, spec) for _ in range(spec.H)]
        self.wo = _normal(rng, (m, m))
        self.value_obs = spec.value_observables()
        self._lifted = _lift(self.value_obs)

    def named_parameters(self):
        out = []
        for j in range(self.spec.H):
            out += [(f"head{j}.wq", self.wq[j]), (f"head{j}.wk", self.wk[j]),
                    (f"head{j}.theta", self.theta[j])]
        out.append(("wo", self.wo))
        return out

    def coefficients(self):
        n, p = self.spec.n_qubits, self.spec.p
        return [{"value": congruence(hea_unitary_tensors([t], n, p), self._lifted)} for t in self.theta]


class QSANNSharedWeights(AttentionWeights):
    """Shared circuit triple per head (qsann_v1 and qsann_v2)."""

    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        self.spec = spec
        self.theta_q = [self._new_angles(rng) for _ in range(spec.H)]
        self.theta_k = [self._new_angles(rng) for _ in range(spec.H)]
        self.theta_v = [self._new_angles(rng) for _ in range(spec.H)]
        self.value_obs = spec.value_observables()
        # qsann_v2 reads vector queries/keys; the others one score, first-qubit Z
        self.qk_obs = (spec.qk_observables() if spec.variant == "qsann_v2"
                       else [PauliString("Z" + "I" * (spec.n_qubits - 1))])
        qk = _lift(self.qk_obs)
        self._lifted = {"query": qk, "key": qk, "value": _lift(self.value_obs)}

    def _new_angles(self, rng):
        return _angles(rng, self.spec)

    @staticmethod
    def _angle_sets(theta) -> list[Tensor]:
        """One role's angle tensors of one head, as the ansatz op takes them."""
        return [theta]

    def named_parameters(self):
        out = []
        for j in range(self.spec.H):
            out += [(f"head{j}.theta_q", self.theta_q[j]),
                    (f"head{j}.theta_k", self.theta_k[j]),
                    (f"head{j}.theta_v", self.theta_v[j])]
        return out

    def coefficients(self):
        n, p = self.spec.n_qubits, self.spec.p
        return [{role: congruence(hea_unitary_tensors(self._angle_sets(t), n, p), self._lifted[role])
                 for role, t in (("query", tq), ("key", tk), ("value", tv))}
                for tq, tk, tv in zip(self.theta_q, self.theta_k, self.theta_v)]


class QSANNWeights(QSANNSharedWeights):
    """Original per-position form: one circuit triple per token slot."""

    def _new_angles(self, rng):
        return [_angles(rng, self.spec) for _ in range(self.spec.l)]

    @staticmethod
    def _angle_sets(theta):
        return theta

    def named_parameters(self):
        out = []
        for j in range(self.spec.H):
            for i in range(self.spec.l):
                out += [(f"head{j}.pos{i}.theta_q", self.theta_q[j][i]),
                        (f"head{j}.pos{i}.theta_k", self.theta_k[j][i]),
                        (f"head{j}.pos{i}.theta_v", self.theta_v[j][i])]
        return out


def build_attention_weights(spec: AttentionSpec, rng: np.random.Generator) -> AttentionWeights:
    cls = {
        "csa": CSAWeights,
        "qisa": QISAWeights,
        "qisa_a": QISAAWeights,
        "qsann": QSANNWeights,
        "qsann_v1": QSANNSharedWeights,
        "qsann_v2": QSANNSharedWeights,
    }[spec.variant]
    return cls(spec, rng)


# ---------------------------------------------------------------------------
# the quadratic-feature op
# ---------------------------------------------------------------------------


def _side_by_side(mats: np.ndarray) -> np.ndarray:
    """[..., K, m, m] -> [..., m, K*m]: the K matrices laid side by side."""
    k, m = mats.shape[-3], mats.shape[-1]
    return np.swapaxes(mats, -3, -2).reshape(mats.shape[:-3] + (m, k * m))


def _forms(x: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    m = stacked.shape[-2]
    rows = (x @ stacked).reshape(x.shape[:-1] + (stacked.shape[-1] // m, m))
    return (rows @ x[..., None])[..., 0]


def batched_quadratic_forms(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Real quadratic forms x^T Re(M_k) x for row-stacked real x.

    ``mats`` is [L, K, m, m].  With L = 1 its stack is shared by every row
    of ``x`` ([..., m]; the result is [..., K]); otherwise ``x`` is
    [B, l, m] with l <= L, and position i uses ``mats[i]``.  For Hermitian M_k
    this equals the expectation <x|M_k|x>: Im(M_k) is then antisymmetric
    and drops out of a real quadratic form.

    The K matrices are laid side by side as one [m, K*m] operand, so one
    GEMM gives every x^T Re(M_k) and a batched dot with x finishes the
    forms.  The leading axes of ``x`` are kept, so a [B, l, m] input runs
    as B small [l, m] @ [m, K*m] GEMMs (per position: l GEMMs of
    [B, m] @ [m, K*m]): flattening the rows into one GEMM lets a
    multi-threaded BLAS split a tiny product across threads, which costs
    far more than the product itself.
    """
    stacked = _side_by_side(np.real(mats))
    if len(stacked) == 1:
        return _forms(x, stacked[0])
    xt = np.swapaxes(x, 0, 1)
    return np.swapaxes(_forms(xt, stacked[: len(xt)]), 0, 1)


def quadratic_features(x: Tensor, a: Tensor) -> Tensor:
    """Tape op: out[b, i, k] = x_bi^T A_k x_bi for tokens x of shape [B, l, m].

    ``a`` is [L, K, m, m]: with L = 1 one stack serves every position,
    otherwise L >= l and position i uses A[i].  The forward is
    :func:`batched_quadratic_forms`; the backward is two GEMMs,
    dx = sum_k g_k (A_k + A_k^T) x and dA_k = sum g_k x x^T.
    """
    if (x.ndim != 3 or a.ndim != 4 or a.shape[-2:] != (x.shape[-1],) * 2
            or 1 < a.shape[0] < x.shape[1]):
        raise ShapeError(f"coefficients of shape {a.shape} do not fit tokens of shape {x.shape}")
    l, per_position = x.shape[1], a.shape[0] > 1
    data = batched_quadratic_forms(x.data, a.data[:l])
    coeffs = a.data[:l] if per_position else a.data[0]

    def backward_fn(g):
        xs, gs = x.data, g
        if per_position:  # positions lead, so that each meets its own stack
            xs, gs = np.swapaxes(xs, 0, 1), np.swapaxes(gs, 0, 1)
        k, m = coeffs.shape[-3], coeffs.shape[-1]
        outer = (gs[..., :, None] * xs[..., None, :]).reshape(gs.shape[:-1] + (k * m,))
        if x.requires_grad:
            sym = _side_by_side(coeffs + np.swapaxes(coeffs, -1, -2))
            dx = outer @ np.swapaxes(sym, -1, -2)
            _accum(x, np.swapaxes(dx, 0, 1) if per_position else dx)
        if a.requires_grad:
            da = np.swapaxes(xs, -1, -2) @ outer  # [positions or B, m, K*m]
            da = np.swapaxes(da.reshape(da.shape[:-1] + (k, m)), -3, -2)
            if per_position:
                full = np.zeros(a.shape)
                full[:l] = da
                _accum(a, full)
            else:
                _accum(a, da.sum(axis=0)[None])

    return _make(data, (x, a), backward_fn)


# ---------------------------------------------------------------------------
# forward helpers
# ---------------------------------------------------------------------------


def _ensure_3d(x: Tensor) -> tuple[Tensor, bool]:
    if x.ndim == 2:
        return reshape(x, (1,) + x.shape), True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"attention input must be [l, m] or [B, l, m], got {x.shape}")


def _dot_attention(q: Tensor, k: Tensor, scale: float, mask: np.ndarray) -> Tensor:
    scores = matmul(q, swap_last(k)) * scale
    return softmax_rows(scores + Tensor(mask))


def gaussian_attention(q: Tensor, k: Tensor, mask: np.ndarray) -> Tensor:
    """Kernel attention A_ij = exp(-(q_i - k_j)^2), normalized over j <= i.

    The additive mask zeroes the upper triangle before normalization, so
    each row is a distribution over the causal prefix.
    """
    if q.shape != k.shape:
        raise ShapeError("query and key score vectors must have the same shape")
    l = q.shape[-1]
    qe = reshape(q, q.shape + (1,))
    ke = reshape(k, k.shape[:-1] + (1, l))
    diff = qe - ke
    return softmax_rows((diff * diff) * -1.0 + Tensor(mask))


def _vector_gaussian_attention(q: Tensor, k: Tensor, mask: np.ndarray) -> Tensor:
    """Gaussian kernel on squared distances between q/k feature vectors."""
    l, m = q.shape[-2], q.shape[-1]
    qe = reshape(q, q.shape[:-2] + (l, 1, m))
    ke = reshape(k, k.shape[:-2] + (1, l, m))
    diff = qe - ke
    sq = (diff * diff).sum(axis=-1)
    return softmax_rows(sq * -1.0 + Tensor(mask))


# ---------------------------------------------------------------------------
# variant forwards
# ---------------------------------------------------------------------------


def csa_forward(x: Tensor, w: CSAWeights, mask: np.ndarray, coeffs: None = None) -> Tensor:
    x3, squeeze = _ensure_3d(x)
    scale = 1.0 / math.sqrt(w.spec.h)
    heads = []
    for j in range(w.spec.H):
        q = matmul(x3, w.wq[j])
        k = matmul(x3, w.wk[j])
        v = matmul(x3, w.wv[j])
        heads.append(matmul(_dot_attention(q, k, scale, mask), v))
    out = matmul(concat(heads, axis=-1), w.wo)
    return reshape(out, out.shape[1:]) if squeeze else out


def qisa_forward(x: Tensor, w: QISAWeights | QISAAWeights, mask: np.ndarray,
                 coeffs: list[dict[str, Tensor]]) -> Tensor:
    """qisa and qisa_a: dot-product attention over quadratic-form values, then W_o."""
    x3, squeeze = _ensure_3d(x)
    scale = 1.0 / math.sqrt(w.spec.h)
    xn = normalize_rows(x3, zero_fallback=True)
    heads = []
    for j in range(w.spec.H):
        q = matmul(x3, w.wq[j])
        k = matmul(x3, w.wk[j])
        v = quadratic_features(xn, coeffs[j]["value"])
        heads.append(matmul(_dot_attention(q, k, scale, mask), v))
    out = matmul(concat(heads, axis=-1), w.wo)
    return reshape(out, out.shape[1:]) if squeeze else out


def qsann_forward(x: Tensor, w: QSANNSharedWeights, mask: np.ndarray,
                  coeffs: list[dict[str, Tensor]]) -> Tensor:
    """qsann, qsann_v1 and qsann_v2: circuit queries, keys and values."""
    x3, squeeze = _ensure_3d(x)
    spec = w.spec
    xn = normalize_rows(x3, zero_fallback=True)
    heads = []
    for j in range(spec.H):
        q, k, v = (quadratic_features(xn, coeffs[j][role]) for role in ("query", "key", "value"))
        if spec.variant != "qsann_v2":  # one score per token: Gaussian kernel
            attn = gaussian_attention(reshape(q, q.shape[:-1]), reshape(k, k.shape[:-1]), mask)
        elif spec.v2_kernel == "dot":
            attn = _dot_attention(q, k, 1.0 / math.sqrt(spec.m), mask)
        else:
            attn = _vector_gaussian_attention(q, k, mask)
        heads.append(matmul(attn, v))
    out = concat(heads, axis=-1)
    return reshape(out, out.shape[1:]) if squeeze else out


_FORWARDS = {
    "csa": csa_forward,
    "qisa": qisa_forward,
    "qisa_a": qisa_forward,
    "qsann": qsann_forward,
    "qsann_v1": qsann_forward,
    "qsann_v2": qsann_forward,
}


def attention_forward(x: Tensor, w: AttentionWeights, mask: np.ndarray,
                      coeffs: list[dict[str, Tensor]] | None) -> Tensor:
    """Dispatch to the forward of the weights' variant.  ``coeffs`` is the
    layer's coefficients A per head, as :meth:`AttentionWeights.coefficients`
    gives them (built on the tape, under ``no_grad`` or frozen in a cache)."""
    return _FORWARDS[w.spec.variant](x, w, mask, coeffs)
