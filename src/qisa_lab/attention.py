"""Six causal self-attention mechanisms behind one forward.

* csa      - scaled dot-product attention with a classical value layer
* qisa     - value layer replaced by quadratic-form features
             <x|W^T P W|x> of Pauli observables over a trainable map W
* qisa_a   - like qisa, but the map is a parameterized circuit acting
             on the amplitude-encoded token
* qsann    - per-position circuits give one-feature queries/keys (first-
             qubit Z) and observable-vector values; Gaussian-kernel
             attention; no output projection
* qsann_v1 - qsann with one circuit triple shared across positions
* qsann_v2 - qsann_v1 with vector-valued queries/keys built from
             observable expectations

One forward, :func:`attention_forward`, serves all six, which differ in
three ways: a role (query, key, value) with coefficients in the layer's
table reads quadratic features of the normalized token, any other role
its linear map; ``AttentionSpec.kernel`` scores queries against keys
(scaled dot product or Gaussian); ``AttentionSpec.uses_wo`` adds W_o.
It takes [l, m] or [B, l, m] input and an additive causal mask.

Every quantum feature is a real quadratic form x^T A_k x of the
L2-normalized token x.  ``ROLE_TABLE`` holds all there is to a variant:
its source per role, its kernel, whether W_o follows and what circuit
queries and keys measure.  Per head and feature role, A_k = S^T P~_k S:
S = [Re U; Im U] of the ansatz unitary with P~_k the real form of the
Pauli matrix P_k, which makes A_k = Re(U^dag P_k U); for qisa, S = W~
and P~_k = Re(P_k).  Every coefficient stack has the layout
[L, K, m, m]: L = 1 when one map serves every position, L = l for
per-position qsann.  The tape op :func:`quadratic_features` turns tokens
and coefficients into features.

Where the features come from depends on how the layer's table was built:
* on the tape (training), a role whose source is in ``MAP_SOURCES``
  (qisa's W~, qsann's per-position circuits) trains from the map: its
  entry is the map stack S [L, d, m] with the constant lifted stack
  P~ [1, K, d, d], :func:`map_tokens` gives y = S x, and the features are
  y^T P~_k y = x^T A_k x.  No A and no gradient of A is formed.  Shared
  "circuit" roles (qisa_a, qsann_v1, qsann_v2) form A on the tape;
* under ``no_grad`` (uncached eval, generate), A for every role;
* from an evolved-observable cache, the frozen A.
At batch 256 (emb16-h1, two BLAS threads), the map route, the
constant-stack backward and the blocked forms took qisa's feature ops
from 49 to 19 ms per training step: forward 20 -> 12 ms, backward
29 -> 7 ms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .qsim import PauliString, hea_unitary_tensors, pauli_matrix, select_observables
from .tensor import (
    Tensor,
    _accum,
    _make,
    concat,
    matmul,
    normalize_rows,
    reshape,
    softmax_grad,
    softmax_inplace,
    swap_last,
)


# What a variant is.  ``roles``: per role (query, key, value), in draw order,
# the name of its parameter and its source: "linear" an [m, h] map, "matrix"
# qisa's real [m, m] map W~, "circuit" one ansatz angle set shared by every
# position, "circuits" one angle set per position.  ``uses_wo``: W_o follows.
# ``kernel``: how queries score keys, None letting ``v2_kernel`` choose.
# ``qk_vector``: circuit queries and keys are a vector of m Pauli
# expectations, not one first-qubit Z score.
class Variant(NamedTuple):
    roles: tuple[tuple[str, str], ...]
    uses_wo: bool
    kernel: str | None
    qk_vector: bool = False


_LINEAR_QK = (("wq", "linear"), ("wk", "linear"))
_CIRCUIT_QKV = (("theta_q", "circuit"), ("theta_k", "circuit"), ("theta_v", "circuit"))
ROLE_TABLE = {
    "csa": Variant(_LINEAR_QK + (("wv", "linear"),), True, "dot"),
    "qisa": Variant(_LINEAR_QK + (("wv_tilde", "matrix"),), True, "dot"),
    "qisa_a": Variant(_LINEAR_QK + (("theta", "circuit"),), True, "dot"),
    "qsann": Variant((("theta_q", "circuits"), ("theta_k", "circuits"), ("theta_v", "circuits")),
                     False, "gaussian"),
    "qsann_v1": Variant(_CIRCUIT_QKV, False, "gaussian"),
    "qsann_v2": Variant(_CIRCUIT_QKV, False, None, qk_vector=True),
}
VARIANTS = tuple(ROLE_TABLE)
# Sources whose roles train from the map: on the tape their features are
# those of y = S x against the constant lifted stack, so no A is formed.
# Shared "circuit" roles keep A: the real form of a unitary map has d = 2m,
# which makes forms of y cost 4x those of x, while their one A per layer
# is cheap to build (the map route measured +22 % to +53 % per step).
MAP_SOURCES = frozenset({"matrix", "circuits"})
# A table entry: A [L, K, m, m], or the map route's pair (S [L, d, m], P~ [1, K, d, d])
Entry = Tensor | tuple[Tensor, Tensor]
_ALIASES = {**{name: name for name in VARIANTS}, **{name.replace("_", ""): name for name in VARIANTS},
            "qisa-a": "qisa_a"}


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
        if set(self.sources) != {"linear"} and (self.m & (self.m - 1)) != 0:
            raise ConfigError(f"quantum variants need a power-of-two embedding size, got {self.m}")
        if self.v2_kernel not in ("dot", "gaussian"):
            raise ConfigError(f"v2_kernel must be 'dot' or 'gaussian', got {self.v2_kernel!r}")
        if "circuits" in self.sources and self.H > 1:
            warnings.warn("the per-position variant is normally compared with a single head", stacklevel=3)

    @property
    def row(self) -> Variant:
        return ROLE_TABLE[self.variant]

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(source for _, source in self.row.roles)

    @property
    def h(self) -> int:
        return self.m // self.H

    @property
    def n_qubits(self) -> int:
        return max(1, math.ceil(math.log2(self.m)))

    @property
    def uses_wo(self) -> bool:
        return self.row.uses_wo

    @property
    def kernel(self) -> str:
        """How queries score keys: "dot" (scaled dot product) or "gaussian"."""
        return self.row.kernel or self.v2_kernel


def causal_mask(l: int) -> np.ndarray:
    """Additive mask: 0 on and below the diagonal, -inf above."""
    if l < 1:
        raise ConfigError("mask length must be positive")
    mask = np.zeros((l, l))
    mask[np.triu_indices(l, k=1)] = -np.inf
    return mask


def count_params(spec: AttentionSpec) -> int:
    """Trainable scalars per head (output projection excluded)."""
    angles = 3 * spec.n_qubits * spec.p  # one ansatz angle set
    size = {"linear": spec.m * spec.h, "matrix": spec.m**2, "circuit": angles, "circuits": angles * spec.l}
    return sum(size[source] for source in spec.sources)


def output_projection_params(spec: AttentionSpec) -> int:
    return spec.m * spec.m if spec.uses_wo else 0


def total_attention_params(spec: AttentionSpec) -> int:
    return count_params(spec) * spec.H + output_projection_params(spec)


# ---------------------------------------------------------------------------
# feature coefficients
# ---------------------------------------------------------------------------


def _lift(observables: list[PauliString], real: bool = False) -> Tensor:
    """Constant observable stack P~ of shape [1, K, d, d] for S^T P~_k S.

    With ``real`` it is Re(P_k), for a real map S = W~.  Otherwise it is
    [[Re P_k, -Im P_k], [Im P_k, Re P_k]], the real form of P_k acting on
    S = [Re U; Im U], so that S^T P~_k S = Re(U^dag P_k U).  The leading
    axis makes it a shared stack that :func:`quadratic_features` takes as
    it is.  A stack is a per-process read-only constant: it is built on
    the first request for its words, and every layer and model that asks
    for them again wraps the same array.
    """
    return Tensor(_lifted_stack(tuple(observables), real))


@lru_cache(maxsize=None)
def _lifted_stack(observables: tuple[PauliString, ...], real: bool) -> np.ndarray:
    mats = np.stack([pauli_matrix(o) for o in observables])
    out = (mats.real if real else np.block([[mats.real, -mats.imag], [mats.imag, mats.real]]))[None]
    out.flags.writeable = False
    return out


def congruence(s: Tensor, lifted: Tensor) -> Tensor:
    """Coefficients A_k = S^T P~_k S of shape [L, K, m, m] for a stack of L
    maps ``s`` of shape [L, d, m] and a lifted stack [1, K, d, d]."""
    s = reshape(s, (s.shape[0], 1) + s.shape[1:])
    return matmul(matmul(swap_last(s), lifted), s)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class AttentionWeights:
    """One layer's attention weights, laid out by the variant's row of
    ``ROLE_TABLE``: per role a list of H per-head parameters (for
    "circuits" each a list of l angle sets), then W_o when the spec uses it."""

    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        self.spec = spec
        self.roles = dict(zip(("query", "key", "value"), spec.row.roles))  # role -> (name, source)
        for name, source in self.roles.values():
            setattr(self, name, [self._draw(source, rng) for _ in range(spec.H)])
        self.wo = self._draw("wo", rng) if spec.uses_wo else None
        # the roles read as quadratic features, with their observables
        self.features = {role: source for role, (_, source) in self.roles.items() if source != "linear"}
        obs = {role: self._observables(role, source) for role, source in self.features.items()}
        self.value_obs, self.qk_obs = obs.get("value"), obs.get("query")
        self._lifted = {role: _lift(o, real=self.features[role] == "matrix") for role, o in obs.items()}
        if "key" in self._lifted:  # keys read the query's words: one Tensor serves both
            self._lifted["key"] = self._lifted["query"]
        # the [L, K, m, m] shape of each feature role's coefficient stack
        self.feature_shapes = {role: (spec.l if source == "circuits" else 1, self._lifted[role].shape[1],
                                      spec.m, spec.m) for role, source in self.features.items()}

    def _draw(self, source, rng):  # one head's fresh parameter of a source, or W_o for "wo"
        spec, m = self.spec, self.spec.m
        if source == "circuits":
            return [self._draw("circuit", rng) for _ in range(spec.l)]
        if source == "circuit":
            return Tensor(rng.uniform(-np.pi, np.pi, size=(spec.p, spec.n_qubits, 3)), requires_grad=True)
        if source == "matrix":
            # std 1/sqrt(m) keeps |W~ x| ~ 1 for unit tokens, so qisa's quadratic-form
            # features start in the same [-1, 1] range the unitary variants produce
            return Tensor(rng.normal(0.0, m**-0.5, (m, m)), requires_grad=True)
        return Tensor(rng.normal(0.0, 0.02, (m, spec.h if source == "linear" else m)), requires_grad=True)

    def _observables(self, role, source) -> list[PauliString]:
        n = self.spec.n_qubits
        if role == "value":  # a real map W~ needs the words with an even number of Y
            return select_observables(n, self.spec.h, "real_congruence" if source == "matrix" else "unitary")
        if self.spec.row.qk_vector:  # vector queries/keys; otherwise one score, first-qubit Z
            return select_observables(n, self.spec.m, "unitary")
        return [PauliString("Z" + "I" * (n - 1))]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        per_position = "circuits" in self.features.values()  # qsann: head{j}.pos{i}.<name>
        slots = [(f"pos{i}.", i) for i in range(self.spec.l)] if per_position else [("", None)]
        out = [(f"head{j}.{pos}{name}", getattr(self, name)[j] if i is None else getattr(self, name)[j][i])
               for j in range(self.spec.H) for pos, i in slots for name, _ in self.roles.values()]
        return out if self.wo is None else out + [("wo", self.wo)]

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def coefficients(self) -> list[dict[str, Entry]] | None:
        """Per head, the table entry of each feature role; None for csa.

        Built on the tape, a role whose source is in ``MAP_SOURCES`` holds
        the pair (S [L, d, m], P~ [1, K, d, d]) of its map stack and the
        constant lifted stack.  Every other entry, and every entry built
        under ``no_grad``, is A = S^T P~ S of shape [L, K, m, m]."""
        if not self.features:
            return None

        def entry(source, t, lifted):
            if source == "matrix":  # the role's [L, d, m] stack of maps S
                s = reshape(t, (1,) + t.shape)
            else:
                s = hea_unitary_tensors(t if source == "circuits" else [t], self.spec.n_qubits, self.spec.p)
            return (s, lifted) if source in MAP_SOURCES and s.requires_grad else congruence(s, lifted)

        return [{role: entry(source, getattr(self, name)[j], self._lifted[role])
                 for role, (name, source) in self.roles.items() if source != "linear"}
                for j in range(self.spec.H)]


# ---------------------------------------------------------------------------
# the quadratic-feature op
# ---------------------------------------------------------------------------


# Whole sequences per block of a shared-stack forward: at l = 16 and K*m = 256
# a block's rows x^T M_k take 1 MiB, against 8 MiB for all of batch 256.
_FORM_BLOCK = 32
# Tokens per block of the constant-stack backward: 256 KiB of M_n at d = 16.
_FOLD_BLOCK = 128


def _side_by_side(mats: np.ndarray) -> np.ndarray:
    """[..., K, m, m] -> [..., m, K*m]: the K matrices laid side by side."""
    k, m = mats.shape[-3], mats.shape[-1]
    return np.swapaxes(mats, -3, -2).reshape(mats.shape[:-3] + (m, k * m))


def _forms(x: np.ndarray, stacked: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    m = stacked.shape[-2]
    rows = (x @ stacked).reshape(x.shape[:-1] + (stacked.shape[-1] // m, m))
    if out is None:
        return (rows @ x[..., None])[..., 0]
    np.matmul(rows, x[..., None], out=out[..., None])
    return out


def batched_quadratic_forms(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Quadratic forms x^T M_k x for row-stacked real x and real M_k.

    ``mats`` is [L, K, m, m].  With L = 1 its stack is shared by every row
    of ``x`` ([..., m]; the result is [..., K]); otherwise ``x`` is
    [B, l, m] with l <= L, and position i uses ``mats[i]``.

    The K matrices are laid side by side as one [m, K*m] operand, so one
    GEMM gives every x^T M_k and a batched dot with x finishes the
    forms.  The leading axes of ``x`` are kept, so a [B, l, m] input runs
    as B small [l, m] @ [m, K*m] GEMMs (per position: l GEMMs of
    [B, m] @ [m, K*m]): flattening the rows into one GEMM lets a
    multi-threaded BLAS split a tiny product across threads, which costs
    far more than the product itself.

    A shared stack runs over blocks of ``_FORM_BLOCK`` whole sequences
    into one preallocated result, so a block's [b, l, K*m] rows stay in
    cache and are never held for the whole batch.  Each sequence meets the
    same GEMMs as in one call, so the result keeps its bits.  At
    [256, 16, 16], K = 16, one call took 1.06 ms unblocked and 0.92 ms in
    blocks of 32 sequences (0.90-1.19 ms for 8 to 128 per block).
    """
    stacked = _side_by_side(mats)
    if len(stacked) > 1:
        xt = np.swapaxes(x, 0, 1)
        return np.swapaxes(_forms(xt, stacked[: len(xt)]), 0, 1)
    if x.ndim < 3 or len(x) <= _FORM_BLOCK:
        return _forms(x, stacked[0])
    out = np.empty(x.shape[:-1] + (mats.shape[1],))
    for lo in range(0, len(x), _FORM_BLOCK):
        _forms(x[lo : lo + _FORM_BLOCK], stacked[0], out[lo : lo + _FORM_BLOCK])
    return out


def _outer(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[..., K] and [..., m] -> [..., K*m]: the products g_k x laid side by side."""
    return (g[..., :, None] * x[..., None, :]).reshape(g.shape[:-1] + (g.shape[-1] * x.shape[-1],))


def _outer_dx(outer: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """dx = sum_k g_k (A_k + A_k^T) x as one GEMM on the outer products
    :func:`_outer` [..., K*m] against the symmetrized stack [..., m, K*m]."""
    return outer @ np.swapaxes(_side_by_side(coeffs + np.swapaxes(coeffs, -1, -2)), -1, -2)


def _folded_dx(g: np.ndarray, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """dx_n = M_n x_n with M_n = sum_k g_nk (A_k + A_k^T), for one stack
    ``coeffs`` [K, d, d] shared by every token, in blocks of ``_FOLD_BLOCK``
    tokens: a block's M = g @ flat(A + A^T) is one [b, K] @ [K, d*d] GEMM."""
    k, d = coeffs.shape[0], coeffs.shape[-1]
    flat = (coeffs + np.swapaxes(coeffs, -1, -2)).reshape(k, d * d)
    gs, xs = g.reshape(-1, k), x.reshape(-1, d)
    dx = np.empty(xs.shape)
    for lo in range(0, len(xs), _FOLD_BLOCK):
        block = slice(lo, lo + _FOLD_BLOCK)
        fold = (gs[block] @ flat).reshape(-1, d, d)
        np.matmul(fold, xs[block, :, None], out=dx[block, :, None])
    return dx.reshape(x.shape)


def quadratic_features(x: Tensor, a: Tensor) -> Tensor:
    """Tape op: out[b, i, k] = x_bi^T A_k x_bi for tokens x of shape [B, l, d].

    ``a`` is [L, K, d, d]: with L = 1 one stack serves every position,
    otherwise L >= l and position i uses A[i].  The forward is
    :func:`batched_quadratic_forms`.  In training, ``x`` is either the
    normalized token with A on the tape (shared circuits), or y = S x
    from :func:`map_tokens` with the constant lifted stack (the sources
    in ``MAP_SOURCES``).  A per-position stack never takes a gradient
    here: per-position maps train on the map route.

    The backward gives dx = sum_k g_k (A_k + A_k^T) x in one of two
    forms, chosen by the shapes alone:
    * a constant shared stack with d <= K folds g into the stack,
      M_n = sum_k g_nk (A_k + A_k^T), one [b, K] @ [K, d*d] GEMM per block
      of ``_FOLD_BLOCK`` tokens, and then dx_n = M_n x_n.  No [N, K*d]
      outer product is formed.  This is qisa's value at H = 1 (d = K = 16).
      At [256, 16, 16], K = 16, it took 0.98 ms against 2.42 ms for the
      outer products, and one forward and backward peaked at 1.5 MiB by
      tracemalloc; the outer product alone is 8 MiB there;
    * otherwise one GEMM on the outer products g_k x [N, K*d].  A shared
      A on the tape takes dA_k = sum g_k x x^T from the same products.
    """
    if (x.ndim != 3 or a.ndim != 4 or a.shape[-2:] != (x.shape[-1],) * 2
            or 1 < a.shape[0] < x.shape[1]):
        raise ShapeError(f"coefficients of shape {a.shape} do not fit tokens of shape {x.shape}")
    l, per_position = x.shape[1], a.shape[0] > 1
    if per_position and a.requires_grad:
        raise ContractError("a per-position coefficient stack takes no gradient: train per-position maps "
                            "on the map route, the features of y = S x against the constant lifted stack")
    data = batched_quadratic_forms(x.data, a.data[:l])
    coeffs = a.data[:l] if per_position else a.data[0]
    folded = not (per_position or a.requires_grad) and coeffs.shape[-1] <= coeffs.shape[0]

    def backward_fn(g):
        if folded:
            _accum(x, _folded_dx(g, x.data, coeffs))
            return
        xs, gs = x.data, g
        if per_position:  # positions lead, so that each meets its own stack
            xs, gs = np.swapaxes(xs, 0, 1), np.swapaxes(gs, 0, 1)
        outer = _outer(gs, xs)
        if x.requires_grad:
            dx = _outer_dx(outer, coeffs)
            _accum(x, np.swapaxes(dx, 0, 1) if per_position else dx)
        if a.requires_grad:  # shared: [B, d, K*d] summed over the batch
            k, d = coeffs.shape[-3], coeffs.shape[-1]
            da = np.swapaxes(xs, -1, -2) @ outer
            _accum(a, np.swapaxes(da.reshape(da.shape[:-1] + (k, d)), -3, -2).sum(axis=0)[None])

    return _make(data, (x, a), backward_fn)


def map_tokens(x: Tensor, s: Tensor) -> Tensor:
    """Tape op: y_bi = S x_bi for tokens x [B, l, m] and maps s [L, d, m].

    With L = 1 one map serves every position; otherwise L >= l and
    position i uses S[i], as l batched GEMMs [l, B, m] @ [l, m, d] with
    the positions leading.  Positions past l take no gradient."""
    if x.ndim != 3 or s.ndim != 3 or s.shape[-1] != x.shape[-1] or 1 < s.shape[0] < x.shape[1]:
        raise ShapeError(f"maps of shape {s.shape} do not fit tokens of shape {x.shape}")
    l, per_position = x.shape[1], s.shape[0] > 1
    maps = s.data[:l] if per_position else s.data[0]
    if per_position:
        data = np.swapaxes(np.swapaxes(x.data, 0, 1) @ np.swapaxes(maps, -1, -2), 0, 1)
    else:
        data = x.data @ maps.T

    def backward_fn(g):
        if per_position:
            gt = np.swapaxes(g, 0, 1)
            _accum(x, np.swapaxes(gt @ maps, 0, 1))
            if s.requires_grad:
                ds = np.zeros(s.shape)
                np.matmul(np.swapaxes(gt, -1, -2), np.swapaxes(x.data, 0, 1), out=ds[:l])
                _accum(s, ds)
        else:
            _accum(x, g @ maps)
            if s.requires_grad:
                _accum(s, (g.reshape(-1, g.shape[-1]).T @ x.data.reshape(-1, x.shape[-1]))[None])

    return _make(data, (x, s), backward_fn)


def role_features(x: Tensor, entry: Entry) -> Tensor:
    """The features of normalized tokens x [B, l, m] for one table entry:
    A, or the map route's pair (S, P~), whose features are those of S x."""
    if isinstance(entry, tuple):
        s, lifted = entry
        return quadratic_features(map_tokens(x, s), lifted)
    return quadratic_features(x, entry)


# ---------------------------------------------------------------------------
# the attention op
# ---------------------------------------------------------------------------


def causal_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, kernel: str) -> Tensor:
    """Tape op: softmax(S + mask) @ v for queries, keys and values [.., l, d].

    The kernel gives the scores: "dot" S = q k^T / sqrt(d), "gaussian"
    S_ij = -||q_i - k_j||^2, so that A_ij = exp(-||q_i - k_j||^2) normalized
    over j <= i.  The additive mask zeroes the upper triangle before the
    normalization, so each row is a distribution over the causal prefix.

    Both kernels take one score path, q k^T times a scale.  The Gaussian
    kernel expands -||q_i - k_j||^2 = 2 q_i.k_j - |k_j|^2 - |q_i|^2: its
    scale is 2, it subtracts the key-norm bias |k_j|^2, and it drops the
    row constant |q_i|^2, which the softmax over j cancels.

    One node holds the scores, mask, softmax and weighted sum.  For the dot
    kernel the forward and the hand-written backward repeat the operation
    order of the chain of matmul, scale, add, softmax_rows and matmul ops,
    through softmax_rows' own kernels softmax_inplace and softmax_grad, so
    outputs and gradients are bit for bit those of that chain; Gaussian
    outputs and gradients agree with the chain's difference form to rounding.
    """
    if q.shape != k.shape or q.ndim < 2:
        raise ShapeError(f"query and key features must have the same shape, got {q.shape} and {k.shape}")
    if v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"values of shape {v.shape} do not fit queries of shape {q.shape}")
    gaussian = kernel == "gaussian"
    scale = 2.0 if gaussian else 1.0 / math.sqrt(q.shape[-1])
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    if gaussian:
        p -= (k.data * k.data).sum(axis=-1)[..., None, :]
    p += mask
    softmax_inplace(p, "attention scores contain NaN")

    def backward_fn(g):
        if v.requires_grad:
            _accum(v, np.swapaxes(p, -1, -2) @ g)
        if not (q.requires_grad or k.requires_grad):
            return
        gs = softmax_grad(g @ np.swapaxes(v.data, -1, -2), p)
        gs *= scale
        if q.requires_grad:
            _accum(q, gs @ k.data)
        if k.requires_grad:  # (q^T gs)^T, as the chain's transposed k received it
            dk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ gs, -1, -2)
            if gaussian:  # the key-norm bias
                dk -= gs.sum(axis=-2)[..., :, None] * k.data
            _accum(k, dk)

    return _make(p @ v.data, (q, k, v), backward_fn)


# ---------------------------------------------------------------------------
# the forward
# ---------------------------------------------------------------------------


def attention_forward(x: Tensor, w: AttentionWeights, mask: np.ndarray,
                      coeffs: list[dict[str, Entry]] | None) -> Tensor:
    """Causal self-attention of any variant.

    ``coeffs`` is the layer's table entries per head, as
    :meth:`AttentionWeights.coefficients` gives them (built on the tape,
    under ``no_grad`` or frozen in a cache).  A role with an entry reads
    the quadratic features of the normalized tokens (:func:`role_features`);
    every other role reads its linear map.  ``spec.kernel`` scores queries
    against keys, and ``spec.uses_wo`` adds the output projection.
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"attention input must be [l, m] or [B, l, m], got {x.shape}")
    x3 = reshape(x, (1,) + x.shape) if x.ndim == 2 else x
    spec = w.spec
    xn = None if coeffs is None else normalize_rows(x3, zero_fallback=True)
    heads = []
    for j in range(spec.H):
        a = {} if coeffs is None else coeffs[j]
        q, k, v = (role_features(xn, a[role]) if role in a else matmul(x3, getattr(w, name)[j])
                   for role, (name, _) in w.roles.items())
        heads.append(causal_attention(q, k, v, mask, spec.kernel))
    out = heads[0] if spec.H == 1 else concat(heads, axis=-1)
    if spec.uses_wo:
        out = matmul(out, w.wo)
    return reshape(out, out.shape[1:]) if x.ndim == 2 else out
