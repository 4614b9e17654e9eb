"""Statevector-level primitives behind the quantum attention variants.

Pauli-string observables, amplitude encoding of classical vectors, the
layered rotation+CNOT ansatz, expectation values, and the cache of
evolved observables that makes post-training inference a single
quadratic form per observable.

The ansatz is one tape op over a batch of angle sets,
:func:`hea_unitary_tensors`, so rotation angles are trainable: its
forward builds every 2x2 gate in closed form, combines them per layer by
Kronecker products and applies the CNOT chain as a row permutation; its
backward is the adjoint method, which gets each gate's gradient from
prefix and suffix products over the layers and each angle's from the
gate's closed-form derivative.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConfigError, ContractError, DegenerateTokenError
from .tensor import Tensor, _accum, _make, no_grad

_PAULI_1Q = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class PauliString:
    """Word over {I, X, Y, Z}; qubit 0 is the leftmost letter."""

    word: str

    def __post_init__(self):
        if not self.word or any(ch not in _PAULI_1Q for ch in self.word):
            raise ConfigError(f"invalid Pauli word {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def y_parity(self) -> int:
        return self.word.count("Y") % 2

    @property
    def is_identity(self) -> bool:
        return set(self.word) == {"I"}

    def __str__(self):
        return self.word


def pauli_matrix(p: PauliString | str) -> np.ndarray:
    """Dense 2^n x 2^n realization (Kronecker product, qubit 0 leftmost)."""
    word = p.word if isinstance(p, PauliString) else PauliString(p).word
    out = _PAULI_1Q[word[0]]
    for ch in word[1:]:
        out = np.kron(out, _PAULI_1Q[ch])
    return out


def select_observables(n: int, count: int, mode: str) -> list[PauliString]:
    """First ``count`` Pauli strings in lexicographic order (I<X<Y<Z).

    The identity word is always excluded (its expectation is constant).
    Mode "real_congruence" additionally drops words with an odd number
    of Y letters: their matrices are purely imaginary, so quadratic
    forms over real vectors vanish identically.  Mode "unitary" keeps
    every non-identity word.  The words are chosen once per process; each
    call returns a new list of them.
    """
    return list(_select_observables(n, count, mode))


@lru_cache(maxsize=None)
def _select_observables(n: int, count: int, mode: str) -> tuple[PauliString, ...]:
    if mode not in ("real_congruence", "unitary"):
        raise ConfigError(f"unknown observable mode {mode!r}")
    pool: list[PauliString] = []
    for digits in np.ndindex(*(4,) * n):
        p = PauliString("".join("IXYZ"[d] for d in digits))
        if p.is_identity:
            continue
        if mode == "real_congruence" and p.y_parity == 1:
            continue
        pool.append(p)
        if len(pool) == count:
            return tuple(pool)
    raise ConfigError(f"requested {count} observables but only {len(pool)} exist for n={n}, mode={mode}")


def amplitude_encode(x: np.ndarray, n: int, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize ``x`` and zero-pad it into a 2^n statevector."""
    x = np.asarray(x, dtype=np.float64)
    dim = 2**n
    if x.size > dim:
        raise ConfigError(f"vector of length {x.size} does not fit in {n} qubits")
    norm = np.linalg.norm(x)
    if norm < eps:
        raise DegenerateTokenError("cannot amplitude-encode a zero vector")
    state = np.zeros(dim, dtype=np.complex128)
    state[: x.size] = x / norm
    return state


# ---------------------------------------------------------------------------
# hardware-efficient ansatz
# ---------------------------------------------------------------------------


@dataclass
class AnsatzParams:
    """Rotation angles of shape [layers p][qubits n][3 axes], radians."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 3 or self.theta.shape[2] != 3:
            raise ConfigError(f"ansatz angles must have shape [p][n][3], got {self.theta.shape}")

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, p: int) -> "AnsatzParams":
        return cls(rng.uniform(-np.pi, np.pi, size=(p, n, 3)))


@lru_cache(maxsize=None)
def cnot_chain(n: int) -> np.ndarray:
    """Entangler of one ansatz layer: CNOT(q -> q+1) for q = 0..n-2."""
    dim = 2**n
    out = np.eye(dim)
    for q in range(n - 1):
        gate = np.eye(dim)
        for basis in range(dim):
            if (basis >> (n - 1 - q)) & 1:  # control qubit set (qubit 0 = MSB)
                flipped = basis ^ (1 << (n - 2 - q))
                gate[basis, basis] = 0.0
                gate[basis, flipped] = 1.0
        out = gate @ out
    return out


_ROTATION_AXES = np.stack([_PAULI_1Q[a] for a in "XYZ"])  # [3, 2, 2]


@lru_cache(maxsize=None)
def _cnot_rows(n: int) -> np.ndarray:
    """Row permutation of ``cnot_chain(n)``: ``cnot_chain(n) @ a == a[rows]``."""
    return np.argmax(cnot_chain(n), axis=1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, batched over the leading ones."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


def hea_unitary_tensors(thetas, n: int, p: int) -> Tensor:
    """Tape op: the ansatz unitaries of S angle sets in one node.

    ``thetas`` is a sequence of S angle tensors, each of shape [p, n, 3].
    One layer applies RX, RY, RZ on every qubit (in that order) and then
    the CNOT chain; layers compose left to right in application order.
    Returns the rows [Re U; Im U] of every unitary, shape [S, 2m, m] with
    m = 2^n.

    Forward: the 2x2 gates RZ RY RX of all S*p*n qubits at once, their
    Kronecker product per layer (prefix products over the qubits), the
    CNOT chain as a row permutation, and the p layers multiplied out.
    Backward is the adjoint method (Jones & Gacon, arXiv:2009.02823):
    with G = dL/dRe U + i dL/dIm U, prefix and suffix products over the
    layers give each layer's gradient, contracting it with the other
    qubits' gates gives each 2x2 gate's gradient Gamma, and
    dL/dtheta_a = Re tr(Gamma^dag dg/dtheta_a), where the rotation
    R_a = exp(-i theta_a P_a / 2) has dR_a/dtheta_a = -i/2 P_a R_a.
    """
    thetas = tuple(thetas)
    if not thetas or any(t.shape != (p, n, 3) for t in thetas):
        raise ConfigError(f"ansatz angles must be one or more tensors of shape ({p}, {n}, 3), "
                          f"got {[t.shape for t in thetas]}")
    m = 2**n
    rows = _cnot_rows(n)
    half = np.stack([t.data for t in thetas]) * 0.5  # [S, p, n, 3]
    c, s = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    # exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P for P = X, Y, Z
    rx, ry, rz = np.moveaxis(c * np.eye(2) - 1j * s * _ROTATION_AXES, -3, 0)
    gates = rz @ ry @ rx  # [S, p, n, 2, 2]
    left = [np.ones(gates.shape[:2] + (1, 1))]  # left[q] = g_0 x ... x g_{q-1}
    for q in range(n):
        left.append(_kron(left[-1], gates[:, :, q]))
    layers = left[n][:, :, rows, :]  # [S, p, m, m]: CNOT chain after the rotations
    prefix = [layers[:, 0]]  # prefix[j] = L_j ... L_0
    for j in range(1, p):
        prefix.append(layers[:, j] @ prefix[-1])
    u = prefix[-1]
    data = np.concatenate([u.real, u.imag], axis=-2)

    def backward_fn(g):
        grad_u = g[:, :m] + 1j * g[:, m:]
        # dL/dR_j = C^T A_j^dag G B_j^dag, A_j the layers after j, B_j those before
        grad_layers = np.empty_like(layers)
        suffix = None  # L_{p-1} ... L_{j+1}
        for j in reversed(range(p)):
            env = grad_u if suffix is None else _adjoint(suffix) @ grad_u
            grad_layers[:, j][:, rows] = env @ _adjoint(prefix[j - 1]) if j else env
            suffix = layers[:, j] if suffix is None else suffix @ layers[:, j]
        right = [np.ones(gates.shape[:2] + (1, 1))]  # right[q] = g_{q+1} x ... x g_{n-1}
        for q in reversed(range(1, n)):
            right.insert(0, _kron(gates[:, :, q], right[0]))
        grad_gates = np.empty_like(gates)
        for q in range(n):
            dl, dr = 2**q, 2 ** (n - 1 - q)
            blocks = grad_layers.reshape(gates.shape[:2] + (dl, 2, dr, dl, 2, dr))
            grad_gates[:, :, q] = np.einsum("spxazybw,spxy,spzw->spab", blocks,
                                            left[q].conj(), right[q].conj())
        # dg/dtheta_a = (rotations after a) (-i/2 P_a) (rotations up to a)
        grad_theta = np.empty(half.shape)
        for a, (later, upto) in enumerate([(rz @ ry, rx), (rz, ry @ rx), (np.eye(2), gates)]):
            dg = later @ (-0.5j * _ROTATION_AXES[a]) @ upto
            grad_theta[..., a] = np.real(np.sum(grad_gates.conj() * dg, axis=(-2, -1)))
        for t, gt in zip(thetas, grad_theta):
            _accum(t, gt)

    return _make(data, thetas, backward_fn)


def hea_unitary(params: AnsatzParams) -> np.ndarray:
    """Ansatz unitary as a plain complex matrix (no gradient tracking)."""
    m = 2**params.n
    with no_grad():
        rows = hea_unitary_tensors([Tensor(params.theta)], params.n, params.p).data[0]
    return rows[:m] + 1j * rows[m:]


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------


def expectation(state: np.ndarray, obs: np.ndarray) -> float:
    """<psi|O|psi> for a unit statevector and a Hermitian observable."""
    state = np.asarray(state, dtype=np.complex128)
    obs = np.asarray(obs, dtype=np.complex128)
    if not np.allclose(obs, obs.conj().T, atol=1e-10):
        raise ContractError("observable is not Hermitian")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-9:
        raise ContractError(f"state is not normalized (|psi| = {norm})")
    return float(np.real(np.vdot(state, obs @ state)))


# ---------------------------------------------------------------------------
# evolved-observable cache
# ---------------------------------------------------------------------------


_ROLES = ("value", "query", "key")


def frozen_roles(roles: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """A read-only ``{role: A}`` of read-only copies of the given arrays."""
    out = {}
    for role, a in roles.items():
        out[role] = np.array(a)
        out[role].flags.writeable = False
    return MappingProxyType(out)


@dataclass(frozen=True)
class ObservableCache:
    """Immutable map (layer, head) -> {role: A}, a frozen coefficient table.

    Each A holds the real coefficients A_k = Re(U^dag P_k U) (for qisa,
    W^T Re(P_k) W) of shape [instances, n_obs, d, d]; instances is 1 when
    the head shares one map across tokens and equals the context length
    for the per-position variant.  The roles are "value", plus "query"
    and "key" for the qsann variants; :func:`frozen_roles` makes each
    entry.  ``built_from`` is the parameter hash of the model it was built
    from; ``LanguageModel.coefficients`` decides whether a cache fits.
    """

    variant: str
    built_from: str
    evolved: Mapping[tuple[int, int], Mapping[str, np.ndarray]]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"QOC2"
_HEADER_FIELDS = {"variant": str, "parameter_hash": str, "entries": list, "blob_sha256": str}
_ENTRY_FIELDS = {"layer": int, "head": int, "role": str, "instances": int, "per_instance": int,
                 "dim": int}


def params_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def save_cache(cache: ObservableCache, path) -> None:
    """Write the documented binary format: magic, JSON header, float64 matrix blob."""
    entries = []
    blobs = []
    digest = hashlib.sha256()
    for (layer, head), roles in sorted(cache.evolved.items()):
        for role in (r for r in _ROLES if r in roles):
            arr = roles[role]
            inst, count, dim, _ = arr.shape
            entries.append({"layer": layer, "head": head, "role": role,
                            "instances": inst, "per_instance": count, "dim": dim})
            blobs.append(np.ascontiguousarray(arr, dtype="<f8"))
            digest.update(blobs[-1])
    header = json.dumps({
        "variant": cache.variant,
        "parameter_hash": cache.built_from,
        "entries": entries,
        "blob_sha256": digest.hexdigest(),
    }).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
    except OSError as exc:
        raise ConfigError(f"cannot write observable cache {path}: {exc}") from exc


def _check_fields(obj, fields: dict, bad) -> None:
    if not isinstance(obj, dict):
        raise bad(f"{obj!r:.40} is not a JSON object")
    for name, kind in fields.items():
        if name not in obj:
            raise bad(f"missing key {name!r}")
        value = obj[name]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise bad(f"{name!r} is not of type {kind.__name__}")


def _check_header(raw: bytes, blob_bytes: int, bad) -> dict:
    """Parse a QOC2 header: every key of ``_HEADER_FIELDS`` (others are
    ignored), entries with positive sizes and consistent roles, and float64
    matrices that fill exactly the ``blob_bytes`` after the header."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError:  # also UnicodeDecodeError
        raise bad("the header is not UTF-8 JSON") from None
    _check_fields(header, _HEADER_FIELDS, bad)
    total, roles = 0, {}
    for ent in header["entries"]:
        _check_fields(ent, _ENTRY_FIELDS, bad)
        role = ent["role"]
        if role not in _ROLES:
            raise bad(f"unknown role {role!r}")
        if ent["instances"] < 1 or ent["per_instance"] < 1 or ent["dim"] < 1:
            raise bad("an entry has a non-positive instance count, observable count or dim")
        head_roles = roles.setdefault((ent["layer"], ent["head"]), set())
        if role in head_roles:
            raise bad(f"two {role} entries for layer {ent['layer']}, head {ent['head']}")
        head_roles.add(role)
        total += 8 * ent["instances"] * ent["per_instance"] * ent["dim"] ** 2
    for (layer, head), head_roles in roles.items():
        if "value" not in head_roles or ("query" in head_roles) != ("key" in head_roles):
            raise bad(f"layer {layer}, head {head} has roles {sorted(head_roles)}")
    if total != blob_bytes:
        raise bad(f"the entries need {total} bytes of matrices, the file holds {blob_bytes}")
    return header


def load_cache(path) -> ObservableCache:
    """Read a QOC2 file into its frozen coefficient table.

    The header is checked against itself and against the file size before
    the blob is read, the blob against the header's ``blob_sha256``, and
    every matrix for non-finite entries; a malformed file raises
    ConfigError naming it.  A QOC1 file, the earlier complex128 layout, is
    refused with the command that rebuilds it.
    """

    def bad(why):
        return ConfigError(f"{path} is not a valid observable cache: {why}")

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read observable cache {path}: {exc}") from exc
    with fh:
        magic = fh.read(4)
        if magic == b"QOC1":
            raise ConfigError(f"{path} is a QOC1 observable cache, a format this version no longer reads; "
                              f"rebuild it with `qisa-lab cache --checkpoint <checkpoint> --out {path}`")
        if magic != _MAGIC:
            raise ConfigError(f"{path} is not an observable cache file")
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        hlen = struct.unpack("<Q", prefix)[0] if len(prefix) == 8 else size
        if 12 + hlen > size:
            raise bad("the header runs past the end of the file")
        header = _check_header(fh.read(hlen), size - 12 - hlen, bad)
        blob = fh.read(size - 12 - hlen)  # with no size, read() grows its buffer: 10x slower at 3.5 MB
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise bad("the matrices do not match the header's blob_sha256")
    parts: dict[tuple[int, int], dict[str, np.ndarray]] = {}
    offset = 0
    for ent in header["entries"]:
        shape = (ent["instances"], ent["per_instance"], ent["dim"], ent["dim"])
        arr = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=offset).reshape(shape)
        offset += arr.nbytes
        if not np.isfinite(arr).all():
            raise bad(f"the layer {ent['layer']}, head {ent['head']} {ent['role']} matrices "
                      f"hold a non-finite entry")
        parts.setdefault((ent["layer"], ent["head"]), {})[ent["role"]] = arr
    return ObservableCache(
        variant=header["variant"],
        built_from=header["parameter_hash"],
        evolved=MappingProxyType({key: frozen_roles(roles) for key, roles in parts.items()}),
    )
