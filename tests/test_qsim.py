import hashlib
import json
import re
import struct
from types import MappingProxyType

import numpy as np
import pytest

from conftest import finite_diff, rel_err
from qisa_lab import qsim
from qisa_lab.attention import _lift, batched_quadratic_forms, congruence
from qisa_lab.errors import ConfigError, ContractError, DegenerateTokenError
from qisa_lab.qsim import (
    AnsatzParams,
    ObservableCache,
    PauliString,
    amplitude_encode,
    cnot_chain,
    expectation,
    frozen_roles,
    hea_unitary,
    hea_unitary_tensors,
    load_cache,
    pauli_matrix,
    save_cache,
    select_observables,
)
from qisa_lab.tensor import Tensor, matmul

# reference oracles: one expectation at a time, against which the batched
# feature op and the cache are checked


def congruence_expectation(x, w: Tensor, obs: PauliString | str) -> Tensor:
    """<x| W^T P W |x> as a differentiable scalar.

    Requires an even-Y observable: odd-Y Pauli matrices are purely
    imaginary, which makes the quadratic form over real vectors vanish
    identically, so requesting one is a configuration mistake.
    """
    p = obs if isinstance(obs, PauliString) else PauliString(obs)
    if p.y_parity == 1:
        raise ConfigError(f"observable {p.word} has odd Y-parity; its congruence expectation is always 0")
    x = x if isinstance(x, Tensor) else Tensor(x)
    m = Tensor(np.real(pauli_matrix(p)))
    y = matmul(x.reshape(1, -1), w.T)
    return matmul(matmul(y, m), y.T).reshape(())


def cached_expectation(
    x: np.ndarray,
    cache: ObservableCache,
    layer: int,
    head: int,
    k: int,
) -> float:
    """<x|P'|x> from the cache: one matrix-vector and one dot product."""
    mat = cache.evolved[(layer, head)]["value"][0, k]
    x = np.asarray(x, dtype=np.complex128)
    return float(np.real(np.vdot(x, mat @ x)))


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestPauli:
    def test_z(self):
        np.testing.assert_array_equal(pauli_matrix("Z"), np.diag([1, -1]).astype(complex))

    def test_zz(self):
        np.testing.assert_array_equal(pauli_matrix("ZZ"), np.diag([1, -1, -1, 1]).astype(complex))

    def test_y(self):
        np.testing.assert_array_equal(pauli_matrix("Y"), np.array([[0, -1j], [1j, 0]]))

    def test_square_and_hermitian(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            word = "".join(rng.choice(list("IXYZ"), size=n))
            m = pauli_matrix(word)
            assert np.abs(m @ m - np.eye(2**n)).max() < 1e-12
            assert np.abs(m - m.conj().T).max() < 1e-12

    def test_invalid_word(self):
        with pytest.raises(ConfigError):
            PauliString("XQ")

    def test_y_parity(self):
        assert PauliString("YY").y_parity == 0
        assert PauliString("XYZ").y_parity == 1


class TestSelectObservables:
    def test_real_congruence_ordering(self):
        # enumerate by hand: lexicographic I<X<Y<Z, drop II and odd-Y words
        obs = select_observables(2, 4, "real_congruence")
        assert [o.word for o in obs] == ["IX", "IZ", "XI", "XX"]

    def test_real_congruence_full_pool(self):
        obs = select_observables(2, 9, "real_congruence")
        assert [o.word for o in obs] == ["IX", "IZ", "XI", "XX", "XZ", "YY", "ZI", "ZX", "ZZ"]

    def test_unitary_single_qubit(self):
        assert [o.word for o in select_observables(1, 3, "unitary")] == ["X", "Y", "Z"]

    def test_pool_exhausted(self):
        for mode in ("real_congruence", "unitary"):
            with pytest.raises(ConfigError):
                select_observables(2, 100, mode)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            select_observables(2, 1, "banana")


class TestAmplitudeEncode:
    def test_normalization(self):
        np.testing.assert_allclose(amplitude_encode([3.0, 4.0], 1), [0.6, 0.8])

    def test_basis_state(self):
        np.testing.assert_array_equal(amplitude_encode([1.0, 0, 0, 0], 2), [1, 0, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(DegenerateTokenError):
            amplitude_encode([0.0, 0.0], 1)

    def test_padding(self):
        state = amplitude_encode([1.0, 1.0, 1.0], 2)
        np.testing.assert_allclose(state, [1 / np.sqrt(3)] * 3 + [0.0])

    def test_too_large(self):
        with pytest.raises(ConfigError):
            amplitude_encode(np.ones(5), 2)


class TestHeaUnitary:
    def test_zero_angles_give_cnot(self):
        u = hea_unitary(AnsatzParams(np.zeros((1, 2, 3))))
        np.testing.assert_allclose(u, CNOT, atol=1e-15)

    def test_cnot_chain_three_qubits(self):
        # apply CNOT(0->1) then CNOT(1->2) to |100>: expect |111>
        chain = cnot_chain(3)
        src = np.zeros(8)
        src[0b100] = 1.0
        out = chain @ src
        assert out[0b111] == 1.0

    def test_unitarity_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            u = hea_unitary(AnsatzParams.random(rng, n, p))
            assert np.abs(u.conj().T @ u - np.eye(2**n)).max() < 1e-12

    def test_single_qubit_rx_pi(self):
        theta = np.zeros((1, 1, 3))
        theta[0, 0, 0] = np.pi
        u = hea_unitary(AnsatzParams(theta))
        assert abs(abs(u[0, 1]) - 1.0) < 1e-12  # RX(pi) = -iX up to phase

    def test_layers_compose(self, rng):
        params = AnsatzParams.random(rng, 2, 3)
        u_full = hea_unitary(params)
        u_prod = np.eye(4, dtype=complex)
        for layer in range(3):
            u_prod = hea_unitary(AnsatzParams(params.theta[layer][None])) @ u_prod
        assert np.abs(u_full - u_prod).max() < 1e-12

    def test_angle_gradients(self, rng):
        theta0 = rng.uniform(-np.pi, np.pi, size=(2, 2, 3))
        w_re = rng.normal(size=(4, 4))
        w_im = rng.normal(size=(4, 4))

        def loss_data(arr):
            u = hea_unitary(AnsatzParams(arr))
            return float((u.real * w_re).sum() + (u.imag * w_im).sum())

        t = Tensor(theta0.copy(), requires_grad=True)
        rows = hea_unitary_tensors([t], 2, 2)
        (rows * Tensor(np.concatenate([w_re, w_im])[None])).sum().backward()
        numeric = finite_diff(loss_data, theta0.copy())
        assert rel_err(t.grad, numeric) < 1e-6

    def test_rejects_bad_angle_shapes(self):
        with pytest.raises(ConfigError):
            hea_unitary_tensors([], 2, 1)
        with pytest.raises(ConfigError):
            hea_unitary_tensors([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 3)))], 2, 1)


def _rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if axis == 0:
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == 1:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def dense_ansatz(theta: np.ndarray) -> np.ndarray:
    """Reference unitary: per layer, the dense Kronecker product of each
    qubit's RZ RY RX, then the CNOT chain; layers applied in order."""
    p, n, _ = theta.shape
    u = np.eye(2**n, dtype=complex)
    for layer in range(p):
        rot = np.ones((1, 1), dtype=complex)
        for q in range(n):
            x, y, z = theta[layer, q]
            rot = np.kron(rot, _rotation(2, z) @ _rotation(1, y) @ _rotation(0, x))
        u = cnot_chain(n) @ rot @ u
    return u


ORACLE_GRID = [(n, p) for n in (1, 2, 4) for p in (1, 2)]


class TestBatchedAnsatzOracles:
    """The op against references that share none of its code."""

    S = 3

    @pytest.mark.parametrize("n,p", ORACLE_GRID)
    def test_forward_matches_dense_kron(self, n, p, rng):
        thetas = [rng.uniform(-np.pi, np.pi, (p, n, 3)) for _ in range(self.S)]
        rows = hea_unitary_tensors([Tensor(t) for t in thetas], n, p).data
        m = 2**n
        assert rows.shape == (self.S, 2 * m, m)
        for s, theta in enumerate(thetas):
            u = dense_ansatz(theta)
            assert np.abs(rows[s, :m] - u.real).max() < 1e-12
            assert np.abs(rows[s, m:] - u.imag).max() < 1e-12

    @pytest.mark.parametrize("n,p", ORACLE_GRID)
    def test_gradient_matches_parameter_shift(self, n, p, rng):
        """f = sum_s,k w_sk <x_s|U_s^dag P_k U_s|x_s> has one frequency in
        each angle, so the shift rule [f(t + pi/2) - f(t - pi/2)] / 2 is
        exact.  Every member of the batch has its own angles, tokens and
        weights, so a gradient routed to the wrong member fails."""
        m = 2**n
        obs = select_observables(n, min(3, 4**n - 1), "unitary")
        paulis = np.stack([pauli_matrix(o) for o in obs])
        thetas = [rng.uniform(-np.pi, np.pi, (p, n, 3)) for _ in range(self.S)]
        xs = rng.normal(size=(self.S, m))
        w = rng.normal(size=(self.S, len(obs)))

        def f(angles):
            total = 0.0
            for s, theta in enumerate(angles):
                state = dense_ansatz(theta) @ xs[s]
                total += sum(w[s, k] * np.real(np.vdot(state, pk @ state)) for k, pk in enumerate(paulis))
            return total

        tensors = [Tensor(t.copy(), requires_grad=True) for t in thetas]
        coeffs = congruence(hea_unitary_tensors(tensors, n, p), _lift(obs))  # [S, K, m, m]
        weights = w[:, :, None, None] * xs[:, None, :, None] * xs[:, None, None, :]
        (coeffs * Tensor(weights)).sum().backward()
        for s in range(self.S):
            shifted = np.zeros((p, n, 3))
            for idx in np.ndindex(p, n, 3):
                plus = [t.copy() for t in thetas]
                minus = [t.copy() for t in thetas]
                plus[s][idx] += np.pi / 2
                minus[s][idx] -= np.pi / 2
                shifted[idx] = (f(plus) - f(minus)) / 2
            assert rel_err(tensors[s].grad, shifted) < 1e-10, s


class TestExpectation:
    def test_eigenstate(self):
        assert expectation([1, 0], pauli_matrix("Z")) == 1.0

    def test_superposition(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(expectation(plus, pauli_matrix("Z"))) < 1e-12
        assert abs(expectation(plus, pauli_matrix("X")) - 1.0) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError):
            expectation([1, 0], np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractError):
            expectation([1, 1], pauli_matrix("Z"))

    def test_bounds(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            word = "".join(rng.choice(list("IXYZ"), size=n))
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            v /= np.linalg.norm(v)
            assert -1.0 - 1e-12 <= expectation(v, pauli_matrix(word)) <= 1.0 + 1e-12


class TestCongruenceExpectation:
    def test_identity_map_basis_state(self):
        w = Tensor(np.eye(4))
        val = congruence_expectation(np.array([1.0, 0, 0, 0]), w, "ZZ")
        assert abs(val.item() - 1.0) < 1e-15

    def test_quadratic_scaling(self):
        w = Tensor(2 * np.eye(4))
        val = congruence_expectation(np.array([1.0, 0, 0, 0]), w, "ZZ")
        assert abs(val.item() - 4.0) < 1e-15

    def test_against_dense_oracle(self, rng):
        for _ in range(10):
            w = rng.normal(size=(4, 4))
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            for word in ("IX", "XX", "ZZ", "YY"):
                got = congruence_expectation(x, Tensor(w), word).item()
                p = pauli_matrix(word)
                expect = np.real(x @ w.T @ p @ w @ x)
                assert abs(got - expect) < 1e-12

    def test_odd_y_rejected(self):
        with pytest.raises(ConfigError):
            congruence_expectation(np.array([1.0, 0, 0, 0]), Tensor(np.eye(4)), "IY")

    def test_odd_y_strings_vanish_brute_force(self, rng):
        odd = [PauliString("".join(w)) for w in
               ("IY", "YI", "XY", "YX", "ZY", "YZ")]
        for _ in range(100):
            w = rng.normal(size=(4, 4))
            x = rng.normal(size=4)
            for p in odd:
                val = np.real(x @ w.T @ pauli_matrix(p) @ w @ x)
                assert abs(val) < 1e-12

    def test_gradient_wrt_map_and_input(self, rng):
        x0 = rng.normal(size=4)
        x0 /= np.linalg.norm(x0)
        w0 = rng.normal(size=(4, 4))

        w = Tensor(w0.copy(), requires_grad=True)
        congruence_expectation(x0, w, "XZ").backward()
        numeric = finite_diff(lambda arr: congruence_expectation(x0, Tensor(arr), "XZ").item(), w0.copy())
        assert rel_err(w.grad, numeric) < 1e-4

        xt = Tensor(x0.copy(), requires_grad=True)
        congruence_expectation(xt, Tensor(w0), "XZ").backward()
        numeric = finite_diff(lambda arr: congruence_expectation(arr, Tensor(w0), "XZ").item(), x0.copy())
        assert rel_err(xt.grad, numeric) < 1e-4


def build_cache(per_head_maps, observables, *, variant="", built_from=""):
    """A cache of the coefficients A_k = S^T P~_k S of each head's fixed map:
    S = [Re U; Im U] for a complex unitary U, S = W for a real map W."""
    real = not any(np.iscomplexobj(mat) for mat in per_head_maps.values())
    lifted = _lift(observables, real=real)
    entries = {}
    for key, mat in per_head_maps.items():
        s = mat if real else np.vstack([mat.real, mat.imag])
        entries[key] = frozen_roles({"value": congruence(Tensor(s[None]), lifted).data})
    return ObservableCache(variant=variant, built_from=built_from, evolved=MappingProxyType(entries))


def _assert_batched_forms_match_cache(cache, rng):
    """batched_quadratic_forms on [l, m] and [B, l, m] vs per-entry cached_expectation."""
    mats = cache.evolved[(0, 0)]["value"]
    k_obs, m = mats.shape[1], mats.shape[-1]
    for shape in ((5, m), (3, 5, m)):
        x = rng.normal(size=shape)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        got = batched_quadratic_forms(x, mats)
        assert got.shape == shape[:-1] + (k_obs,)
        for idx in np.ndindex(*shape[:-1]):
            for k in range(k_obs):
                assert abs(got[idx + (k,)] - cached_expectation(x[idx], cache, 0, 0, k)) < 1e-12


def _rewrite_header(path, edit):
    """Apply ``edit`` to a cache file's JSON header, keeping its blobs."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12:12 + hlen])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<Q", len(raw)) + raw + data[12 + hlen:])


class TestObservableCache:
    def test_identity_evolution(self):
        obs = select_observables(2, 4, "unitary")
        cache = build_cache({(0, 0): np.eye(4, dtype=complex)}, obs)
        value = cache.evolved[(0, 0)]["value"]
        for k, o in enumerate(obs):
            np.testing.assert_allclose(value[0, k], pauli_matrix(o).real, atol=1e-15)

    def test_cached_matches_direct_simulation(self, rng):
        obs = select_observables(2, 6, "unitary")
        u = hea_unitary(AnsatzParams.random(rng, 2, 2))
        cache = build_cache({(0, 0): u}, obs)
        for _ in range(20):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            for k, o in enumerate(obs):
                direct = expectation(u @ x.astype(complex), pauli_matrix(o))
                assert abs(cached_expectation(x, cache, 0, 0, k) - direct) < 1e-10
        _assert_batched_forms_match_cache(cache, rng)
        u16 = hea_unitary(AnsatzParams.random(rng, 4, 1))
        cache16 = build_cache({(0, 0): u16}, select_observables(4, 15, "unitary"))
        _assert_batched_forms_match_cache(cache16, rng)

    def test_congruence_identity(self, rng):
        obs = select_observables(2, 4, "real_congruence")
        cache = build_cache({(0, 0): np.eye(4)}, obs)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        for k, o in enumerate(obs):
            direct = congruence_expectation(x, Tensor(np.eye(4)), o).item()
            assert abs(cached_expectation(x, cache, 0, 0, k) - direct) < 1e-12
        _assert_batched_forms_match_cache(cache, rng)

    def test_congruence_random_map(self, rng):
        obs = select_observables(2, 4, "real_congruence")
        w = rng.normal(size=(4, 4))
        cache = build_cache({(0, 0): w}, obs)
        for _ in range(20):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            for k, o in enumerate(obs):
                direct = congruence_expectation(x, Tensor(w), o).item()
                assert abs(cached_expectation(x, cache, 0, 0, k) - direct) < 1e-10
        _assert_batched_forms_match_cache(cache, rng)
        w16 = rng.normal(size=(16, 16)) / 4.0
        cache16 = build_cache({(0, 0): w16}, select_observables(4, 15, "real_congruence"))
        _assert_batched_forms_match_cache(cache16, rng)

    def test_identity_cache_all_z(self):
        obs = [PauliString("ZZ")]
        cache = build_cache({(0, 0): np.eye(4, dtype=complex)}, obs)
        assert cached_expectation([1.0, 0, 0, 0], cache, 0, 0, 0) == 1.0

    def test_hermiticity_preserved(self, rng):
        obs = select_observables(2, 4, "unitary")
        u = hea_unitary(AnsatzParams.random(rng, 2, 1))
        cache = build_cache({(0, 0): u}, obs)
        arr = cache.evolved[(0, 0)]["value"]
        assert np.abs(arr - np.conj(np.swapaxes(arr, -1, -2))).max() < 1e-12

    def test_immutable(self, rng):
        cache = build_cache({(0, 0): np.eye(2, dtype=complex)}, [PauliString("Z")])
        with pytest.raises(ValueError):
            cache.evolved[(0, 0)]["value"][0, 0, 0, 0] = 5.0
        with pytest.raises(TypeError):
            cache.evolved[(1, 1)] = None
        with pytest.raises(TypeError):
            cache.evolved[(0, 0)]["query"] = None

    def test_roundtrip_serialization(self, rng, tmp_path):
        obs = select_observables(2, 5, "unitary")
        u1 = hea_unitary(AnsatzParams.random(rng, 2, 2))
        u2 = hea_unitary(AnsatzParams.random(rng, 2, 2))
        cache = build_cache({(0, 0): u1, (1, 0): u2}, obs, variant="qisa_a", built_from="deadbeef")
        path = tmp_path / "cache.bin"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded.variant == "qisa_a"
        assert loaded.built_from == "deadbeef"
        for key in cache.evolved:
            np.testing.assert_array_equal(loaded.evolved[key]["value"], cache.evolved[key]["value"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache")
        with pytest.raises(ConfigError):
            load_cache(path)


class TestCacheFileChecks:
    """load_cache checks the header against itself and the file size first."""

    @pytest.fixture
    def cache_file(self, tmp_path):
        cache = build_cache({(0, 0): np.eye(4, dtype=complex), (1, 0): np.eye(4, dtype=complex)},
                            select_observables(2, 3, "unitary"), built_from="abc")
        path = tmp_path / "cache.bin"
        save_cache(cache, path)
        return path

    def test_truncated_blob(self, cache_file):
        cache_file.write_bytes(cache_file.read_bytes()[:-7])
        with pytest.raises(ConfigError, match="bytes"):
            load_cache(cache_file)

    def test_header_past_end_of_file(self, cache_file):
        data = cache_file.read_bytes()
        cache_file.write_bytes(data[:4] + struct.pack("<Q", len(data)) + data[12:])
        with pytest.raises(ConfigError, match="end of the file"):
            load_cache(cache_file)

    def test_header_not_json(self, cache_file):
        data = bytearray(cache_file.read_bytes())
        data[12] = 0xFF  # the opening brace becomes an invalid UTF-8 byte
        cache_file.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="JSON"):
            load_cache(cache_file)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h.pop("parameter_hash"), "parameter_hash"),
        (lambda h: h["entries"][0].pop("dim"), "dim"),
        (lambda h: h["entries"][0].update(per_instance=0), "non-positive"),
        (lambda h: h["entries"][0].update(instances=-1), "non-positive"),
        (lambda h: h["entries"][0].update(role="bias"), "role"),
        (lambda h: h["entries"][1].update(role="query"), "roles"),
        (lambda h: h["entries"][1].update(layer=0), "two value entries"),
        (lambda h: h.pop("blob_sha256"), "blob_sha256"),
        (lambda h: h["entries"][0].update(dim=0), "non-positive"),
        (lambda h: h["entries"][0].update(dim=8), "bytes"),  # the entries hold 4x4 matrices
    ])
    def test_bad_header(self, cache_file, edit, match):
        _rewrite_header(cache_file, edit)
        with pytest.raises(ConfigError, match=match):
            load_cache(cache_file)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_cache(tmp_path / "absent.cache")

    def test_header_records_the_blob_sha256(self, cache_file):
        data = cache_file.read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        header = json.loads(data[12:12 + hlen])
        assert header["blob_sha256"] == hashlib.sha256(data[12 + hlen:]).hexdigest()

    def test_written_header_keys_are_the_required_ones(self, cache_file):
        """save_cache writes exactly the header keys load_cache requires:
        each one it writes is refused when dropped, and there are no others."""
        data = cache_file.read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        written = set(json.loads(data[12:12 + hlen]))
        assert written == set(qsim._HEADER_FIELDS)
        for key in written:
            cache_file.write_bytes(data)
            _rewrite_header(cache_file, lambda h: h.pop(key))
            with pytest.raises(ConfigError, match=f"missing key '{key}'"):
                load_cache(cache_file)

    def test_blob_is_the_table_as_little_endian_float64(self, cache_file):
        data = cache_file.read_bytes()
        (hlen,) = struct.unpack("<Q", data[4:12])
        loaded = load_cache(cache_file)
        table = np.concatenate([loaded.evolved[key]["value"].ravel() for key in sorted(loaded.evolved)])
        assert data[12 + hlen:] == table.astype("<f8").tobytes()

    def test_flipped_blob_byte(self, cache_file):
        data = bytearray(cache_file.read_bytes())
        data[-3] ^= 0x01  # the last mantissa bits but one of the last matrix entry
        cache_file.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match=re.escape(str(cache_file)) + ".*blob_sha256"):
            load_cache(cache_file)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, tmp_path, bad):
        arr = np.zeros((1, 3, 4, 4))
        arr[0, 2, 1, 3] = bad
        cache = ObservableCache(variant="qisa_a", built_from="abc", evolved={(0, 0): frozen_roles({"value": arr})})
        path = tmp_path / "cache.bin"
        save_cache(cache, path)  # a matching blob_sha256: only the finiteness check refuses it
        with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*non-finite"):
            load_cache(path)
