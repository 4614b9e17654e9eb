import math

import numpy as np
import pytest

from conftest import finite_diff, rel_err
from qisa_lab import attention
from qisa_lab.attention import (
    VARIANTS,
    AttentionSpec,
    AttentionWeights,
    _lift,
    attention_forward,
    batched_quadratic_forms,
    canonical_variant,
    causal_attention,
    causal_mask,
    count_params,
    output_projection_params,
    quadratic_features,
    role_features,
    total_attention_params,
)
from qisa_lab.errors import ConfigError, ContractError, NumericError, ShapeError
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.qsim import (
    AnsatzParams,
    PauliString,
    amplitude_encode,
    expectation,
    hea_unitary,
    pauli_matrix,
    select_observables,
)
from qisa_lab.tensor import (
    Tensor,
    _toposort,
    cross_entropy,
    matmul,
    normalize_rows,
    reshape,
    softmax_rows,
    swap_last,
)


def make_weights(variant, m=4, H=1, l=8, p=1, seed=0, **kw):
    spec = AttentionSpec(variant, m=m, H=H, l=l, p=p, **kw)
    return AttentionWeights(spec, np.random.default_rng(seed))


def attend(x, w, mask):
    """One attention forward with the layer's coefficients built on the tape."""
    return attention_forward(x, w, mask, w.coefficients())


def attention_weights(q, k, mask, kernel="dot"):
    """The attention weights of the op, read through an identity value matrix."""
    eye = np.broadcast_to(np.eye(q.shape[-2]), q.shape[:-1] + (q.shape[-2],))
    return causal_attention(q, k, Tensor(eye), mask, kernel).data


def reference_attention(q, k, v, mask, kernel):
    """The composite chain the op fuses: scores, scale (dot) or negated
    squared distance (Gaussian), mask, softmax_rows, then the weighted sum."""
    if kernel == "dot":
        scores = matmul(q, swap_last(k)) * (1.0 / math.sqrt(q.shape[-1]))
    else:
        l, d = q.shape[-2], q.shape[-1]
        diff = reshape(q, q.shape[:-2] + (l, 1, d)) - reshape(k, k.shape[:-2] + (1, l, d))
        scores = (diff * diff).sum(axis=-1) * -1.0
    return matmul(softmax_rows(scores + Tensor(mask)), v)


def features(w, x, role="value", head=0):
    """One head's features of tokens x [B, l, m] on the training path."""
    xn = normalize_rows(Tensor(x), zero_fallback=True)
    return role_features(xn, w.coefficients()[head][role]).data


class TestSpec:
    def test_variant_aliases(self):
        assert canonical_variant("QISA-A") == "qisa_a"
        assert canonical_variant("QSANNv2") == "qsann_v2"
        with pytest.raises(ConfigError):
            canonical_variant("attention")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            AttentionSpec("csa", m=6, H=4, l=8)

    def test_power_of_two_required_for_quantum(self):
        AttentionSpec("csa", m=6, H=2, l=8)  # classical: fine
        with pytest.raises(ConfigError):
            AttentionSpec("qisa", m=6, H=2, l=8)

    def test_qsann_multihead_warns(self):
        with pytest.warns(UserWarning) as record:
            AttentionSpec("qsann", m=4, H=2, l=8)
        assert record[0].filename == __file__  # the code that built the spec

    @pytest.mark.parametrize("v2_kernel", ["dot", "gaussian"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kernel(self, variant, v2_kernel):
        spec = AttentionSpec(variant, m=4, H=1, l=8, v2_kernel=v2_kernel)
        expected = {"qsann": "gaussian", "qsann_v1": "gaussian", "qsann_v2": v2_kernel}.get(variant, "dot")
        assert spec.kernel == expected


class TestCausalMask:
    def test_length_one(self):
        np.testing.assert_array_equal(causal_mask(1), [[0.0]])

    def test_length_three(self):
        mask = causal_mask(3)
        assert (mask[np.tril_indices(3)] == 0).all()
        assert (mask[np.triu_indices(3, k=1)] == -np.inf).all()

    def test_row_i_attends_prefix_only(self, rng):
        q = Tensor(rng.normal(size=(1, 5, 3)))
        k = Tensor(rng.normal(size=(1, 5, 3)))
        a = attention_weights(q, k, causal_mask(5))[0]
        assert (a[np.triu_indices(5, k=1)] == 0).all()
        np.testing.assert_allclose(a.sum(axis=-1), np.ones(5), atol=1e-12)


class TestCSA:
    def test_single_token_analytic(self, rng):
        w = make_weights("csa", m=4, H=2, l=8)
        x = rng.normal(size=(1, 4))
        out = attend(Tensor(x), w, causal_mask(1)).data
        heads = [x @ w.wv[j].data for j in range(2)]
        expect = np.concatenate(heads, axis=-1) @ w.wo.data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_identical_tokens_uniform_attention(self, rng):
        row = rng.normal(size=3)
        q = Tensor(np.tile(row, (4, 1))[None])
        a = attention_weights(q, q, causal_mask(4))[0]
        for i in range(4):
            np.testing.assert_allclose(a[i, : i + 1], np.full(i + 1, 1 / (i + 1)), atol=1e-12)

    def test_causal_independence(self, rng):
        w = make_weights("csa", m=4, H=1, l=4)
        x1 = rng.normal(size=(4, 4))
        x2 = x1.copy()
        x2[3] = rng.normal(size=4)
        o1 = attend(Tensor(x1), w, causal_mask(4)).data
        o2 = attend(Tensor(x2), w, causal_mask(4)).data
        np.testing.assert_allclose(o1[:3], o2[:3], atol=1e-12)

    def test_shape_mismatch(self, rng):
        w = make_weights("csa", m=4, H=1, l=4)
        with pytest.raises(ShapeError):
            attend(Tensor(rng.normal(size=(4, 5))), w, causal_mask(4))


class TestQisaValue:
    """qisa's value features: the weights' coefficients W^T Re(P_k) W on
    the feature op, over L2-normalized tokens."""

    @staticmethod
    def value_features(wv, x):
        w = make_weights("qisa", m=4, H=1, l=8)  # value observables IX, IZ, XI, XX
        w.wv_tilde[0].data = np.asarray(wv, dtype=float)
        return features(w, x[None])[0]

    def test_basis_token_identity_map(self):
        # <00|P|00> for IX, IZ, XI, XX by hand: 0, 1, 0, 0
        out = self.value_features(np.eye(4), np.array([[1.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0, 0.0]], atol=1e-14)

    def test_permutation_equivariance(self, rng):
        wv = rng.normal(size=(4, 4))
        x = rng.normal(size=(5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        base = self.value_features(wv, x)
        permuted = self.value_features(wv, x[perm])
        np.testing.assert_allclose(permuted, base[perm], atol=1e-14)

    def test_against_dense_oracle(self, rng):
        obs = select_observables(2, 4, "real_congruence")
        wv = rng.normal(size=(4, 4))
        x = rng.normal(size=(6, 4))
        out = self.value_features(wv, x)
        for i in range(6):
            xi = x[i] / np.linalg.norm(x[i])
            for k, o in enumerate(obs):
                expect = np.real(xi @ wv.T @ pauli_matrix(o) @ wv @ xi)
                assert abs(out[i, k] - expect) < 1e-12


class TestQISA:
    def test_parameter_count_equals_csa(self):
        qisa = AttentionSpec("qisa", m=16, H=1, l=16)
        csa = AttentionSpec("csa", m=16, H=1, l=16)
        assert count_params(qisa) == count_params(csa) == 768

    def test_constant_values_give_constant_rows(self, rng):
        w = make_weights("qisa", m=4, H=1, l=4)
        x = np.tile(rng.normal(size=4), (4, 1))
        out = attend(Tensor(x), w, causal_mask(4)).data
        np.testing.assert_allclose(out, np.tile(out[0], (4, 1)), atol=1e-12)

    def test_causal_independence(self, rng):
        w = make_weights("qisa", m=4, H=1, l=4)
        x1 = rng.normal(size=(4, 4))
        x2 = x1.copy()
        x2[2:] = rng.normal(size=(2, 4))
        o1 = attend(Tensor(x1), w, causal_mask(4)).data
        o2 = attend(Tensor(x2), w, causal_mask(4)).data
        np.testing.assert_allclose(o1[:2], o2[:2], atol=1e-12)


class TestQISAA:
    def test_zero_angle_values_match_statevector_oracle(self, rng):
        w = make_weights("qisa_a", m=4, H=1, l=4)
        w.theta[0].data[:] = 0.0  # ansatz collapses to the CNOT chain
        x = rng.normal(size=(1, 4, 4))
        got = features(w, x)[0]
        u = hea_unitary(AnsatzParams(np.zeros((1, 2, 3))))
        for i in range(4):
            state = u @ amplitude_encode(x[0, i], 2)
            for k, o in enumerate(w.value_obs):
                assert abs(got[i, k] - expectation(state, pauli_matrix(o))) < 1e-12

    def test_random_angle_values_match_statevector_oracle(self, rng):
        w = make_weights("qisa_a", m=4, H=1, l=4, p=2)
        x = rng.normal(size=(1, 3, 4))
        got = features(w, x)[0]
        u = hea_unitary(AnsatzParams(w.theta[0].data))
        for i in range(3):
            state = u @ amplitude_encode(x[0, i], 2)
            for k, o in enumerate(w.value_obs):
                assert abs(got[i, k] - expectation(state, pauli_matrix(o))) < 1e-12

    def test_values_bounded(self, rng):
        w = make_weights("qisa_a", m=4, H=1, l=6)
        x = rng.normal(size=(1, 6, 4)) * 5
        v = features(w, x)
        assert np.abs(v).max() <= 1.0 + 1e-12

    def test_parameter_count_example(self):
        spec = AttentionSpec("qisa_a", m=16, H=1, l=16, p=3)
        assert count_params(spec) == 2 * 16 * 16 + 3 * 4 * 3 == 548


class TestQuadraticFeatures:
    @pytest.mark.parametrize("per_position", [False, True])
    def test_forward_matches_einsum(self, per_position, rng):
        x = rng.normal(size=(3, 5, 4))
        a = rng.normal(size=(6 if per_position else 1, 2, 4, 4))
        got = quadratic_features(Tensor(x), Tensor(a)).data
        expect = (np.einsum("bli,lkij,blj->blk", x, a[:5], x) if per_position
                  else np.einsum("bli,kij,blj->blk", x, a[0], x))
        assert np.abs(got - expect).max() < 1e-12
        assert np.abs(batched_quadratic_forms(x, a) - expect).max() < 1e-12

    @pytest.mark.parametrize("per_position", [False, True])
    def test_gradients_match_finite_differences(self, per_position, rng):
        # a non-symmetric A; a per-position stack, one longer than the tokens
        # use, is a constant (per-position maps train on the map route)
        x0 = rng.normal(size=(2, 3, 4))
        a0 = rng.normal(size=(4 if per_position else 1, 2, 4, 4))
        weights = rng.normal(size=(2, 3, 2))

        def loss(x, a):
            return (quadratic_features(x, a) * Tensor(weights)).sum()

        xt, at = Tensor(x0.copy(), requires_grad=True), Tensor(a0.copy(), requires_grad=not per_position)
        loss(xt, at).backward()
        dx = finite_diff(lambda arr: loss(Tensor(arr), Tensor(a0)).item(), x0.copy())
        assert rel_err(xt.grad, dx) < 1e-8
        if not per_position:
            da = finite_diff(lambda arr: loss(Tensor(x0), Tensor(arr)).item(), a0.copy())
            assert rel_err(at.grad, da) < 1e-8

    def test_per_position_stack_with_a_gradient_is_refused(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with pytest.raises(ContractError, match="map route"):
            quadratic_features(x, Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True))

    @pytest.mark.parametrize("k", [1, 4, 16])
    @pytest.mark.parametrize("m", [4, 16])
    def test_folded_backward_equals_the_outer_product_route(self, m, k, rng):
        """The constant-stack backward dx_n = M_n x_n, over 144 tokens (a
        ragged last block of 16), against the outer-product GEMM."""
        x, g = rng.normal(size=(9, 16, m)), rng.normal(size=(9, 16, k))
        coeffs = rng.normal(size=(k, m, m))
        folded = attention._folded_dx(g, x, coeffs)
        assert rel_err(folded, attention._outer_dx(attention._outer(g, x), coeffs)) < 1e-12

    @pytest.mark.parametrize("batch", [5, 32, 75])
    def test_blocked_forward_keeps_the_bits(self, batch, rng):
        """Below, at and above one block of sequences, with a ragged last
        block, the blocked forms equal one unblocked call bit for bit."""
        x, mats = rng.normal(size=(batch, 16, 16)), rng.normal(size=(1, 16, 16, 16))
        single = attention._forms(x, attention._side_by_side(mats)[0])
        np.testing.assert_array_equal(batched_quadratic_forms(x, mats), single)

    def test_constant_stack_peak_memory(self, rng):
        """One forward and backward of the op at [256, 16, 16] against qisa's
        constant stack (K = 16) allocate under 3 MiB at their peak: neither
        the [N, K*m] rows nor an outer product is held for the whole batch."""
        import tracemalloc

        x = Tensor(rng.normal(size=(256, 16, 16)), requires_grad=True)
        lifted = _lift(select_observables(4, 16, "real_congruence"), real=True)
        g = rng.normal(size=(256, 16, 16))
        tracemalloc.start()
        try:
            quadratic_features(x, lifted)._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_shape_mismatch(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 4)))
        with pytest.raises(ShapeError):
            quadratic_features(x, Tensor(np.zeros((4, 2, 4, 4))))  # 4 stacks for 5 positions
        with pytest.raises(ShapeError):
            quadratic_features(x, Tensor(np.zeros((1, 2, 2, 2))))
        with pytest.raises(ShapeError):
            quadratic_features(x, Tensor(np.zeros((2, 4, 4))))  # no stack axis


class TestMapRoute:
    """qisa's W~ and qsann's per-position circuits train from the map: on
    the tape their table holds (S, P~) and the features are those of S x."""

    @pytest.mark.parametrize("variant", ["qisa", "qsann"])
    def test_training_features_equal_cache_features(self, variant, rng):
        model = LanguageModel(ModelConfig(vocab_size=5, m=4, n_layers=2, l=4, variant=variant))
        xn = normalize_rows(Tensor(rng.normal(size=(3, 4, 4))), zero_fallback=True)
        cached = model.coefficients(model.build_observable_cache())
        for block, heads in zip(model.blocks, cached):
            taped = block.attn.coefficients()[0]
            assert set(taped) == set(heads[0])
            for role, entry in taped.items():
                assert isinstance(entry, tuple) and isinstance(heads[0][role], Tensor)
                got = role_features(xn, entry).data
                assert rel_err(got, role_features(xn, heads[0][role]).data) < 1e-10

    @pytest.mark.parametrize("tokens", [3, 4])
    @pytest.mark.parametrize("variant", ["qisa", "qsann"])
    def test_gradients_match_finite_differences(self, variant, tokens, rng):
        """The map's parameters (W~, or every position's angles, those past
        the tokens taking none) and the tokens, through map_tokens and the
        constant-stack features."""
        w = make_weights(variant, m=4, H=1, l=4)
        x0 = rng.normal(size=(2, tokens, 4))
        weights = rng.normal(size=(2, tokens, 4))

        def loss(x):
            return (attend(x, w, causal_mask(tokens)) * Tensor(weights)).sum()

        xt = Tensor(x0.copy(), requires_grad=True)
        loss(xt).backward()
        assert rel_err(xt.grad, finite_diff(lambda arr: loss(Tensor(arr)).item(), x0.copy())) < 1e-6
        value = w.coefficients()[0]["value"]
        assert isinstance(value, tuple)
        for name, t in w.named_parameters():
            if name.endswith(("wv_tilde", "theta_q", "theta_k", "theta_v")):
                analytic, base = t.grad.copy(), t.data.copy()

                def at(arr, t=t):
                    t.data = arr
                    return loss(Tensor(x0)).item()

                numeric = finite_diff(at, base.copy())
                t.data = base
                assert rel_err(analytic, numeric) < 1e-6, name


class TestGaussianAttention:
    """The kernel over [.., l, K] features; qsann and qsann_v1 score with K = 1."""

    def test_equal_scores_uniform_prefix(self):
        q = Tensor(np.ones((1, 4, 1)) * 0.3)
        a = attention_weights(q, q, causal_mask(4), "gaussian")[0]
        for i in range(4):
            np.testing.assert_allclose(a[i, : i + 1], np.full(i + 1, 1 / (i + 1)), atol=1e-12)
            np.testing.assert_allclose(a[i, i + 1 :], 0.0)

    def test_single_position(self):
        a = attention_weights(Tensor([[[2.0]]]), Tensor([[[5.0]]]), causal_mask(1), "gaussian")
        np.testing.assert_allclose(a, [[[1.0]]])

    def test_rows_sum_to_one(self, rng):
        q = Tensor(rng.normal(size=(2, 6, 1)))
        k = Tensor(rng.normal(size=(2, 6, 1)))
        a = attention_weights(q, k, causal_mask(6), "gaussian")
        np.testing.assert_allclose(a.sum(axis=-1), np.ones((2, 6)), atol=1e-12)

    def test_matches_kernel_formula(self, rng):
        q = rng.normal(size=(1, 5, 1))
        k = rng.normal(size=(1, 5, 1))
        a = attention_weights(Tensor(q), Tensor(k), causal_mask(5), "gaussian")[0]
        for i in range(5):
            weights = np.exp(-((q[0, i, 0] - k[0, : i + 1, 0]) ** 2))
            np.testing.assert_allclose(a[i, : i + 1], weights / weights.sum(), atol=1e-12)

    def test_matches_vector_kernel_formula(self, rng):
        q = rng.normal(size=(2, 5, 3))
        k = rng.normal(size=(2, 5, 3))
        a = attention_weights(Tensor(q), Tensor(k), causal_mask(5), "gaussian")
        for b in range(2):
            for i in range(5):
                weights = np.exp(-((q[b, i] - k[b, : i + 1]) ** 2).sum(axis=-1))
                np.testing.assert_allclose(a[b, i, : i + 1], weights / weights.sum(), atol=1e-12)
                np.testing.assert_allclose(a[b, i, i + 1 :], 0.0)


class TestCausalAttention:
    """The fused op against the composite chain it replaces."""

    CASES = [("dot", 4), ("dot", 16), ("gaussian", 1), ("gaussian", 16)]

    @staticmethod
    def run(op, q0, k0, v0, weights, kernel):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
        out = op(q, k, v, causal_mask(q0.shape[-2]), kernel)
        (out * Tensor(weights)).sum().backward()
        return out.data, q.grad, k.grad, v.grad

    def check_against_composite(self, kernel, d, scale, rng):
        """Dot outputs and gradients equal the chain's bit for bit.  Gaussian
        ones, scored as 2 q.k - |k|^2 against the chain's difference form,
        agree to 1e-12 of the largest term each one sums: the values for the
        output, the output's gradient for dv, and |g v^T| |q_i - k_j| for dq
        and dk.  A softmax row near one-hot shrinks dq and dk far below their
        terms, and there any two float64 orders differ in their leading digits."""
        q0, k0 = rng.normal(size=(3, 6, d)) * scale, rng.normal(size=(3, 6, d)) * scale
        v0 = rng.normal(size=(3, 6, 5))
        weights = rng.normal(size=(3, 6, 5))
        fused = self.run(causal_attention, q0, k0, v0, weights, kernel)
        reference = self.run(reference_attention, q0, k0, v0, weights, kernel)
        qk = np.abs(weights @ np.swapaxes(v0, -1, -2)).max() * np.abs(q0[..., :, None, :] - k0[..., None, :, :]).max()
        terms = {"out": np.abs(v0).max(), "dq": qk, "dk": qk, "dv": np.abs(weights).max()}
        for name, got, expect in zip(("out", "dq", "dk", "dv"), fused, reference):
            assert got.shape == expect.shape, name
            if kernel == "dot":
                assert np.array_equal(got, expect), name
            else:
                assert np.abs(got - expect).max() < 1e-12 * terms[name], name

    @pytest.mark.parametrize("kernel,d", CASES)
    def test_bit_identical_to_composite(self, kernel, d, rng):
        self.check_against_composite(kernel, d, 1.0, rng)

    def test_gaussian_large_features_match_composite(self, rng):
        """Features at scale 3 over 16 dimensions: the expanded form's terms
        are largest against their difference here."""
        self.check_against_composite("gaussian", 16, 3.0, rng)

    @pytest.mark.parametrize("d", [1, 16])
    def test_gaussian_translation_invariant(self, d, rng):
        q0, k0 = rng.normal(size=(2, 6, d)), rng.normal(size=(2, 6, d))
        v = Tensor(rng.normal(size=(2, 6, 3)))
        c = rng.normal(size=d)
        mask = causal_mask(6)
        base = causal_attention(Tensor(q0), Tensor(k0), v, mask, "gaussian").data
        moved = causal_attention(Tensor(q0 + c), Tensor(k0 + c), v, mask, "gaussian").data
        assert rel_err(moved, base) < 1e-12

    @pytest.mark.parametrize("kernel,d", CASES)
    def test_gradients_match_finite_differences(self, kernel, d, rng):
        q0, k0 = rng.normal(size=(2, 4, d)) * 0.5, rng.normal(size=(2, 4, d)) * 0.5
        v0 = rng.normal(size=(2, 4, 3))
        weights = rng.normal(size=(2, 4, 3))
        mask = causal_mask(4)
        _, dq, dk, dv = self.run(causal_attention, q0, k0, v0, weights, kernel)

        def loss(q, k, v):
            return (causal_attention(Tensor(q), Tensor(k), Tensor(v), mask, kernel) * Tensor(weights)).sum().item()

        assert rel_err(dq, finite_diff(lambda a: loss(a, k0, v0), q0.copy())) < 1e-8
        assert rel_err(dk, finite_diff(lambda a: loss(q0, a, v0), k0.copy())) < 1e-8
        assert rel_err(dv, finite_diff(lambda a: loss(q0, k0, a), v0.copy())) < 1e-8

    @pytest.mark.parametrize("kernel", ["dot", "gaussian"])
    @pytest.mark.parametrize("k_shape,v_shape", [((1, 4, 2), (1, 4, 5)), ((1, 3, 3), (1, 4, 5)),
                                                 ((2, 4, 3), (1, 4, 5)), ((1, 4, 3), (1, 3, 5))],
                             ids=["feature-size", "length", "batch", "values"])
    def test_shape_mismatch(self, kernel, k_shape, v_shape):
        with pytest.raises(ShapeError):
            causal_attention(Tensor(np.zeros((1, 4, 3))), Tensor(np.zeros(k_shape)),
                             Tensor(np.zeros(v_shape)), causal_mask(4), kernel)

    @pytest.mark.parametrize("kernel", ["dot", "gaussian"])
    def test_nan_score_raises(self, kernel, rng):
        q = rng.normal(size=(1, 4, 2))
        q[0, 2, 1] = np.nan
        with pytest.raises(NumericError):
            causal_attention(Tensor(q), Tensor(rng.normal(size=(1, 4, 2))), Tensor(np.eye(4)[None]),
                             causal_mask(4), kernel)


class TestGraphShape:
    """One training forward records one attention node per layer and head."""

    @pytest.mark.parametrize("H", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_node_per_layer_and_head(self, variant, H):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = LanguageModel(ModelConfig(vocab_size=5, m=4, H=H, n_layers=2, l=4, variant=variant))
        ids = np.arange(8).reshape(2, 4) % 5
        logits = model.forward(ids, training=True)
        loss = cross_entropy(logits.reshape(-1, 5), ids.reshape(-1))
        ops = [node._backward_fn.__qualname__ for node in _toposort(loss) if node._backward_fn is not None]
        assert sum(op.startswith("causal_attention") for op in ops) == 2 * H
        assert not any(op.startswith("softmax_rows") for op in ops)
        # a single head's output is the layer's attention output, with no concat
        assert sum(op.startswith("concat") for op in ops) == (0 if H == 1 else 2)

    NODES = {"csa": 139, "qisa": 163, "qisa_a": 181, "qsann": 451, "qsann_v1": 235, "qsann_v2": 235}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_node_count_at_the_bench_shape(self, variant):
        """m=16, 6 layers, l=16, H=1, batch 2: each MLP is one node that reads
        the block's parameters directly, and the query and key of a circuit
        variant share one lifted stack."""
        model = LanguageModel(ModelConfig(vocab_size=5, m=16, H=1, n_layers=6, l=16, variant=variant))
        ids = np.arange(32).reshape(2, 16) % 5
        loss = cross_entropy(model.forward(ids, training=True).reshape(-1, 5), ids.reshape(-1))
        nodes = _toposort(loss)
        assert len(nodes) == self.NODES[variant]
        mlps = [node for node in nodes if node._backward_fn is not None
                and node._backward_fn.__qualname__.startswith("mlp.")]
        assert [node._parents[1:] for node in mlps] == [
            (b.ln2_gain, b.ln2_bias, b.mlp_w1, b.mlp_b1, b.mlp_w2, b.mlp_b2) for b in model.blocks]
        ops = [node._backward_fn.__qualname__ for node in nodes if node._backward_fn is not None]
        assert not any(op.startswith("gelu") for op in ops)
        # the embedding sum and two residual adds per block; the MLPs add nothing
        assert sum(op.startswith("add.") for op in ops) == 1 + 2 * 6


class TestQSANNFamily:
    @pytest.mark.parametrize("variant", ["qsann", "qsann_v1", "qsann_v2"])
    def test_query_and_key_share_one_lifted_stack(self, variant):
        w = make_weights(variant, m=4, H=1, l=4)
        assert w._lifted["query"] is w._lifted["key"]

    def test_qsann_parameter_count_example(self):
        spec = AttentionSpec("qsann", m=16, H=1, l=16, p=1)
        assert count_params(spec) == 3 * 3 * 4 * 1 * 16 == 576

    def test_v1_parameter_count_examples(self):
        assert count_params(AttentionSpec("qsann_v1", m=16, H=1, l=16, p=1)) == 36
        assert count_params(AttentionSpec("qsann_v1", m=4, H=1, l=16, p=2)) == 3 * 3 * 2 * 2 == 36
        assert count_params(AttentionSpec("qsann_v2", m=16, H=1, l=16, p=1)) == 36

    def test_values_bounded(self, rng):
        w = make_weights("qsann", m=4, H=1, l=4)
        x = rng.normal(size=(4, 4)) * 3
        out = attend(Tensor(x), w, causal_mask(4)).data
        # output rows are convex combinations of bounded expectation vectors
        assert np.abs(out).max() <= 1.0 + 1e-12

    def test_causal_independence(self, rng):
        for variant in ("qsann", "qsann_v1", "qsann_v2"):
            w = make_weights(variant, m=4, H=1, l=4)
            x1 = rng.normal(size=(4, 4))
            x2 = x1.copy()
            x2[3] = rng.normal(size=4)
            o1 = attend(Tensor(x1), w, causal_mask(4)).data
            o2 = attend(Tensor(x2), w, causal_mask(4)).data
            np.testing.assert_allclose(o1[:3], o2[:3], atol=1e-12, err_msg=variant)

    def test_qsann_equals_v1_with_tied_positions(self, rng):
        v1 = make_weights("qsann_v1", m=4, H=1, l=4, seed=3)
        per_pos = make_weights("qsann", m=4, H=1, l=4, seed=9)
        for i in range(4):
            per_pos.theta_q[0][i].data[:] = v1.theta_q[0].data
            per_pos.theta_k[0][i].data[:] = v1.theta_k[0].data
            per_pos.theta_v[0][i].data[:] = v1.theta_v[0].data
        x = Tensor(rng.normal(size=(4, 4)))
        o1 = attend(x, v1, causal_mask(4)).data
        o2 = attend(x, per_pos, causal_mask(4)).data
        np.testing.assert_allclose(o1, o2, atol=1e-12)

    def test_v1_shared_circuit_features_position_independent(self, rng):
        w = make_weights("qsann_v1", m=4, H=1, l=4)
        row = rng.normal(size=4)
        x = rng.normal(size=(1, 4, 4))
        x[0, 0] = row
        x[0, 3] = row
        v = features(w, x)[0]
        np.testing.assert_allclose(v[0], v[3], atol=1e-14)

    def test_v2_qk_bounded(self, rng):
        w = make_weights("qsann_v2", m=4, H=1, l=4)
        x = rng.normal(size=(1, 4, 4)) * 4
        q = features(w, x, "query")
        assert np.abs(q).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("variant", ["qsann", "qsann_v1", "qsann_v2"])
    def test_features_match_statevector_oracle(self, variant, rng):
        w = make_weights(variant, m=4, H=1, l=3, p=2)
        x = rng.normal(size=(2, 3, 4))
        thetas = {"query": w.theta_q[0], "key": w.theta_k[0], "value": w.theta_v[0]}
        observables = {"query": w.qk_obs, "key": w.qk_obs, "value": w.value_obs}
        for role, theta in thetas.items():
            got = features(w, x, role)
            for i in range(3):
                angles = theta[i] if variant == "qsann" else theta
                u = hea_unitary(AnsatzParams(angles.data))
                for b in range(2):
                    state = u @ amplitude_encode(x[b, i], 2)
                    for k, o in enumerate(observables[role]):
                        assert abs(got[b, i, k] - expectation(state, pauli_matrix(o))) < 1e-12

    def test_v2_gaussian_kernel_option(self, rng):
        dot = make_weights("qsann_v2", m=4, H=1, l=4, seed=5)
        gauss = make_weights("qsann_v2", m=4, H=1, l=4, seed=5, v2_kernel="gaussian")
        x = Tensor(rng.normal(size=(4, 4)))
        o_dot = attend(x, dot, causal_mask(4)).data
        o_gauss = attend(x, gauss, causal_mask(4)).data
        assert np.abs(o_dot - o_gauss).max() > 1e-8  # kernels genuinely differ
        x2 = x.data.copy()
        x2[3] = rng.normal(size=4)
        o2 = attend(Tensor(x2), gauss, causal_mask(4)).data
        np.testing.assert_allclose(o_gauss[:3], o2[:3], atol=1e-12)


class TestCountParams:
    def test_table_examples(self):
        assert count_params(AttentionSpec("qisa", m=16, H=1, l=16)) == 768
        assert count_params(AttentionSpec("csa", m=16, H=1, l=16)) == 768
        assert count_params(AttentionSpec("qisa", m=4, H=1, l=16)) == 2 * 4 * 4 + 16 == 48
        assert count_params(AttentionSpec("csa", m=4, H=1, l=16)) == 48

    def test_wo_contribution(self):
        spec = AttentionSpec("qisa", m=16, H=1, l=16)
        assert output_projection_params(spec) == 256
        assert total_attention_params(spec) == 1024
        assert output_projection_params(AttentionSpec("qsann_v1", m=16, H=1, l=16)) == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("H", [1, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_introspection_matches_formula(self, variant, m, H, p):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = AttentionSpec(variant, m=m, H=H, l=16, p=p)
            w = AttentionWeights(spec, np.random.default_rng(0))
        assert w.param_count() == total_attention_params(spec)
        per_head = sum(t.size for name, t in w.named_parameters() if name.startswith("head0."))
        assert per_head == count_params(spec)


class TestCausalitySuite:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_positions_independent_of_future(self, variant, rng):
        w = make_weights(variant, m=4, H=1, l=8)
        x1 = rng.normal(size=(8, 4))
        for i in (0, 3, 6):
            x2 = x1.copy()
            x2[i + 1 :] = rng.normal(size=(7 - i, 4))
            o1 = attend(Tensor(x1), w, causal_mask(8)).data
            o2 = attend(Tensor(x2), w, causal_mask(8)).data
            assert np.abs(o1[: i + 1] - o2[: i + 1]).max() < 1e-12


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_sum_gradients(self, variant, rng):
        w = make_weights(variant, m=4, H=1, l=4)
        mask = causal_mask(4)
        x0 = rng.normal(size=(4, 4))

        xt = Tensor(x0.copy(), requires_grad=True)
        loss = attend(xt, w, mask).sum()
        loss.backward()

        def loss_value():
            return attend(Tensor(x0), w, mask).sum().item()

        for name, t in [("x", xt)] + w.named_parameters():
            analytic = t.grad
            assert analytic is not None, f"{variant}:{name} got no gradient"
            base = x0 if name == "x" else t.data
            numeric = np.zeros_like(base)
            flat, nflat = base.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                hi = loss_value()
                flat[i] = orig - 1e-6
                lo = loss_value()
                flat[i] = orig
                nflat[i] = (hi - lo) / 2e-6
            denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-10)
            rel = np.abs(analytic - numeric).max() / denom
            assert rel < 1e-3, f"{variant}:{name} rel err {rel}"


class TestQisaBridge:
    def test_real_ansatz_matches_congruence_path(self, rng):
        """A Y-rotations-only circuit is a real orthogonal map, so using it
        as the congruence value map must reproduce the ansatz value path
        on the shared (even-Y) observable set."""
        theta = np.zeros((2, 2, 3))
        theta[:, :, 1] = rng.uniform(-np.pi, np.pi, size=(2, 2))
        u = hea_unitary(AnsatzParams(theta))
        assert np.abs(u.imag).max() < 1e-12

        spec_a = AttentionSpec("qisa_a", m=4, H=1, l=4, p=2)
        wa = AttentionWeights(spec_a, np.random.default_rng(7))
        wa.theta[0].data[:] = theta
        wa.value_obs = select_observables(2, 4, "real_congruence")
        wa._lifted = {"value": _lift(wa.value_obs)}
        wq = AttentionWeights(AttentionSpec("qisa", m=4, H=1, l=4), np.random.default_rng(7))
        wq.wv_tilde[0].data[:] = u.real
        wq.wq[0].data[:] = wa.wq[0].data
        wq.wk[0].data[:] = wa.wk[0].data
        wq.wo.data[:] = wa.wo.data

        x = Tensor(rng.normal(size=(4, 4)))
        out_a = attend(x, wa, causal_mask(4)).data
        out_q = attend(x, wq, causal_mask(4)).data
        np.testing.assert_allclose(out_a, out_q, atol=1e-10)


class TestSharedObservableStacks:
    """Observable stacks are per-process read-only constants."""

    @staticmethod
    def models(variant, seeds=(0, 1), m=4):
        return [LanguageModel(ModelConfig(vocab_size=5, m=m, n_layers=2, l=4, variant=variant, seed=seed))
                for seed in seeds]

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "csa"])
    def test_layers_and_models_share_one_stack(self, variant):
        layers = [block.attn for model in self.models(variant) for block in model.blocks]
        for role in layers[0].features:
            stack = layers[0]._lifted[role].data
            assert all(w._lifted[role].data is stack for w in layers)
        # keys read the query observables, through the same stack
        if "key" in layers[0].features:
            assert layers[0]._lifted["key"].data is layers[0]._lifted["query"].data

    def test_stack_is_read_only(self):
        stack = self.models("qsann_v2", seeds=(0,))[0].blocks[0].attn._lifted["value"].data
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            stack *= 2.0

    def test_select_observables_returns_a_new_list(self):
        first = select_observables(2, 3, "unitary")
        words = [o.word for o in first]
        first.append(PauliString("ZZ"))
        first[0] = PauliString("YY")
        again = select_observables(2, 3, "unitary")
        assert again is not first
        assert [o.word for o in again] == words

    def test_each_pauli_matrix_built_once(self, monkeypatch):
        """Two qsann_v2 models at m=16 read 2 observable sets of the same 16
        words in each of 6 layers; each word's matrix is built once."""
        calls = []

        def counting(p):
            calls.append(p.word)
            return pauli_matrix(p)

        monkeypatch.setattr(attention, "pauli_matrix", counting)
        attention._lifted_stack.cache_clear()
        for seed in (0, 1):
            LanguageModel(ModelConfig(vocab_size=5, m=16, n_layers=6, variant="qsann_v2", seed=seed))
        assert len(calls) <= 16
        assert sorted(calls) == sorted(o.word for o in select_observables(4, 16, "unitary"))
