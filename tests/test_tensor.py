import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import finite_diff, grad_of, rel_err
from qisa_lab import tensor
from qisa_lab.errors import ContractError, DegenerateTokenError, NumericError, ShapeError
from qisa_lab.tensor import (
    Tensor,
    backward,
    concat,
    cross_entropy,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mlp,
    no_grad,
    normalize_rows,
    reshape,
    softmax_rows,
    swap_last,
    transpose,
)


class TestMatmul:
    def test_identity(self):
        m = np.arange(4.0).reshape(2, 2)
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_analytic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))

        ga, na = grad_of(lambda a: matmul(a, Tensor(b0)).sum(), a0)
        assert rel_err(ga, na) < 1e-6

        gb, nb = grad_of(lambda b: matmul(Tensor(a0), b).sum(), b0)
        assert rel_err(gb, nb) < 1e-6

    def test_batched_gradient(self, rng):
        a0 = rng.normal(size=(2, 3, 4))
        b0 = rng.normal(size=(4, 2))
        gb, nb = grad_of(lambda b: matmul(Tensor(a0), b).sum(), b0)
        assert rel_err(gb, nb) < 1e-6

    def test_associativity(self, rng):
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        lhs = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        rhs = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        assert np.abs(lhs - rhs).max() < 1e-10


class TestSoftmaxRows:
    def test_symmetric(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_analytic(self):
        out = softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_masked_position(self):
        out = softmax_rows(Tensor([[5.0, -np.inf]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_all_masked_row_is_zero(self):
        out = softmax_rows(Tensor([[-np.inf, -np.inf]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax_rows(Tensor([[np.nan, 0.0]]))

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(6, 9)) * 5
        out = softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)))
    def test_rows_sum_to_one_hypothesis(self, x):
        out = softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(x.shape[0]), atol=1e-12)
        assert (out >= 0).all()

    def test_gradient(self, rng):
        x0 = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        g, n = grad_of(lambda t: (softmax_rows(t) * Tensor(w)).sum(), x0)
        assert rel_err(g, n) < 1e-6

    def test_gradient_with_mask(self, rng):
        x0 = rng.normal(size=(3, 4))
        mask = np.triu(np.full((3, 4), -np.inf), k=2)
        w = rng.normal(size=(3, 4))
        g, n = grad_of(lambda t: (softmax_rows(t + Tensor(mask)) * Tensor(w)).sum(), x0)
        assert rel_err(g, n) < 1e-6


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-9)

    def test_already_normalized(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_statistics(self, rng):
        x = rng.normal(size=(5, 16)) * 3 + 1
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    def test_gradients(self, rng):
        x0 = rng.normal(size=(3, 6))
        gain0 = rng.normal(size=6)
        bias0 = rng.normal(size=6)
        w = rng.normal(size=(3, 6))

        g, n = grad_of(lambda t: (layer_norm(t, Tensor(gain0), Tensor(bias0)) * Tensor(w)).sum(), x0)
        assert rel_err(g, n) < 1e-4
        g, n = grad_of(lambda t: (layer_norm(Tensor(x0), t, Tensor(bias0)) * Tensor(w)).sum(), gain0)
        assert rel_err(g, n) < 1e-6
        g, n = grad_of(lambda t: (layer_norm(Tensor(x0), Tensor(gain0), t) * Tensor(w)).sum(), bias0)
        assert rel_err(g, n) < 1e-6


def reference_mlp(x, ln_gain, ln_bias, w1, b1, w2, b2):
    """The composite chain the op fuses: layer_norm, matmul, add, gelu, matmul, add."""
    return matmul(gelu(matmul(layer_norm(x, ln_gain, ln_bias), w1) + b1), w2) + b2


class TestMLP:
    NAMES = ("x", "ln_gain", "ln_bias", "w1", "b1", "w2", "b2")

    @staticmethod
    def arrays(rng, lead, m, hidden):
        return [rng.normal(size=lead + (m,)), 1.0 + 0.1 * rng.normal(size=m), 0.1 * rng.normal(size=m),
                rng.normal(size=(m, hidden)), rng.normal(size=hidden), rng.normal(size=(hidden, m)),
                rng.normal(size=m)]

    BLOCK_ROWS = tensor._GELU_BLOCK // 64  # rows of a 64-wide hidden array in one GELU block

    # batches of 16 rows: less than one block, exactly one, and two blocks and a remainder
    @pytest.mark.parametrize("batch", [BLOCK_ROWS // 64, BLOCK_ROWS // 16, BLOCK_ROWS // 8 + 11])
    def test_bit_identical_to_the_chain(self, batch, rng):
        arrays = self.arrays(rng, (batch, 16), 16, 64)
        c = rng.normal(size=arrays[0].shape)
        results = []
        for op in (mlp, reference_mlp):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*leaves)
            (out * Tensor(c)).sum().backward()
            results.append((out.data, [t.grad for t in leaves]))
        (fused, fused_grads), (chain, chain_grads) = results
        np.testing.assert_array_equal(fused, chain)
        for name, a, b in zip(self.NAMES, fused_grads, chain_grads):
            np.testing.assert_array_equal(a, b, err_msg=name)
        with no_grad():  # inference writes the activation over its pre-activation
            np.testing.assert_array_equal(mlp(*map(Tensor, arrays)).data, chain)

    def test_gradients(self, rng):
        arrays = self.arrays(rng, (2, 3), 4, 8)
        c = rng.normal(size=(2, 3, 4))
        for i, name in enumerate(self.NAMES):
            def loss(t, i=i):
                args = [t if j == i else Tensor(a) for j, a in enumerate(arrays)]
                return (mlp(*args) * Tensor(c)).sum()

            g, n = grad_of(loss, arrays[i])
            assert rel_err(g, n) < 1e-6, name

    def test_node_holds_three_hidden_sized_arrays(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in self.arrays(rng, (8, 16), 16, 64)]
        out = mlp(*leaves)
        held = [cell.cell_contents for cell in out._backward_fn.__closure__]
        hidden = [a for a in held if isinstance(a, np.ndarray) and a.size == 8 * 16 * 64]
        assert len(hidden) <= 3  # the pre-activation z, the tanh t and the activation h

    def test_shape_mismatch(self, rng):
        x, gain, bias, w1, b1, w2, b2 = map(Tensor, self.arrays(rng, (2, 3), 4, 8))
        with pytest.raises(ShapeError):
            mlp(x, gain, bias, w1, Tensor(np.zeros(4)), w2, b2)
        with pytest.raises(ShapeError):
            mlp(x, Tensor(np.ones(3)), bias, w1, b1, w2, b2)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 65)))
        loss = cross_entropy(logits, np.array([3, 20]))
        assert abs(loss.item() - np.log(65)) < 1e-12

    def test_saturated(self):
        logits = np.zeros((1, 10))
        logits[0, 4] = 20.0
        assert cross_entropy(Tensor(logits), np.array([4])).item() < 1e-6

    def test_against_brute_force(self, rng):
        x = rng.normal(size=(4, 10)) * 3
        t = rng.integers(0, 10, size=4)
        loss = cross_entropy(Tensor(x), t).item()
        expect = float(np.mean([-np.log(np.exp(x[i, t[i]]) / np.exp(x[i]).sum()) for i in range(4)]))
        assert abs(loss - expect) < 1e-10

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 5))), np.array([0, 5]))

    def test_gradient(self, rng):
        x0 = rng.normal(size=(4, 7))
        t = rng.integers(0, 7, size=4)
        g, n = grad_of(lambda lt: cross_entropy(lt, t), x0)
        assert rel_err(g, n) < 1e-6


class TestBackward:
    def test_linear_case(self, rng):
        x = rng.normal(size=(4,))
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = matmul(w, Tensor(x.reshape(4, 1))).sum()
        loss.backward()
        np.testing.assert_allclose(w.grad, np.tile(x, (3, 1)), atol=1e-12)

    def test_softmax_ce_composite(self, rng):
        x0 = rng.normal(size=(4, 5))
        w0 = rng.normal(size=(5, 6))
        t = rng.integers(0, 6, size=4)

        def loss_fn(w):
            return cross_entropy(matmul(Tensor(x0), w), t)

        g, n = grad_of(loss_fn, w0)
        assert rel_err(g, n) < 1e-4

    def test_double_backward_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = (w * w).sum()
        loss.backward()
        with pytest.raises(ContractError):
            loss.backward()

    def test_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(w * 2.0)

    def test_no_graph_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(1.0))

    def test_grad_accumulates_until_zeroed(self):
        w = Tensor([2.0], requires_grad=True)
        (w * 3.0).sum().backward()
        (w * 3.0).sum().backward()
        np.testing.assert_allclose(w.grad, [6.0])
        w.zero_grad()
        assert w.grad is None

    def test_only_leaves_keep_gradients(self, rng):
        x0, w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
        t = np.array([0, 4, 2])

        def build(x, w, b):
            z = matmul(x, w)
            h = gelu(z + b)
            n = layer_norm(h, Tensor(np.ones(5)), Tensor(np.zeros(5)))
            return cross_entropy(n * h, t), (z, h, n)

        leaves = {"x": Tensor(x0.copy(), requires_grad=True), "w": Tensor(w0.copy(), requires_grad=True),
                  "b": Tensor(b0.copy(), requires_grad=True)}
        loss, intermediates = build(**leaves)
        loss.backward()
        start = {"x": x0, "w": w0, "b": b0}
        for name, leaf in leaves.items():
            def value(arr, name=name):
                args = {k: Tensor(arr if k == name else v) for k, v in start.items()}
                return build(**args)[0].item()
            assert rel_err(leaf.grad, finite_diff(value, start[name].copy())) < 1e-6, name
        assert all(node.grad is None for node in intermediates + (loss,))
        with pytest.raises(ContractError):
            loss.backward()

    def test_no_grad_mode(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = (w * 2.0).sum()
        assert not out.requires_grad
        with pytest.raises(ContractError):
            out.backward()


class TestElementwiseGradients:
    """Every differentiable op matches central finite differences."""

    CASES = {
        "add": lambda t, c: (t + Tensor(c)).sum(),
        "add_broadcast": lambda t, c: (t + Tensor(c[0])).sum(),
        "mul": lambda t, c: (t * Tensor(c) * 0.7).sum(),
        "sub": lambda t, c: (Tensor(c) - t).sum(),
        "gelu": lambda t, c: (gelu(t) * Tensor(c)).sum(),
        "reshape": lambda t, c: (reshape(t, (4, 2)) * Tensor(c.reshape(4, 2))).sum(),
        "transpose": lambda t, c: (transpose(t) * Tensor(c.T)).sum(),
        "normalize": lambda t, c: (normalize_rows(t) * Tensor(c)).sum(),
        "sum_axis": lambda t, c: (t.sum(axis=0) * Tensor(c[0])).sum(),
        "mean": lambda t, c: t.mean() * 3.0,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradient(self, name, rng):
        x0 = rng.normal(size=(2, 4)) + 0.1
        c = rng.normal(size=(2, 4))
        g, n = grad_of(lambda t: self.CASES[name](t, c), x0)
        assert rel_err(g, n) < 1e-6, name

    def test_concat_gradient(self, rng):
        a0 = rng.normal(size=(2, 3))
        b0 = rng.normal(size=(2, 2))
        w = rng.normal(size=(2, 5))
        g, n = grad_of(lambda t: (concat([t, Tensor(b0)], axis=1) * Tensor(w)).sum(), a0)
        assert rel_err(g, n) < 1e-6

    def test_gather_rows_gradient(self, rng):
        table0 = rng.normal(size=(5, 3))
        ids = np.array([1, 1, 4, 0])
        w = rng.normal(size=(4, 3))
        g, n = grad_of(lambda t: (gather_rows(t, ids) * Tensor(w)).sum(), table0)
        assert rel_err(g, n) < 1e-6

    def test_swap_last_gradient(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 4, 3))
        g, n = grad_of(lambda t: (swap_last(t) * Tensor(w)).sum(), x0)
        assert rel_err(g, n) < 1e-6


class TestNormalizeRows:
    def test_unit_output(self, rng):
        x = rng.normal(size=(5, 4))
        out = normalize_rows(Tensor(x))
        np.testing.assert_allclose((out.data**2).sum(axis=-1), np.ones(5), atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateTokenError):
            normalize_rows(Tensor([[0.0, 0.0]]))

    def test_zero_row_fallback(self):
        out = normalize_rows(Tensor([[0.0, 0.0], [3.0, 4.0]]), zero_fallback=True)
        np.testing.assert_allclose(out.data, [[1.0, 0.0], [0.6, 0.8]])

    def test_fallback_rows_have_zero_grad(self):
        x = Tensor([[0.0, 0.0], [3.0, 4.0]], requires_grad=True)
        normalize_rows(x, zero_fallback=True).sum().backward()
        np.testing.assert_array_equal(x.grad[0], [0.0, 0.0])
        assert np.abs(x.grad[1]).max() > 0


class TestGradientAliasing:
    """Backward functions hand out aliased gradients (one array to both
    operands of ``add``, views from ``reshape`` and ``concat``, a read-only
    broadcast from ``sum``); accumulating in place must never write into them."""

    CASES = {
        "x+x": lambda t, c: ((t + t) * Tensor(c)).sum() + (t + t).sum(),
        "reshape(x)+x": lambda t, c: (reshape(reshape(t, (8,)), (2, 4)) + t).sum()
        + ((reshape(t, (4, 2)).reshape(2, 4) + t) * Tensor(c)).sum(),
        "x*x": lambda t, c: (t * t * Tensor(c)).sum(),
        "concat([x,x])": lambda t, c: (concat([t, t], axis=0) * Tensor(np.vstack([c, -c * 0.5]))).sum()
        + concat([t, t]).sum(),
        "gather_rows repeated": lambda t, c: (gather_rows(t, [1, 0, 1, 1]) * Tensor(np.vstack([c, c]))).sum()
        + (t * Tensor(c)).sum(),
        "sum then reuse": lambda t, c: t.sum() + (t * Tensor(c)).sum(),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_gradient(self, name, rng):
        x0 = rng.normal(size=(2, 4))
        c = rng.normal(size=(2, 4))
        g, n = grad_of(lambda t: self.CASES[name](t, c), x0)
        assert rel_err(g, n) < 1e-6, name

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_operands_sharing_one_gradient(self, shared_first, rng):
        # add hands one array to x and w; x's other write must not reach w's
        x0, w0, c, d = (rng.normal(size=(2, 3)) for _ in range(4))

        def loss(x, w):
            shared, own = ((x + w) * Tensor(c)).sum(), (x * Tensor(d)).sum()
            return shared + own if shared_first else own + shared

        x, w = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        loss(x, w).backward()
        assert rel_err(x.grad, finite_diff(lambda a: loss(Tensor(a), Tensor(w0)).item(), x0.copy())) < 1e-6
        assert rel_err(w.grad, finite_diff(lambda a: loss(Tensor(x0), Tensor(a)).item(), w0.copy())) < 1e-6

    def test_gradient_held_by_the_caller_is_not_written_into(self):
        w = Tensor([2.0, -1.0], requires_grad=True)
        (w * 3.0 + w * 2.0).sum().backward()  # two writes: w owns its gradient in this walk
        held = w.grad
        (w * 3.0).sum().backward()
        np.testing.assert_array_equal(held, [5.0, 5.0])
        np.testing.assert_array_equal(w.grad, [8.0, 8.0])
