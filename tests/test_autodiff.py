import warnings

import numpy as np
import pytest

from attnguide.autodiff import Tensor, finite_diff_check, matmul, softmax_lastdim
from attnguide.errors import ContractError, DimensionError, NumericError


class TestMatmul:
    def test_identity_left(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[7.0, -1.0], [2.5, 4.0]])
        assert np.array_equal((eye @ m).data, m.data)

    def test_identity_right(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((m @ Tensor(np.eye(2))).data, m.data)

    def test_hand_oracle(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_batched(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_lastdim(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        a = softmax_lastdim(Tensor(x)).data
        b = softmax_lastdim(Tensor(x + 123.456)).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_constant_slice(self):
        out = softmax_lastdim(Tensor([3.7, 3.7, 3.7])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        out = softmax_lastdim(Tensor([np.log(1.0), np.log(3.0)])).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self, rng):
        x = rng.normal(scale=20.0, size=(5, 3, 7))
        s = softmax_lastdim(Tensor(x)).data
        assert np.max(np.abs(s.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(s >= 0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            softmax_lastdim(Tensor(np.ones((2, 0))))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        z = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z.sum().backward()
        assert np.array_equal(z.grad, np.ones((3, 4)))

    def test_quadratic(self):
        z = Tensor([3.0, 4.0], requires_grad=True)
        (z.square().sum() * 0.5).backward()
        assert np.array_equal(z.grad, [3.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        z = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (z * 2.0).backward()

    def test_deterministic(self, rng):
        base = rng.normal(size=(4, 4))

        def grad_once():
            z = Tensor(base, requires_grad=True)
            w = Tensor(np.arange(16.0).reshape(4, 4))
            loss = ((z @ w).softmax_lastdim().square().sum() + (z * z).sum()).log()
            loss.backward()
            return z.grad

        g1, g2 = grad_once(), grad_once()
        assert g1.tobytes() == g2.tobytes()

    def test_shared_subexpression(self):
        z = Tensor([2.0], requires_grad=True)
        y = z * 3.0
        (y * y).sum().backward()  # d/dz (3z)^2 = 18 z
        assert np.allclose(z.grad, [36.0])

    def test_constants_get_no_gradient(self, rng):
        z = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.uniform(1.0, 2.0, size=(3,)))
        outs = [z @ w, w.transpose(1, 0) @ z.transpose(1, 0), z + b, b * z,
                z / b, b / (z.square() + 1.0)]
        for out in outs:
            parents = out._backward(np.ones(out.shape))
            assert [g is None for g in parents] == [not p.requires_grad for p in out._parents]
        loss = sum((out.sum() for out in outs), Tensor(0.0))
        loss.backward()
        assert z.grad is not None
        assert w.grad is None and b.grad is None


class TestBroadcast:
    def test_trailing_expansion_allowed(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        assert (a + b).shape == (2, 3, 4)

    def test_richer_broadcast_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((3, 1))) + Tensor(np.ones((3, 4)))

    def test_gradient_sums_over_expanded_dims(self, rng):
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (Tensor(np.ones((2, 3, 4))) * b).sum().backward()
        assert np.allclose(b.grad, np.full(4, 6.0))


class TestFiniteness:
    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])

    def test_inf_rejected_from_op(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            Tensor([1e308]) * Tensor([1e308])

    def test_large_finite_values_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor([1e308, 1e308])  # finite, though their sum overflows
        assert t.data.tolist() == [1e308, 1e308]


class TestFiniteDiff:
    def test_linear_exact(self, rng):
        err = finite_diff_check(lambda z: z.sum(), Tensor(rng.normal(size=(3, 3))))
        assert err <= 1e-12

    def test_quadratic(self, rng):
        err = finite_diff_check(
            lambda z: z.square().sum() * 0.5, Tensor(rng.normal(size=8)), step=1e-3
        )
        assert err <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_composite_ops_match(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 3), (4, 4), (2, 2, 4), (8,)]
        shape = shapes[rng.integers(len(shapes))]
        base = rng.normal(size=shape)
        w = rng.normal(size=(int(shape[-1]), 3))

        def f(z):
            h = (z.tanh() + 1.5).log()
            flat = h.reshape(-1, int(shape[-1]))
            s = (flat @ Tensor(w)).softmax_lastdim()
            return (s.square().sum() + h.exp().sum() * 0.01).sqrt()

        assert finite_diff_check(f, Tensor(base), step=1e-4) <= 1e-4

    def test_take_lastdim_gradient(self, rng):
        base = rng.normal(size=(3, 5))
        err = finite_diff_check(
            lambda z: z.softmax_lastdim().take_lastdim(2).square().sum(),
            Tensor(base),
        )
        assert err <= 1e-6

    def test_requires_positive_step(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda z: z.sum(), Tensor([1.0]), step=0.0)
