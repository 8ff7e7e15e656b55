import warnings

import numpy as np
import pytest

from attnguide import autodiff
from attnguide.autodiff import Tensor, check_finite, trapped
from attnguide.errors import ContractError, DimensionError, NumericError
from attnguide.gradcheck import fd_gradients, relative_error

from composites import exp, log, sqrt, square, take_lastdim, tanh
from reftensor import RefTensor, ref


class TestMatmul:
    def test_identity_left(self):
        eye = RefTensor(np.eye(2))
        m = RefTensor([[7.0, -1.0], [2.5, 4.0]])
        assert np.array_equal((eye @ m).data, m.data)

    def test_identity_right(self):
        m = RefTensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((m @ RefTensor(np.eye(2))).data, m.data)

    def test_hand_oracle(self):
        out = RefTensor([[1.0, 2.0], [3.0, 4.0]]) @ RefTensor([[5.0], [6.0]])
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            RefTensor(np.ones((2, 3))) @ RefTensor(np.ones((2, 2)))

    def test_batched(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 2))
        out = RefTensor(a) @ RefTensor(b)
        assert np.allclose(out.data, a @ b)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(RefTensor([0.0, 0.0]).softmax_lastdim().data, [0.5, 0.5])

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        a = RefTensor(x).softmax_lastdim().data
        b = RefTensor(x + 123.456).softmax_lastdim().data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_constant_slice(self):
        out = RefTensor([3.7, 3.7, 3.7]).softmax_lastdim().data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        out = RefTensor([np.log(1.0), np.log(3.0)]).softmax_lastdim().data
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self, rng):
        x = rng.normal(scale=20.0, size=(5, 3, 7))
        s = RefTensor(x).softmax_lastdim().data
        assert np.max(np.abs(s.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(s >= 0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            RefTensor(np.ones((2, 0))).softmax_lastdim()


class TestBackward:
    def test_sum_gives_ones(self, rng):
        z = RefTensor(rng.normal(size=(3, 4)), requires_grad=True)
        z.sum().backward()
        assert np.array_equal(z.grad, np.ones((3, 4)))

    def test_quadratic(self):
        z = RefTensor([3.0, 4.0], requires_grad=True)
        (square(z).sum() * 0.5).backward()
        assert np.array_equal(z.grad, [3.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        z = RefTensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (z * 2.0).backward()

    def test_item_of_non_scalar_rejected(self):
        with pytest.raises(ContractError, match=r"expected scalar tensor, got shape \(2,\)"):
            Tensor([1.0, 2.0]).item()

    def test_deterministic(self, rng):
        base = rng.normal(size=(4, 4))

        def grad_once():
            z = RefTensor(base, requires_grad=True)
            w = RefTensor(np.arange(16.0).reshape(4, 4))
            loss = log(square((z @ w).softmax_lastdim()).sum() + (z * z).sum())
            loss.backward()
            return z.grad

        g1, g2 = grad_once(), grad_once()
        assert g1.tobytes() == g2.tobytes()

    def test_second_backward_replaces_grad(self):
        """A second walk sets every node's `.grad` afresh: the leaf's is not doubled."""
        z = RefTensor([3.0, 4.0], requires_grad=True)
        y = square(z)
        loss = y.sum() * 0.5
        loss.backward()
        first = z.grad
        loss.backward()
        assert z.grad is not first and np.array_equal(z.grad, [3.0, 4.0])
        assert np.array_equal(y.grad, [0.5, 0.5]) and np.array_equal(loss.grad, 1.0)

    def test_shared_subexpression(self):
        z = RefTensor([2.0], requires_grad=True)
        y = z * 3.0
        (y * y).sum().backward()  # d/dz (3z)^2 = 18 z
        assert np.allclose(z.grad, [36.0])

    def test_constants_get_no_gradient(self, rng):
        z = RefTensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = RefTensor(rng.normal(size=(3, 4)))
        b = RefTensor(rng.uniform(1.0, 2.0, size=(3,)))
        outs = [z @ w, w.transpose(1, 0) @ z.transpose(1, 0), z + b, b * z,
                z / b, b / (square(z) + 1.0)]
        for out in outs:
            parents = out._backward(np.ones(out.shape))
            assert [g is None for g in parents] == [not p.requires_grad for p in out._parents]
        loss = sum((out.sum() for out in outs), RefTensor(0.0))
        loss.backward()
        assert z.grad is not None
        assert w.grad is None and b.grad is None


class TestBroadcast:
    def test_trailing_expansion_allowed(self, rng):
        a = RefTensor(rng.normal(size=(2, 3, 4)))
        b = RefTensor(rng.normal(size=(4,)))
        assert (a + b).shape == (2, 3, 4)

    def test_richer_broadcast_rejected(self):
        with pytest.raises(DimensionError):
            RefTensor(np.ones((3, 1))) + RefTensor(np.ones((3, 4)))

    def test_gradient_sums_over_expanded_dims(self, rng):
        b = RefTensor(rng.normal(size=(4,)), requires_grad=True)
        (RefTensor(np.ones((2, 3, 4))) * b).sum().backward()
        assert np.allclose(b.grad, np.full(4, 6.0))


class TestFiniteness:
    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 1.0])

    def test_inf_rejected_from_op(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            RefTensor([1e308]) * RefTensor([1e308])

    def test_large_finite_values_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor([1e308, 1e308])  # finite, though their sum overflows
        assert t.data.tolist() == [1e308, 1e308]


    def test_check_finite_checks_every_array(self):
        check_finite(np.ones(2), np.zeros((2, 2)))
        with pytest.raises(NumericError):
            check_finite(np.ones(2), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("op", [
        lambda: np.full((64, 64), 1e200) @ np.full((64, 64), 1e200),
        lambda: np.full((8, 64, 16), 1e200) @ np.full((16, 16), 1e200),
        lambda: np.full(4, 1e308).sum(),
        lambda: np.log(np.zeros(2)),
        lambda: np.full(2, np.inf) - np.full(2, np.inf),
    ], ids=["matmul", "batched_matmul", "sum", "log_zero", "inf_minus_inf"])
    def test_trap_raises_on_this_build(self, op):
        """The package checks no intermediate, so a numpy or BLAS build that
        stops reporting floating-point status must fail here."""
        with pytest.raises(NumericError, match="encountered in"):
            trapped(op)()

    def test_trap_ignores_underflow_and_restores_the_callers_state(self):
        with np.errstate(all="raise"):
            before = np.geterr()
            assert trapped(np.exp)(np.array([-1000.0])).tolist() == [0.0]
            assert np.geterr() == before


class TestOwnership:
    def test_caller_array_stays_writeable(self):
        a = np.zeros(3)
        t = Tensor(a)
        a[0] = 1.0
        assert t.data.tolist() == [0.0, 0.0, 0.0]
        assert not t.data.flags.writeable

    def test_caller_view_is_copied(self):
        a = np.zeros((2, 3))
        t = Tensor(a[1])
        a[1, 0] = 1.0
        assert a.flags.writeable and t.data.tolist() == [0.0, 0.0, 0.0]

    def test_transposed_input_keeps_its_layout(self, rng):
        a = rng.normal(size=(3, 4))
        t = Tensor(a.T)
        assert t.data.flags.f_contiguous and not t.data.flags.c_contiguous
        assert t.data.tobytes() == a.T.tobytes()

    def test_node_result_is_kept_not_copied(self):
        out = np.arange(3.0)
        t = Tensor.node(out, (Tensor([1.0], requires_grad=True),), lambda g: (g.sum(),))
        assert t.data is out and not out.flags.writeable and t.requires_grad


class TestFiniteDiff:
    def test_linear_exact(self, rng):
        err = relative_error(*fd_gradients(lambda z: ref(z).sum(), rng.normal(size=(3, 3)), 1e-3))
        assert err <= 1e-12

    def test_quadratic(self, rng):
        err = relative_error(*fd_gradients(lambda z: square(z).sum() * 0.5, rng.normal(size=8),
                                           1e-3))
        assert err <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_composite_ops_match(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 3), (4, 4), (2, 2, 4), (8,)]
        shape = shapes[rng.integers(len(shapes))]
        base = rng.normal(size=shape)
        w = rng.normal(size=(int(shape[-1]), 3))

        def f(z):
            h = log(tanh(z) + 1.5)
            flat = h.reshape(-1, int(shape[-1]))
            s = (flat @ Tensor(w)).softmax_lastdim()
            return sqrt(square(s).sum() + exp(h).sum() * 0.01)

        assert relative_error(*fd_gradients(f, base, 1e-4)) <= 1e-4

    def test_take_lastdim_gradient(self, rng):
        base = rng.normal(size=(3, 5))
        err = relative_error(*fd_gradients(
            lambda z: square(take_lastdim(ref(z).softmax_lastdim(), 2)).sum(), base, 1e-3))
        assert err <= 1e-6

    def test_requires_positive_step(self):
        with pytest.raises(ContractError):
            fd_gradients(lambda z: ref(z).sum(), np.array([1.0]), 0.0)


class TestGraphRecord:
    """The package's Tensor is a leaf or a graph node; the array ops live in `reftensor.py`."""

    REMOVED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "reshape", "transpose", "sum",
               "matmul", "__matmul__", "softmax_lastdim", "_elementwise")

    @pytest.mark.parametrize("name", REMOVED)
    def test_tensor_has_no_array_op(self, name):
        assert not hasattr(Tensor, name)

    @pytest.mark.parametrize("name", ["_suffix_broadcast_shape", "_unbroadcast"])
    def test_module_has_no_broadcast_rule(self, name):
        assert not hasattr(autodiff, name)

    def test_node_backward_reaches_the_leaf(self):
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        loss = Tensor.node(np.asarray(leaf.data @ leaf.data), (leaf,),
                           lambda g: (2.0 * g * leaf.data,))
        loss.backward()
        assert loss.item() == 5.0 and leaf.grad.tolist() == [2.0, 4.0]

    def test_ref_views_a_package_node(self):
        leaf = Tensor([3.0, 4.0], requires_grad=True)
        view = ref(leaf)
        assert isinstance(view, RefTensor) and view.data is leaf.data and ref(view) is view
        (view * view).sum().backward()
        assert leaf.grad.tolist() == [6.0, 8.0]
