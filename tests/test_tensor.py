"""Tensor-core contracts: gradients against finite differences, masked
softmax semantics, the cross-entropy head, and optimizer behaviour."""

import numpy as np
import pytest

import ccm.tensor as T
from ccm.errors import ContractViolation, DimensionError
from ccm.optim import Adam, cosine_lr
from ccm.tensor import Parameter, Tensor, finite_difference_check


def sum_all(a: Tensor) -> Tensor:
    """The sum of every element, as a scalar op on the tape: the loss the
    gradient checks below differentiate."""
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g))

    return T._make(out_data, (a,), bw)


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x (float64)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check_op_grad(make_out, inputs, rtol=1e-3, seed=0):
    """Compare analytic gradients of sum(w * op(...)) with finite differences."""
    rng = np.random.default_rng(seed)
    for x in inputs:
        x.zero_grad()
    out = make_out()
    w = rng.standard_normal(out.shape)

    def scalar():
        return float((make_out().data * w).sum())

    loss = sum_all(T.mul(make_out(), w))
    loss.backward()
    for x in inputs:
        analytic = x.grad
        numeric = fd_grad(scalar, x.data)
        err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)
        assert err.max() < rtol, f"grad mismatch: {err.max():.2e}"


# ---------------------------------------------------------------------------
# invariants


def test_tensor_shape_data_invariant():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert int(np.prod(x.shape)) == x.data.size
    x.requires_grad = True
    sum_all(x).backward()
    assert x.grad.shape == x.data.shape


def test_backward_accumulates_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    sum_all(x).backward()
    sum_all(T.mul(x, 2.0)).backward()
    np.testing.assert_allclose(x.grad, 3.0 * np.ones(3))


def test_forward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(123)
        a = Tensor(rng.standard_normal((5, 7)))
        b = Tensor(rng.standard_normal((7, 3)))
        return T.silu(T.matmul(a, b)).data

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [4.0]])


def test_matmul_hand_arithmetic():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(T.matmul(a, b).data, [[11.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def scalar():
        return float((a.data @ b.data).sum())

    loss = sum_all(T.matmul(a, b))
    loss.backward()
    for x in (a, b):
        numeric = fd_grad(scalar, x.data)
        err = np.abs(x.grad - numeric) / (np.abs(numeric) + 1e-12)
        assert err.max() < 1e-3


# ---------------------------------------------------------------------------
# primitive gradients vs finite differences (>= 20 random instances each)


@pytest.mark.parametrize("instance", range(20))
def test_primitive_gradients(instance):
    rng = np.random.default_rng(instance)
    a = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    c = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    gain = Tensor(rng.standard_normal(6), requires_grad=True)

    check_op_grad(lambda: T.add(a, b), [a, b], seed=instance)
    check_op_grad(lambda: T.mul(a, b), [a, b], seed=instance)
    check_op_grad(lambda: T.mul(a, gain), [a, gain], seed=instance)
    check_op_grad(lambda: T.matmul(a, c), [a, c], seed=instance)
    check_op_grad(lambda: T.silu(a), [a], seed=instance)
    check_op_grad(lambda: T.mean_last(a), [a], seed=instance)
    check_op_grad(lambda: T.pow_scalar(T.add(T.mul(a, a), 1.0), -0.5), [a],
                  seed=instance)
    check_op_grad(lambda: T.reshape(a, (6, 4)), [a], seed=instance)
    check_op_grad(lambda: T.transpose(a, (1, 0)), [a], seed=instance)
    check_op_grad(lambda: T.concat([a, b], axis=0), [a, b], seed=instance)
    check_op_grad(lambda: T.narrow(a, 0, 1, 2), [a], seed=instance)
    check_op_grad(lambda: T.take_rows(a, np.array([0, 2, 2, 1])), [a], seed=instance)


@pytest.mark.parametrize("instance", range(20))
def test_structured_op_gradients(instance):
    rng = np.random.default_rng(100 + instance)
    base = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    delta = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    rows = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    idx = np.array([1, 3])
    check_op_grad(lambda: T.add_rows(base, idx, delta), [base, delta], seed=instance)
    check_op_grad(lambda: T.set_rows(base, idx, rows), [base, rows], seed=instance)

    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    cos, sin = T.rope_angles(np.arange(4), 8, 10000.0, np.float64)
    check_op_grad(lambda: T.rope(x, cos, sin), [x], seed=instance)

    logits = Tensor(rng.standard_normal((3, 7)), requires_grad=True)
    mask = rng.random((3, 7)) > 0.3
    mask[:, 0] = True
    check_op_grad(lambda: T.softmax_rows(logits, mask), [logits], seed=instance)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = T.softmax_rows(Tensor(np.array([[0.0, 0.0]])), np.array([[True, True]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_single_allowed_entry():
    out = T.softmax_rows(Tensor(np.array([[5.0, 5.0, 5.0]])),
                         np.array([[True, False, False]]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0, 0.0]])


def test_softmax_matches_reference_formula():
    # independent high-precision evaluation: direct exp/sum without max shift
    x = np.array([[1.0, 2.0, 3.0]])
    ref = np.exp(x) / np.exp(x).sum()
    out = T.softmax_rows(Tensor(x), np.ones_like(x, dtype=bool))
    np.testing.assert_allclose(out.data, ref, atol=1e-9)


def test_softmax_rows_sum_to_one_and_masked_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 9))
    mask = rng.random((20, 9)) > 0.4
    mask[:, 3] = True
    out = T.softmax_rows(Tensor(x), mask).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out[~mask] == 0.0).all()


def test_softmax_fully_masked_row_rejected():
    with pytest.raises(ContractViolation):
        T.softmax_rows(Tensor(np.zeros((2, 3))),
                       np.array([[True, True, True], [False, False, False]]))


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_is_log_vocab():
    v = 11
    logits = Tensor(np.zeros((1, v)))
    loss = T.cross_entropy_next_token(logits, np.array([3]), np.array([1]))
    assert abs(loss.item() - np.log(v)) < 1e-12


def test_cross_entropy_one_hot_margin():
    losses = []
    for margin in (2.0, 5.0, 10.0):
        row = np.zeros((1, 6))
        row[0, 2] = margin
        loss = T.cross_entropy_next_token(Tensor(row), np.array([2]), np.array([1]))
        losses.append(loss.item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[-1] < 1e-3


def test_cross_entropy_matches_brute_force():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((4, 13))
    targets = rng.integers(0, 13, size=4)
    weights = np.array([1, 0, 1, 1])
    # brute-force log-sum-exp reference
    ref = 0.0
    for i in range(4):
        if weights[i]:
            ref += np.log(np.exp(logits[i]).sum()) - logits[i, targets[i]]
    ref /= weights.sum()
    loss = T.cross_entropy_next_token(Tensor(logits), targets, weights)
    assert abs(loss.item() - ref) < 1e-8


def test_cross_entropy_rejects_all_zero_weights():
    with pytest.raises(ContractViolation):
        T.cross_entropy_next_token(Tensor(np.zeros((2, 4))), np.array([0, 1]),
                                   np.array([0, 0]))


def test_cross_entropy_gradient_only_on_weighted_rows():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    loss = T.cross_entropy_next_token(logits, np.array([0, 1, 2]),
                                      np.array([1, 0, 1]))
    loss.backward()
    assert np.all(logits.grad[1] == 0.0)
    assert np.any(logits.grad[0] != 0.0)


# ---------------------------------------------------------------------------
# optimizer


def test_frozen_parameter_unchanged():
    p = Parameter("w", Tensor(np.array([1.0])), trainable=False)
    p.tensor.grad = np.array([5.0])
    Adam([p]).step(0.1)
    assert p.data[0] == 1.0


def test_trainable_is_the_tensors_requires_grad():
    # one flag: freezing a parameter or its tensor is the same act
    p = Parameter("w", Tensor(np.array([1.0])), trainable=False)
    assert not p.trainable and not p.tensor.requires_grad
    p.tensor.requires_grad = True
    assert p.trainable
    p.freeze()
    assert not p.tensor.requires_grad


def test_adam_single_step_matches_hand_formula():
    w0, g, lr = 1.0, 2.0, 0.1
    b1, b2, eps = 0.9, 0.999, 1e-8
    # one step from zero moments
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = w0 - lr * m_hat / (np.sqrt(v_hat) + eps)

    p = Parameter("w", Tensor(np.array([w0])))
    p.tensor.grad = np.array([g])
    Adam([p]).step(lr)
    assert abs(p.data[0] - expected) < 1e-12


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1.0) == pytest.approx(1.0)
    assert cosine_lr(99, 100, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0, 1, 0.5) == 0.5


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_fd_check_quadratic():
    p = Parameter("w", Tensor(np.array([3.0])))

    def f():
        return sum_all(T.mul(p.tensor, p.tensor))

    # analytic gradient 2w = 6
    err = finite_difference_check(f, [p], n_samples=3, seed=0)
    assert err < 1e-6


def test_fd_check_constant_function():
    p = Parameter("w", Tensor(np.array([3.0])))

    def f():
        return sum_all(T.mul(p.tensor, 0.0))

    assert finite_difference_check(f, [p], n_samples=3) == 0.0
