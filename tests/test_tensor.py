"""Tensor-core contracts: gradients against finite differences, masked
softmax semantics, the fused attention and RMSNorm against their composed
forms, the cached rotary table, the cross-entropy head, and optimizer
behaviour."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# composed oracles: the tape ops the fused attention and RMSNorm replace


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * exponent * a.data ** (exponent - 1.0))

    return T._make(out_data, (a,), bw)


def mean_last(a: Tensor) -> Tensor:
    """Mean over the last axis, keepdims."""
    n = a.shape[-1]
    out_data = a.data.mean(axis=-1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g / n, a.shape).copy())

    return T._make(out_data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return T._make(out_data, (a,), bw)


def tape_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate the last axis of [..., n, d] ``x`` by [n, d//2] angles."""
    half = x.shape[-1] // 2
    x1, x2 = x.data[..., :half], x.data[..., half:]
    out_data = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def bw(g):
        if x.requires_grad:
            g1, g2 = g[..., :half], g[..., half:]
            x.accumulate_grad(np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos],
                                             axis=-1))

    return T._make(out_data, (x,), bw)


def tape_softmax_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """``T.softmax_rows`` on the tape, over a copy of ``x``'s data, which it
    would otherwise overwrite; a row that allows nothing is rejected."""
    if not np.asarray(mask).any(axis=-1).all():
        raise ContractViolation("softmax row with all entries masked")
    out_data = T.softmax_rows(x.data.copy(), mask)

    def bw(g):
        if x.requires_grad:
            gy = g * out_data
            x.accumulate_grad(gy - out_data * gy.sum(axis=-1, keepdims=True))

    return T._make(out_data, (x,), bw)


def composed_rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    ms = T.add(mean_last(T.mul(x, x)), T.RMS_EPS)
    return T.mul(T.mul(x, pow_scalar(ms, -0.5)), gain)


def composed_block(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                   angles_q: tuple, angles_k: tuple, allowed: np.ndarray) -> Tensor:
    """One block of ``T.attention`` as 15 tape ops: [n, d] queries at the
    angle rows ``angles_q`` over [m, d] keys at ``angles_k``, masked by the
    [n, m] ``allowed``."""
    n, m = q.shape[0], k.shape[0]
    h, dh = n_heads, q.shape[1] // n_heads
    qh = T.transpose(reshape(q, (n, h, dh)), (1, 0, 2))
    kh = T.transpose(reshape(k, (m, h, dh)), (1, 0, 2))
    vh = T.transpose(reshape(v, (m, h, dh)), (1, 0, 2))
    qh = tape_rope(qh, *angles_q)
    kh = tape_rope(kh, *angles_k)
    scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(dh))
    weights = tape_softmax_rows(scores, np.broadcast_to(allowed, (h, n, m)))
    ctx = T.matmul(weights, vh)
    return reshape(T.transpose(ctx, (1, 0, 2)), (n, h * dh))


def composed_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                       cos: np.ndarray, sin: np.ndarray, parts=None) -> Tensor:
    """``T.attention`` composed block by block: the n queries are the last n
    of m keys, at the last n of the keys' angle rows; each (lo, hi, keys,
    mask) block of ``parts`` gathers its queries and keys, attends, and the
    blocks' outputs are stacked. None is one causal block over every key."""
    n, m = q.shape[0], k.shape[0]
    if parts is None:
        parts = [(0, n, np.arange(m), np.tril(np.ones((n, m), dtype=bool), m - n))]
    outs = []
    for lo, hi, keys, allowed in parts:
        rows = np.arange(lo, hi)
        outs.append(composed_block(
            T.take_rows(q, rows), T.take_rows(k, keys), T.take_rows(v, keys), n_heads,
            (cos[m - n:][rows], sin[m - n:][rows]), (cos[keys], sin[keys]), allowed))
    return T.concat(outs)


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


def test_backward_releases_the_tape_and_keeps_leaf_grads():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    c = rng.standard_normal((3, 2))
    h = T.matmul(x, w)
    y = T.mul(h, c)
    loss = sum_all(y)
    loss.backward()
    np.testing.assert_allclose(x.grad, c @ w.data.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ c, rtol=0, atol=1e-12)
    for node in (h, y, loss):  # interior: no grad, parents or closure left
        assert node.grad is None and node._parents == ()
        assert node._backward.__closure__ is None
    grads = x.grad.copy(), w.grad.copy()
    # a second sweep through the released graph, or a new graph built on a
    # node of it, would double-count: both are refused, leaves untouched
    with pytest.raises(ContractViolation):
        loss.backward()
    with pytest.raises(ContractViolation):
        sum_all(T.mul(h, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, grads[0])
    np.testing.assert_array_equal(w.grad, grads[1])


def test_first_grad_is_a_copy_in_the_tensors_dtype():
    x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    x.accumulate_grad(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert x.grad.dtype == np.float32
    y = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.arange(6, dtype=np.float64).reshape(2, 3)
    y.accumulate_grad(g)
    g[...] = -1.0  # the buffer does not alias the first gradient
    np.testing.assert_array_equal(y.grad, np.arange(6).reshape(2, 3))
    y.accumulate_grad(g)
    np.testing.assert_array_equal(y.grad, np.arange(6).reshape(2, 3) - 1.0)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    b.accumulate_grad(np.array([1.0, 2.0, 3.0]))  # a broadcast first gradient
    np.testing.assert_array_equal(b.grad, [[1.0, 2.0, 3.0]] * 2)


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


def zeros(*shape, dtype=np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype))


@pytest.mark.parametrize("a,b,message", [
    (zeros(2, 3), np.zeros((3, 2)), "matmul expects two tensors"),
    (zeros(2, 3), zeros(3, 2, dtype=np.float32), "dtype mismatch: float64 vs float32"),
    (zeros(3), zeros(3, 2), r"matmul rank mismatch: \(3,\) x \(3, 2\)"),
    (zeros(2, 3), zeros(1, 3, 2), r"matmul rank mismatch: \(2, 3\) x \(1, 3, 2\)"),
    (zeros(2, 3), zeros(2, 3), r"matmul shape mismatch: \(2, 3\) x \(2, 3\)"),
    (zeros(2, 2, 3), zeros(3, 3, 2),
     r"matmul shape mismatch: \(2, 2, 3\) x \(3, 3, 2\)")],
    ids=["not-a-tensor", "dtype", "rank-1", "ranks-differ", "inner", "batch"])
def test_matmul_errors_name_what_failed(a, b, message):
    # one combined test guards the hot path; each failure keeps its message
    with pytest.raises(DimensionError, match=f"^{message}$"):
        T.matmul(a, b)


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
    check_op_grad(lambda: mean_last(a), [a], seed=instance)
    check_op_grad(lambda: pow_scalar(T.add(T.mul(a, a), 1.0), -0.5), [a],
                  seed=instance)
    check_op_grad(lambda: reshape(a, (6, 4)), [a], seed=instance)
    check_op_grad(lambda: T.transpose(a, (1, 0)), [a], seed=instance)
    # a cycle is not its own inverse: (2, 0, 1) comes back through (1, 2, 0)
    check_op_grad(lambda: T.transpose(reshape(a, (2, 3, 4)), (2, 0, 1)), [a],
                  seed=instance)
    check_op_grad(lambda: T.concat([a, b]), [a, b], seed=instance)
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
    cos, sin = T.rope_angles(4, 8, np.float64)
    check_op_grad(lambda: tape_rope(x, cos, sin), [x], seed=instance)

    logits = Tensor(rng.standard_normal((3, 7)), requires_grad=True)
    mask = rng.random((3, 7)) > 0.3
    mask[:, 0] = True
    check_op_grad(lambda: tape_softmax_rows(logits, mask), [logits], seed=instance)


# ---------------------------------------------------------------------------
# fused attention and RMSNorm against their composed forms


def attention_inputs(rng, n, n_mem, n_heads, head_dim):
    """Float64 q [n, d] and k, v [n_mem + n, d] leaves, with their angles."""
    m, d = n_mem + n, n_heads * head_dim
    q, k, v = (Tensor(rng.standard_normal((rows, d)), requires_grad=True)
               for rows in (n, m, m))
    cos, sin = T.rope_angles(m, head_dim, np.float64)
    return q, k, v, cos, sin


def output_and_grads(op, inputs, w):
    """op()'s output and the gradients of sum(w * op()) in ``inputs``."""
    for x in inputs:
        x.zero_grad()
    out = op()
    sum_all(T.mul(out, w)).backward()
    return [out.data] + [x.grad for x in inputs]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), n_mem=st.integers(0, 8), n_heads=st.integers(1, 4),
       half=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_fused_attention_equals_composed(n, n_mem, n_heads, half, seed):
    rng = np.random.default_rng(seed)
    q, k, v, cos, sin = attention_inputs(rng, n, n_mem, n_heads, 2 * half)
    w = rng.standard_normal(q.shape)
    fused = output_and_grads(lambda: T.attention(q, k, v, n_heads, cos, sin),
                             [q, k, v], w)
    composed = output_and_grads(lambda: composed_attention(q, k, v, n_heads, cos, sin),
                                [q, k, v], w)
    for got, want in zip(fused, composed):  # output, dq, dk, dv
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), n_mem=st.integers(1, 40), n_heads=st.integers(1, 4),
       half=st.integers(1, 8), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_default_block_equals_an_explicit_tril_mask_bit_for_bit(n, n_mem, n_heads, half,
                                                               dtype, seed):
    # the default block masks its queries' own later keys with -inf scores
    # and no m-wide mask: outputs and gradients are the masked softmax's
    rng = np.random.default_rng(seed)
    m, d = n_mem + n, n_heads * 2 * half
    q, k, v = (Tensor(rng.standard_normal((rows, d)).astype(dtype), requires_grad=True)
               for rows in (n, m, m))
    cos, sin = T.rope_angles(m, 2 * half, dtype)
    w = rng.standard_normal(q.shape).astype(dtype)
    tril = T.Blocks([(0, n, np.arange(m), np.tril(np.ones((n, m), dtype=bool), m - n))])
    got = output_and_grads(lambda: T.attention(q, k, v, n_heads, cos, sin), [q, k, v], w)
    want = output_and_grads(lambda: T.attention(q, k, v, n_heads, cos, sin, blocks=tril),
                            [q, k, v], w)
    for a, b in zip(got, want):  # output, dq, dk, dv
        assert a.dtype == dtype and np.array_equal(a, b)


@st.composite
def block_attention_cases(draw):
    """(m, n_heads, half, seed, parts, positions): n queries in 1..4 blocks of
    consecutive rows, the m keys dealt out to the blocks in a random order,
    one random mask per block with at least one key per row, and key
    positions drawn with repeats and in any order, as a training pack gives."""
    n_blocks = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n_blocks, max_size=n_blocks))
    n = sum(sizes)
    m = n + draw(st.integers(0, 8))
    n_heads, half = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    owner = np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, m - n_blocks)])
    owner = rng.permutation(owner)  # every block owns at least one key
    parts, lo = [], 0
    for b, size in enumerate(sizes):
        keys = np.flatnonzero(owner == b)
        allowed = rng.random((size, keys.size)) < draw(st.floats(0.05, 1.0))
        allowed[np.arange(size), rng.integers(0, keys.size, size)] = True
        parts.append((lo, lo + size, keys, allowed))
        lo += size
    positions = np.array(draw(st.lists(st.integers(0, 12), min_size=m, max_size=m)))
    return m, n_heads, half, seed, parts, positions


@settings(max_examples=80, deadline=None)
@given(block_attention_cases())
def test_masked_attention_equals_composed(case):
    # the fused op runs every block in one tape node; composed runs each
    # block on its own, as separate sequences would
    m, n_heads, half, seed, parts, positions = case
    n = parts[-1][1]
    rng = np.random.default_rng(seed)
    q, k, v, _, _ = attention_inputs(rng, n, m - n, n_heads, 2 * half)
    cos, sin = (a[positions] for a in T.rope_angles(13, 2 * half, np.float64))
    w = rng.standard_normal(q.shape)
    fused = output_and_grads(
        lambda: T.attention(q, k, v, n_heads, cos, sin, blocks=T.Blocks(parts)), [q, k, v], w)
    composed = output_and_grads(
        lambda: composed_attention(q, k, v, n_heads, cos, sin, parts), [q, k, v], w)
    for got, want in zip(fused, composed):  # output, dq, dk, dv
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def grouped_pack_cases(draw, halves=st.integers(1, 4)):
    """(dtype, n_heads, half, seed, parts, positions): 1..7 blocks laid out as
    ``model.pack_blocks`` lays out a pack, keys [every block's w memory
    columns | every block's n queries], each block's own queries its last n
    keys, with (n, w) drawn from few shapes so that groups of several blocks
    and of one arise. Masks are random, but every query reads its own key."""
    shapes = draw(st.lists(st.sampled_from([(1, 0), (1, 2), (2, 1), (3, 2)]),
                           min_size=1, max_size=7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_heads, half = draw(st.integers(1, 3)), draw(halves)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_mem = sum(w for _, w in shapes)
    parts, lo, mem_lo = [], 0, 0
    for n, w in shapes:
        allowed = rng.random((n, w + n)) < 0.6
        allowed[np.arange(n), w + np.arange(n)] = True
        parts.append((lo, lo + n, np.r_[mem_lo:mem_lo + w, n_mem + lo:n_mem + lo + n],
                      allowed))
        lo, mem_lo = lo + n, mem_lo + w
    positions = rng.integers(0, 9, n_mem + lo)
    return dtype, n_heads, half, seed, parts, positions


@settings(max_examples=60, deadline=None)
@given(grouped_pack_cases())
def test_grouped_blocks_are_each_block_alone_bit_for_bit(case):
    # blocks of one mask shape run as one batch: output and gradients equal
    # those of one attention per block over its own queries and keys
    dtype, n_heads, half, seed, parts, positions = case
    rng = np.random.default_rng(seed)
    n, m, d = parts[-1][1], positions.size, n_heads * 2 * half
    q, k, v = (Tensor(rng.standard_normal((rows, d)).astype(dtype), requires_grad=True)
               for rows in (n, m, m))
    cos, sin = (a[positions] for a in T.rope_angles(9, 2 * half, dtype))
    w = rng.standard_normal(q.shape).astype(dtype)
    blocks = T.Blocks(parts)
    assert len(blocks.groups) == len({mask.shape for *_, mask in parts})

    def one_at_a_time():
        return T.concat([T.attention(
            T.take_rows(q, np.arange(lo, hi)), T.take_rows(k, keys), T.take_rows(v, keys),
            n_heads, cos[keys], sin[keys],
            blocks=T.Blocks([(0, hi - lo, np.arange(keys.size), mask)]))
            for lo, hi, keys, mask in parts])

    grouped = output_and_grads(
        lambda: T.attention(q, k, v, n_heads, cos, sin, blocks=blocks), [q, k, v], w)
    alone = output_and_grads(one_at_a_time, [q, k, v], w)
    for got, want in zip(grouped, alone):  # output, dq, dk, dv
        assert got.dtype == dtype and np.array_equal(got, want)


def four_product_rope(x, cos, sin):
    """The rotation as one concatenate of four products, as it was written
    before ``T.rope`` ran in two passes."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def scaled_scores_attention(q, k, v, n_heads, cos, sin, parts, g):
    """``T.attention``'s output and (dq, dk, dv) under the upstream gradient
    ``g``, block by block, in the formulas it had before the queries took
    the scale and the backward ran in place: the scale on the scores, and
    the backward over fresh temporaries."""
    (n, d), m = q.shape, k.shape[0]
    dh = d // n_heads
    cq, sq = cos[m - n:], sin[m - n:]

    def heads(a):
        return a.reshape(a.shape[0], n_heads, dh).transpose(1, 0, 2)

    qh, kh, vh, gh = (four_product_rope(heads(q), cq, sq), four_product_rope(heads(k), cos, sin),
                      heads(v), heads(g))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    out, dq, dk, dv = (np.empty_like(a) for a in (qh, qh, kh, vh))
    for lo, hi, keys, mask in parts:
        s = np.where(mask, (qh[:, lo:hi] @ kh[:, keys].swapaxes(-1, -2)) * scale, -np.inf)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        w = s / s.sum(axis=-1, keepdims=True)
        out[:, lo:hi] = w @ vh[:, keys]
        gb = gh[:, lo:hi]
        dv[:, keys] = w.swapaxes(-1, -2) @ gb
        gy = (gb @ vh[:, keys].swapaxes(-1, -2)) * w
        gs = (gy - w * gy.sum(axis=-1, keepdims=True)) * scale
        dq[:, lo:hi] = gs @ kh[:, keys]
        dk[:, keys] = (qh[:, lo:hi].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)

    def rows(a):
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    return (rows(out), rows(four_product_rope(dq, cq, -sq)),
            rows(four_product_rope(dk, cos, -sin)), rows(dv))


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 4), n=st.integers(1, 9), half=st.integers(1, 8),
       dtype=st.sampled_from([np.float32, np.float64]), transposed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_rope_equals_the_concatenated_formula_bit_for_bit(heads, n, half, dtype,
                                                           transposed, seed):
    # on C-ordered heads and on the transposed head views attention passes,
    # rotation and transpose equal the four-product formula in every bit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, heads, 2 * half)).astype(dtype).transpose(1, 0, 2)
    x = x if transposed else np.ascontiguousarray(x)
    ang = rng.uniform(-np.pi, np.pi, (n, half))
    cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
    for s in (sin, -sin):
        got = T.rope(x, cos, s)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.array_equal(got, four_product_rope(x, cos, s))


def attention_and_the_earlier_form(case, default):
    """(got, want): output and q/k/v grads of ``T.attention`` over the
    ``grouped_pack_cases`` pack, or over its n queries as the default block,
    and of ``scaled_scores_attention`` over the same blocks."""
    dtype, n_heads, half, seed, parts, positions = case
    rng = np.random.default_rng(seed)
    n, m, d = parts[-1][1], positions.size, n_heads * 2 * half
    q, k, v = (Tensor(rng.standard_normal((rows, d)).astype(dtype), requires_grad=True)
               for rows in (n, m, m))
    cos, sin = (a[positions] for a in T.rope_angles(9, 2 * half, dtype))
    w = rng.standard_normal(q.shape).astype(dtype)
    if default:
        parts = [(0, n, np.arange(m), T.causal_mask(n, m))]
    blocks = None if default else T.Blocks(parts)
    got = output_and_grads(lambda: T.attention(q, k, v, n_heads, cos, sin, blocks=blocks),
                           [q, k, v], w)
    return got, scaled_scores_attention(q.data, k.data, v.data, n_heads, cos, sin, parts, w)


@settings(max_examples=60, deadline=None)
@given(grouped_pack_cases(halves=st.sampled_from([2, 8])), st.booleans())
def test_attention_equals_the_earlier_formulas_bit_for_bit(case, default):
    # at dh 4 and 16, 1/sqrt(dh) is a power of two, so scaling the queries
    # rounds as scaling the scores does; the in-place backward runs the same
    # operations in the same order
    got, want = attention_and_the_earlier_form(case, default)
    for a, b in zip(got, want):  # output, dq, dk, dv
        assert a.dtype == case[0] and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(grouped_pack_cases(halves=st.just(6)), st.booleans())
def test_attention_at_an_odd_scale_is_the_earlier_formulas_within_rounding(case, default):
    # at dh 12 the scaled queries round differently from the scaled scores
    got, want = attention_and_the_earlier_form(case, default)
    for a, b in zip(got, want):  # output, dq, dk, dv
        assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max()


@pytest.mark.parametrize("shape", [(3, 6), (2, 7), (3, 7, 1), (7,)])
def test_attention_rejects_a_mask_of_another_shape(shape):
    with pytest.raises(DimensionError):
        T.Blocks([(0, 3, np.arange(7), np.ones(shape, dtype=bool))])


def block(lo, hi, keys):
    return lo, hi, np.array(keys), np.ones((hi - lo, len(keys)), dtype=bool)


@pytest.mark.parametrize("row", [0, 2])
def test_blocks_reject_a_mask_row_that_allows_no_key(row):
    # its softmax would divide 0 by 0: NaN weights, not an error
    lo, hi, keys, mask = block(0, 3, range(4))
    mask[row] = False
    with pytest.raises(DimensionError, match="allows no key"):
        T.Blocks([(lo, hi, keys, mask), block(3, 5, range(4, 6))])


@pytest.mark.parametrize("parts", [
    [],
    [block(0, 2, [0, 1]), block(2, 3, [1, 2])],       # a key in two blocks
    [block(0, 2, [0]), block(2, 3, [2])],             # a key in none
    [block(0, 2, [0, 1]), block(3, 4, [2])],          # a query in none
    [block(0, 2, [0, 1]), block(1, 3, [2])],          # a query in two blocks
    [block(2, 3, [2]), block(0, 2, [0, 1])],          # blocks out of order
    [block(0, 2, [0, 1]), block(2, 2, [2])],          # an empty block
], ids=["none", "shared-key", "lost-key", "lost-query", "shared-query", "unordered",
        "empty"])
def test_blocks_must_partition_queries_and_keys(parts):
    with pytest.raises(DimensionError):
        T.Blocks(parts)


def test_attention_rejects_blocks_of_another_size():
    rng = np.random.default_rng(8)
    q, k, v, cos, sin = attention_inputs(rng, 3, 4, 2, 4)
    for parts in ([block(0, 3, range(6))], [block(0, 2, range(7))]):
        with pytest.raises(DimensionError):
            T.attention(q, k, v, 2, cos, sin, blocks=T.Blocks(parts))


def test_attention_over_keys_already_rotated_is_the_same_op():
    # the rotated keys stand in for attention's own rotation, bit for bit,
    # in the output and every gradient; a misshapen rotation is rejected
    rng = np.random.default_rng(5)
    q, k, v, cos, sin = attention_inputs(rng, 3, 4, 2, 8)
    w = rng.standard_normal(q.shape)
    kh = T.rope(k.data.reshape(7, 2, 8).transpose(1, 0, 2), cos, sin)
    got = output_and_grads(lambda: T.attention(q, k, v, 2, cos, sin, kh), [q, k, v], w)
    want = output_and_grads(lambda: T.attention(q, k, v, 2, cos, sin), [q, k, v], w)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(DimensionError):
        T.attention(q, k, v, 2, cos, sin, kh[:, 1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,m,parts", [
    # the default block, a streaming span's shape: 64 queries over 1,024 keys
    (64, 1024, None),
    # a pack of two blocks of two mask shapes, so two block groups
    (128, 1024, [(0, 64, np.arange(384), np.tri(64, 384, 320, dtype=bool)),
                 (64, 128, np.arange(384, 1024), np.tri(64, 640, 576, dtype=bool))]),
    # the default block of a long training sequence, 512 queries over
    # themselves, forward and backward
    (512, 512, None)],
    ids=["default-block", "two-group-pack", "square-block"])
def test_attention_allocates_under_two_score_buffers(dtype, n, m, parts):
    # a guard on memory that needs no timing: the softmax normalizes the
    # scores where the matmul left them, so one call's traced peak is its
    # score matrices and the rotated keys, not three score-sized temporaries
    # on top (3.3 score buffers before). The backward overwrites the weights
    # the forward kept, so at n = m its peak above them is one score-sized
    # buffer and the gradients (3.09 score buffers before, in float32); at
    # n << m the [m, d] gradients outweigh the scores, so it is not bounded
    n_heads, d = 4, 64
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.standard_normal((rows, d)).astype(dtype), requires_grad=True)
               for rows in (n, m, m))
    g = rng.standard_normal((n, d)).astype(dtype)
    cos, sin = T.rope_angles(m, d // n_heads, np.dtype(dtype))
    blocks = None if parts is None else T.Blocks(parts)
    T.attention(q, k, v, n_heads, cos, sin, blocks=blocks)._backward(g)  # sizes the tables
    tracemalloc.start()
    try:
        out = T.attention(q, k, v, n_heads, cos, sin, blocks=blocks)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        backward = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    scores = n_heads * (n * m if parts is None else sum(mask.size for *_, mask in parts))
    assert forward < 2 * scores * np.dtype(dtype).itemsize
    assert n < m or backward < 2 * scores * np.dtype(dtype).itemsize


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 6), d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_fused_rmsnorm_equals_composed(rows, d, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((rows, d)), requires_grad=True)
    gain = Tensor(rng.standard_normal(d), requires_grad=True)
    w = rng.standard_normal((rows, d))
    fused = output_and_grads(lambda: T.rmsnorm(x, gain), [x, gain], w)
    composed = output_and_grads(lambda: composed_rmsnorm(x, gain), [x, gain], w)
    for got, want in zip(fused, composed):  # output, dx, dgain
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_fused_attention_grads_reach_only_inputs_that_require_them():
    rng = np.random.default_rng(4)
    q, k, v, cos, sin = attention_inputs(rng, 3, 2, 2, 4)
    w = rng.standard_normal(q.shape)
    want = output_and_grads(lambda: composed_attention(q, k, v, 2, cos, sin),
                            [q, k, v], w)
    q.requires_grad = k.requires_grad = False
    got = output_and_grads(lambda: T.attention(q, k, v, 2, cos, sin), [q, k, v], w)
    assert got[1] is None and got[2] is None
    np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)


def test_attention_passes_finite_difference_check():
    rng = np.random.default_rng(1)
    *qkv, cos, sin = attention_inputs(rng, 3, 4, 2, 4)
    q, k, v = params = [Parameter(name, t.data) for name, t in zip("qkv", qkv)]
    w = rng.standard_normal(q.shape)
    err = finite_difference_check(
        lambda: sum_all(T.mul(T.attention(q, k, v, 2, cos, sin), w)), params,
        n_samples=80)
    assert err < 1e-5


def test_rmsnorm_passes_finite_difference_check():
    rng = np.random.default_rng(2)
    x = Parameter("x", rng.standard_normal((5, 6)))
    gain = Parameter("gain", rng.standard_normal(6))
    w = rng.standard_normal((5, 6))
    err = finite_difference_check(
        lambda: sum_all(T.mul(T.rmsnorm(x, gain), w)), [x, gain],
        n_samples=60)
    assert err < 1e-5


@pytest.mark.parametrize("q_rows,kv_rows,width,n_heads", [
    (2, 3, 6, 2),   # odd head dim: no rotation pairs
    (4, 3, 8, 2),   # more queries than keys
    (2, 3, 8, 3),   # width not divisible by the heads
])
def test_attention_rejects_bad_shapes(q_rows, kv_rows, width, n_heads):
    q = Tensor(np.zeros((q_rows, width)))
    kv = Tensor(np.zeros((kv_rows, width)))
    cos, sin = T.rope_angles(kv_rows, max(2, width // n_heads), np.float64)
    with pytest.raises(DimensionError):
        T.attention(q, kv, kv, n_heads, cos, sin)


def test_rope_kernel_inverse_is_negative_sine():
    rng = np.random.default_rng(6)
    x, g = rng.standard_normal((2, 3, 5, 8))
    cos, sin = T.rope_angles(5, 8, np.float64)
    np.testing.assert_array_equal(T.rope(x, cos, sin), tape_rope(Tensor(x), cos, sin).data)
    # a rotation's transpose is its inverse
    np.testing.assert_allclose(T.rope(T.rope(x, cos, sin), cos, -sin), x, atol=1e-12)
    assert np.isclose((T.rope(x, cos, sin) * g).sum(), (x * T.rope(g, cos, -sin)).sum())


def test_rope_angles_slices_equal_a_fresh_build():
    def fresh(m, head_dim, dtype):
        half = head_dim // 2
        inv_freq = T.ROPE_BASE ** (-np.arange(half, dtype=np.float64) / half)
        ang = np.arange(m).astype(np.float64)[:, None] * inv_freq[None, :]
        return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)

    for dtype in (np.float32, np.float64):
        # a head width no other test uses: the first call sizes the table,
        # later calls ask below and above it
        for m in (5, 3, 5, 6, 40, 1, 11):
            cos, sin = T.rope_angles(m, 22, dtype)
            want_cos, want_sin = fresh(m, 22, dtype)
            assert cos.dtype == want_cos.dtype and cos.shape == (m, 11)
            assert np.array_equal(cos, want_cos) and np.array_equal(sin, want_sin)
            assert not cos.flags.writeable and not sin.flags.writeable
        with pytest.raises(ValueError):
            cos[0, 0] = 0.0
    # the base is the usual 10,000: a width-4 head turns position 1 by 1 and
    # by 10000 ** -0.5 radians
    cos, sin = T.rope_angles(2, 4, np.float64)
    np.testing.assert_allclose(np.arctan2(sin[1], cos[1]), [1.0, 0.01], rtol=1e-12)


def test_causal_mask_equals_a_fresh_tril_and_is_read_only():
    # the first calls size the triangle, later ones ask below and above it
    for n, m in ((1, 1), (3, 5), (5, 5), (2, 40), (40, 40), (7, 9), (64, 300)):
        mask = T.causal_mask(n, m)
        assert mask.dtype == bool and mask.shape == (n, m)
        assert np.array_equal(mask, np.tril(np.ones((n, m), dtype=bool), m - n))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False


# ---------------------------------------------------------------------------
# softmax


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       width=st.integers(1, 9), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
       seed=st.integers(0, 2**32 - 1))
def test_softmax_rows_without_a_mask_equals_an_all_true_mask(dtype, lead, width, scale,
                                                            seed):
    # a one-query attention passes no mask: it must change no bit. Each call
    # overwrites its input, so each gets a copy of its own
    x = (np.random.default_rng(seed).standard_normal((*lead, width)) * scale).astype(dtype)
    got = T.softmax_rows(x.copy(), None)
    want = T.softmax_rows(x.copy(), np.ones((*lead, width), dtype=bool))
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       width=st.integers(1, 9), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
       masked=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_softmax_rows_in_place_equals_the_out_of_place_formula(dtype, lead, width, scale,
                                                               masked, seed):
    # the scores are normalized where they lie, and every bit is that of a
    # formula that writes fresh arrays: max-shift where allowed, exp where
    # allowed (exactly 0 elsewhere), then divide by the row sum
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((*lead, width)) * scale).astype(dtype)
    mask = rng.random((*lead, width)) < 0.6 if masked else np.ones(x.shape, dtype=bool)
    mask[..., rng.integers(width)] = True  # every row allows an entry
    shifted = np.where(mask, x, np.array(-np.inf, dtype=dtype))
    e = np.exp(shifted - shifted.max(axis=-1, keepdims=True), where=mask,
               out=np.zeros_like(x))
    want = e / e.sum(axis=-1, keepdims=True)
    scores = x.copy()
    got = T.softmax_rows(scores, mask if masked else None)
    assert got is scores and got.dtype == dtype
    assert np.array_equal(got, want)
    assert (got[~mask] == 0.0).all()


def test_softmax_symmetry():
    out = tape_softmax_rows(Tensor(np.array([[0.0, 0.0]])), np.array([[True, True]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_single_allowed_entry():
    out = tape_softmax_rows(Tensor(np.array([[5.0, 5.0, 5.0]])),
                         np.array([[True, False, False]]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0, 0.0]])


def test_softmax_matches_reference_formula():
    # independent high-precision evaluation: direct exp/sum without max shift
    x = np.array([[1.0, 2.0, 3.0]])
    ref = np.exp(x) / np.exp(x).sum()
    out = tape_softmax_rows(Tensor(x), np.ones_like(x, dtype=bool))
    np.testing.assert_allclose(out.data, ref, atol=1e-9)


def test_softmax_rows_sum_to_one_and_masked_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 9))
    mask = rng.random((20, 9)) > 0.4
    mask[:, 3] = True
    out = tape_softmax_rows(Tensor(x), mask).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out[~mask] == 0.0).all()


def test_softmax_fully_masked_row_rejected():
    with pytest.raises(ContractViolation):
        tape_softmax_rows(Tensor(np.zeros((2, 3))),
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
    p = Parameter("w", np.array([1.0]), requires_grad=False)
    p.grad = np.array([5.0])
    Adam([p]).step(0.1)
    assert p.data[0] == 1.0


def test_parameter_is_a_named_tensor():
    # one flag: a frozen parameter requires no gradient, so ops on it record
    # no tape; thawed, they do
    p = Parameter("w", np.array([1.0]), requires_grad=False)
    assert isinstance(p, Tensor) and p.name == "w"
    assert T.mul(p, 2.0)._backward is None
    p.requires_grad = True
    assert T.mul(p, 2.0)._backward is not None


def test_adam_single_step_matches_hand_formula():
    w0, g, lr = 1.0, 2.0, 0.1
    b1, b2, eps = 0.9, 0.999, 1e-8
    # one step from zero moments
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = w0 - lr * m_hat / (np.sqrt(v_hat) + eps)

    p = Parameter("w", np.array([w0]))
    p.grad = np.array([g])
    Adam([p]).step(lr)
    assert abs(p.data[0] - expected) < 1e-12


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1.0) == pytest.approx(1.0)
    assert cosine_lr(99, 100, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0, 1, 0.5) == 0.5


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_fd_check_quadratic():
    p = Parameter("w", np.array([3.0]))

    def f():
        return sum_all(T.mul(p, p))

    # analytic gradient 2w = 6
    err = finite_difference_check(f, [p], n_samples=3, seed=0)
    assert err < 1e-6


def test_fd_check_constant_function():
    p = Parameter("w", np.array([3.0]))

    def f():
        return sum_all(T.mul(p, 0.0))

    assert finite_difference_check(f, [p], n_samples=3) == 0.0
