"""Network core: init, forward, backward, ADAM, MAC counts, model files."""

import numpy as np
import pytest

from penalearn import (
    AdamState,
    DimensionError,
    Mlp,
    ModelFormatError,
    ModelVersionError,
    NonFiniteError,
    TraceError,
    TrainConfig,
    adam_step,
    init_mlp,
    load_model,
    mac_count,
    make_problem,
    mlp_backward,
    mlp_forward,
    sample_params,
    save_model,
    train,
)

SHAPES = [(2, 20, 20, 2), (2, 10, 20, 20, 20, 10, 2), (5, 10, 20, 20, 20, 10, 2), (3, 4, 1)]


def test_init_glorot_bounds_and_zero_biases():
    for shape in SHAPES:
        net = init_mlp(shape, seed=3)
        assert net.layer_sizes == tuple(shape)
        for w, b, fan_in, fan_out in zip(net.weights, net.biases, shape, shape[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert w.shape == (fan_out, fan_in)
            assert np.all(np.abs(w) <= limit)
            assert np.all(b == 0.0)


def test_init_deterministic_per_seed():
    a = init_mlp((2, 20, 20, 2), seed=11)
    b = init_mlp((2, 20, 20, 2), seed=11)
    c = init_mlp((2, 20, 20, 2), seed=12)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_mlp_validates_construction():
    with pytest.raises(DimensionError):
        init_mlp((4,))
    with pytest.raises(DimensionError):
        init_mlp((4, 2))  # no hidden layer
    with pytest.raises(DimensionError):
        init_mlp((4, 0, 2))
    net = init_mlp((2, 3, 1))
    bad = net.params.copy()
    bad[-4] = np.nan  # in the last weight
    with pytest.raises(NonFiniteError):
        Mlp(net.layer_sizes, bad)
    with pytest.raises(DimensionError, match=r"params has shape \(12,\), expected \(13,\)"):
        Mlp(net.layer_sizes, net.params[:-1])
    with pytest.raises(DimensionError, match=r"params has shape \(1, 13\), expected \(13,\)"):
        Mlp(net.layer_sizes, net.params[None, :])
    with pytest.raises(DimensionError):
        Mlp((2, 0, 1), np.zeros(0))


def test_mlp_keeps_a_contiguous_float_vector_and_converts_any_other():
    net = init_mlp((2, 3, 1), seed=1)
    same = Mlp(net.layer_sizes, net.params)
    assert same.params is net.params
    same.params[0] += 1.0
    assert net.weights[0][0, 0] == same.weights[0][0, 0]
    wide = np.repeat(net.params, 2)[::2]  # every second entry: a strided view
    for given in (wide, net.params.tolist(), net.params.astype(np.float32)):
        built = Mlp(net.layer_sizes, given)
        assert built.params.dtype == np.float64 and built.params.flags.c_contiguous
        assert np.array_equal(built.params, np.asarray(given, dtype=float))


def test_forward_requires_2d_batch():
    net = init_mlp((2, 3, 1))
    with pytest.raises(DimensionError):
        mlp_forward(net, np.zeros(2))
    with pytest.raises(DimensionError):
        mlp_forward(net, np.zeros((4, 3)))
    for bad in ([1.0, np.inf], [np.nan, 0.0], [0.5, -np.inf]):
        with pytest.raises(NonFiniteError):
            mlp_forward(net, np.array([[0.25, 0.5], bad]))
    # x.x overflows here, so the finiteness test falls back to a scan
    huge = np.array([[0.25, 0.5], [1e200, -1.0]])
    out, _ = mlp_forward(net, huge)
    assert np.array_equal(out, _reference_forward(net, huge)[0])


def test_forward_matches_hand_computation():
    # 1-2-1 net with fixed weights: y = w2 @ tanh(w1*x + b1) + b2
    w1 = np.array([[0.5], [-1.0]])
    b1 = np.array([0.1, 0.2])
    w2 = np.array([[2.0, 3.0]])
    b2 = np.array([-0.4])
    net = Mlp((1, 2, 1), np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))
    x = np.array([[0.7], [-1.3]])
    out, trace = mlp_forward(net, x)
    expected = (np.tanh(x * w1.T + b1) @ w2.T) + b2
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    assert trace.post_activations[0] is not None


def _reference_forward(net, batch):
    """Out-of-place forward: a fresh array for every product, sum and tanh."""
    post = []
    a = batch
    for t, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if t == net.num_layers - 1 else np.tanh(z)
        post.append(a)
    return a, post


@pytest.mark.parametrize("shape", [(2, 20, 20, 2), (5, 10, 20, 20, 20, 10, 2)])
@pytest.mark.parametrize("batch_size", [0, 1, 7, 100, 4096])
def test_forward_matches_out_of_place_reference_bits(shape, batch_size):
    rng = np.random.default_rng(batch_size)
    net = init_mlp(shape, seed=4)
    # nonzero biases, so the in-place bias add is exercised
    net = Mlp(net.layer_sizes, net.params + rng.normal(scale=0.3, size=net.params.size))
    tall = rng.uniform(-1.0, 1.0, size=(2 * batch_size, shape[0]))
    # row-major, every second row of a taller array, and column-major inputs
    for batch in (tall[:batch_size].copy(), tall[::2],
                  np.asfortranarray(tall[:batch_size])):
        before = batch.copy()
        out, trace = mlp_forward(net, batch)
        ref_out, ref_post = _reference_forward(net, before)
        assert np.array_equal(batch, before)
        assert trace.inputs is batch
        assert np.array_equal(out, ref_out)
        assert len(trace.post_activations) == len(ref_post)
        for got, want in zip(trace.post_activations, ref_post):
            assert np.array_equal(got, want)
        assert trace.post_activations[-1] is out


def _assert_forward_matches_reference(net, batch):
    out, _ = mlp_forward(net, batch)
    assert np.array_equal(out, _reference_forward(net, batch)[0])


def test_forward_sees_in_place_parameter_writes():
    rng = np.random.default_rng(3)
    net = init_mlp((2, 20, 20, 2), seed=1)
    batch = rng.uniform(-1.0, 1.0, size=(5, 2))
    before, _ = mlp_forward(net, batch)
    net.params[...] = rng.normal(size=net.params.size)
    _assert_forward_matches_reference(net, batch)
    assert not np.array_equal(mlp_forward(net, batch)[0], before)
    net.weights[0][...] *= 2.0
    net.biases[-1][...] += 1.0
    _assert_forward_matches_reference(net, batch)

    # train() rewrites layer 0 of its returned net in place (the input fold)
    spec = make_problem("rosenbrock-1c")
    folded, _ = train(spec, TrainConfig(epochs=2, sample_count=40, batch_size=20, seed=0))
    raw = sample_params(spec, 9, seed=2)
    _assert_forward_matches_reference(folded, raw)
    folded.params[...] = rng.normal(size=folded.params.size)
    _assert_forward_matches_reference(folded, raw)


def test_backward_rejects_stale_trace():
    net = init_mlp((2, 3, 1), seed=0)
    upstream = np.ones((4, 1))
    _, wider = mlp_forward(init_mlp((2, 5, 1), seed=0), np.zeros((4, 2)))
    with pytest.raises(TraceError, match="layer 0 has shape"):
        mlp_backward(net, wider, upstream)
    _, deeper = mlp_forward(init_mlp((2, 3, 3, 1), seed=0), np.zeros((4, 2)))
    with pytest.raises(TraceError, match="trace has 3 layers"):
        mlp_backward(net, deeper, upstream)
    _, other_input = mlp_forward(init_mlp((3, 3, 1), seed=0), np.zeros((4, 3)))
    with pytest.raises(TraceError, match="input dim"):
        mlp_backward(net, other_input, upstream)
    _, trace = mlp_forward(net, np.zeros((4, 2)))
    with pytest.raises(DimensionError, match=r"upstream has shape \(4, 2\), expected \(4, 1\)"):
        mlp_backward(net, trace, np.ones((4, 2)))
    for buf in (init_mlp((2, 4, 1)), np.zeros(net.params.size)):
        with pytest.raises(DimensionError, match="gradient buffer"):
            mlp_backward(net, trace, upstream, out=buf)


def _loss_and_param_grads(net, batch, upstream):
    out, trace = mlp_forward(net, batch)
    grads = mlp_backward(net, trace, upstream)
    return float(np.sum(out * upstream)), grads


def _perturbed(net, direction, h):
    return Mlp(net.layer_sizes, net.params + h * direction)


def test_backward_matches_finite_differences():
    # loss = sum(upstream * output) is linear in the output, so its parameter
    # gradient is exactly what mlp_backward returns for that upstream
    rng = np.random.default_rng(7)
    for trial in range(12):
        shape = (3, 5, 4, 2)
        net = init_mlp(shape, seed=100 + trial)
        batch = rng.uniform(-1.5, 1.5, size=(6, shape[0]))
        upstream = rng.normal(size=(6, shape[-1]))
        _, grads = _loss_and_param_grads(net, batch, upstream)

        # every weight, then every bias, packed in model-file order
        ws = [rng.normal(size=w.shape) for w in net.weights]
        bs = [rng.normal(size=b.shape) for b in net.biases]
        direction = np.concatenate([a.ravel() for pair in zip(ws, bs) for a in pair])
        analytic = float(grads @ direction)
        h = 1e-6
        lp, _ = _loss_and_param_grads(_perturbed(net, direction, h), batch, upstream)
        lm, _ = _loss_and_param_grads(_perturbed(net, direction, -h), batch, upstream)
        fd = (lp - lm) / (2 * h)
        assert abs(fd - analytic) / max(abs(analytic), 1e-12) < 1e-7


def test_adam_single_step_from_zero_state():
    # unit gradient, zero init, default hyperparameters: the first step is
    # -lr / sqrt(1 + eps) = -0.000999999995
    net = Mlp((1, 1, 1), np.zeros(4))  # W0, b0, W1, b1
    state = AdamState.for_net(net)
    grads = np.array([1.0, 0.0, 0.0, 0.0])  # W0, b0, W1, b1
    new_net, new_state = adam_step(net, state, grads)
    np.testing.assert_allclose(new_net.weights[0][0, 0], -0.000999999995, rtol=0, atol=1e-15)
    assert new_net.weights[1][0, 0] == 0.0
    assert new_state.step_count == 1


def test_adam_sequence_matches_scalar_recomputation():
    """Drive one scalar weight for 25 steps; recompute the recursion inline."""
    rng = np.random.default_rng(23)
    gs = rng.normal(size=25)
    net = Mlp((1, 1, 1), np.array([0.3, 0.0, 0.0, 0.0]))  # W0, b0, W1, b1
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    state = AdamState.for_net(net, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)

    w = 0.3
    m = v = 0.0
    for t, g in enumerate(gs, start=1):
        net, state = adam_step(net, state, np.array([g, 0.0, 0.0, 0.0]))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w -= lr * m_hat / np.sqrt(v_hat + eps)
        np.testing.assert_allclose(net.weights[0][0, 0], w, rtol=1e-14, atol=0)


def test_mac_count_reference_values():
    assert mac_count((2, 20, 20, 2)) == 480
    assert mac_count((2, 10, 20, 20, 20, 10, 2)) == 1240
    assert mac_count((1, 1, 1)) == 2


def test_mac_count_is_sum_of_consecutive_products():
    rng = np.random.default_rng(4)
    for _ in range(20):
        sizes = tuple(int(s) for s in rng.integers(1, 30, size=rng.integers(3, 7)))
        assert mac_count(sizes) == sum(a * b for a, b in zip(sizes, sizes[1:]))


def test_adam_flat_update_matches_per_tensor_bits():
    """The flat-vector step must give exactly the per-tensor recursion's bits."""
    rng = np.random.default_rng(31)
    net = init_mlp((3, 5, 4, 2), seed=8)
    lr, b1, b2, eps = 3e-3, 0.8, 0.99, 1e-8
    state = AdamState.for_net(net, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    params = [a.copy() for pair in zip(net.weights, net.biases) for a in pair]
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    for t in range(1, 8):
        gs = [rng.normal(size=a.shape) for a in params]
        old, old_params = net, net.params.copy()
        net, state = adam_step(net, state, np.concatenate([g.ravel() for g in gs]))
        assert np.array_equal(old.params, old_params), "adam_step mutated its input"
        for i, g in enumerate(gs):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            step = lr * (m[i] / (1.0 - b1**t)) / np.sqrt(v[i] / (1.0 - b2**t) + eps)
            params[i] = params[i] - step
        got = [a for pair in zip(net.weights, net.biases) for a in pair]
        assert all(np.array_equal(a, b) for a, b in zip(got, params))
    assert state.step_count == 7


def test_adam_rejects_mismatched_gradient():
    net = init_mlp((2, 3, 1))
    state = AdamState.for_net(net)
    with pytest.raises(DimensionError):
        adam_step(net, state, np.zeros(net.params.size + 1))
    other = init_mlp((2, 4, 1))
    for out in ((other, state), (net, AdamState.for_net(other))):
        with pytest.raises(DimensionError):
            adam_step(net, state, np.zeros_like(net.params), out=out)


def _steps_with_buffers(net, state, batches, in_place):
    """Forward, backward and ADAM over ``batches``; returns the last net and
    state and each step's gradient."""
    grads = []
    buf = init_mlp(net.layer_sizes, seed=99) if in_place else None
    for batch, upstream in batches:
        _, trace = mlp_forward(net, batch)
        g = mlp_backward(net, trace, upstream, out=buf)
        grads.append(g.copy())
        net, state = adam_step(net, state, g, out=(net, state) if in_place else None)
    return net, state, grads


def test_in_place_steps_match_the_default_path_bits():
    rng = np.random.default_rng(41)
    shape = (3, 5, 4, 2)
    batches = [(rng.uniform(-1, 1, (6, 3)), rng.normal(size=(6, 2))) for _ in range(5)]
    runs = []
    for in_place in (False, True):
        net = init_mlp(shape, seed=8)
        state = AdamState.for_net(net, learning_rate=3e-3, beta1=0.8, beta2=0.99)
        runs.append((net, state, *_steps_with_buffers(net, state, batches, in_place)))
    (net0, state0, new0, st0, g0), (net1, state1, new1, st1, g1) = runs
    assert new1 is net1 and st1 is state1, "out=(net, state) must step in place"
    assert new0 is not net0 and state0.step_count == 0
    assert all(np.array_equal(a, b) for a, b in zip(g0, g1))
    assert np.array_equal(new0.params, new1.params)
    assert np.array_equal(st0.m, st1.m) and np.array_equal(st0.v, st1.v)
    assert st0.step_count == st1.step_count == 5


def test_in_place_step_keeps_the_forward_views_bound():
    rng = np.random.default_rng(43)
    net = init_mlp((2, 6, 3), seed=2)
    state = AdamState.for_net(net, learning_rate=0.1)
    batch = rng.uniform(-1, 1, (5, 2))
    before, trace = mlp_forward(net, batch)
    grads = mlp_backward(net, trace, rng.normal(size=(5, 3)))
    adam_step(net, state, grads, out=(net, state))
    rebuilt = Mlp(net.layer_sizes, net.params.copy())
    after = mlp_forward(net, batch)[0]
    assert not np.array_equal(after, before)
    assert np.array_equal(after, mlp_forward(rebuilt, batch)[0])


def test_net_equality_is_identity():
    net = init_mlp((2, 3, 1), seed=0)
    assert net == net
    assert (net == init_mlp((2, 3, 1), seed=0)) is False


def test_model_round_trip_is_exact(tmp_path):
    net = init_mlp((2, 10, 20, 20, 20, 10, 2), seed=99)
    path = tmp_path / "model.txt"
    save_model(net, path)
    back = load_model(path)
    assert back.layer_sizes == net.layer_sizes
    assert np.array_equal(back.params, net.params)
    for a, b in zip(back.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, net.biases):
        assert np.array_equal(a, b)


def test_model_file_starts_with_header(tmp_path):
    net = init_mlp((2, 3, 2), seed=0)
    path = tmp_path / "m.txt"
    save_model(net, path)
    first = path.read_text().splitlines()[0]
    assert first == "penalearn-model v1"


def test_model_save_leaves_no_temp_files(tmp_path):
    net = init_mlp((2, 3, 2), seed=0)
    path = tmp_path / "m.txt"
    save_model(net, path)
    save_model(net, path)  # overwrite
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


@pytest.mark.parametrize(
    "mangle,exc",
    [
        (lambda lines: ["wrong-header v9"] + lines[1:], ModelVersionError),
        (lambda lines: lines[:1], ModelFormatError),  # truncated after header
        (lambda lines: lines[:3], ModelFormatError),  # missing tensors
        (lambda lines: lines[:2] + ["1.0 nope"] + lines[3:], ModelFormatError),
        (lambda lines: lines[:2] + ["1.0"] + lines[3:], ModelFormatError),  # short tensor
        (lambda lines: lines + ["0.5 0.5"], ModelFormatError),  # trailing content
        (lambda lines: [], ModelFormatError),  # an empty file
        (lambda lines: [""], ModelFormatError),  # one blank line
    ],
)
def test_model_parse_errors(tmp_path, mangle, exc):
    net = init_mlp((2, 3, 2), seed=1)
    path = tmp_path / "m.txt"
    save_model(net, path)
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in mangle(lines)))
    with pytest.raises(exc):
        load_model(path)


def test_model_tensor_counts_are_checked_before_anything_is_allocated(tmp_path):
    # these sizes would take 128 EB of parameters: the short tensor line is the error
    path = tmp_path / "m.txt"
    path.write_text("penalearn-model v1\n2 4000000000 4000000000 2\n1 2\n")
    with pytest.raises(ModelFormatError, match="has 2 values, expected 8000000000") as info:
        load_model(path)
    assert info.value.line_number == 3


def test_model_parse_error_carries_line_number(tmp_path):
    net = init_mlp((2, 3, 2), seed=1)
    path = tmp_path / "m.txt"
    save_model(net, path)
    lines = path.read_text().splitlines()
    lines[2] = "not numbers at all"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert info.value.line_number == 3
