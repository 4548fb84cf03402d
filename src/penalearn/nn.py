"""Dense MLP forward/backward pass, ADAM updates, and the MAC-count cost model.

Everything is plain float64 numpy.  A forward pass never writes its net.
``mlp_backward`` and ``adam_step`` write their results into an ``out`` the
caller owns, or into fresh outputs when ``out`` is None; ``train`` keeps one
gradient buffer per call and steps its net and state in place, so no step
allocates a net or rebinds its views.  A trace, upstream or gradient passed
in is never written, and each value goes through the same operations in the
same order as the out-of-place formulas, so the bits are the same either way.
The backward pass calls ``np.dot(..., out=)``, ``ndarray.dot`` and
``np.add.reduce``: the bits of ``np.matmul``, ``@`` and ``ndarray.sum``, with
less per-call overhead.

The forward pass makes one array per layer: the matrix product allocates it,
and the bias add and tanh then work in place.  At large batches most of a
forward's time is first-touch page faults on fresh memory, not arithmetic, so
fewer temporaries is the speed-up; the in-place ufuncs give the same bits as
their out-of-place forms.  The trace keeps the input and each layer's output,
which is all the backward pass reads (tanh'(z) = 1 - tanh(z)^2).

At batch 1 the arithmetic is almost nothing and a forward's time is the
fixed cost of its numpy calls: the input test and three per layer.  So each
net binds, once, a per-layer pair of views the forward can use as they are:
``W.T`` for the product and the bias as a (1, m) row.  The product is the
array method ``a.dot(wt)``.  It runs the same C routine as ``np.dot(a, wt)``,
so it gives the same bits, but it skips the function's ``__array_function__``
dispatch, about a quarter of a batch-1 call.  A 1-D bias broadcast onto a
row, a fresh ``W.T`` per call and the ``@`` ufunc each cost more per call.
``dot`` on these operands gives the same bits as ``a @ W.T``; on a C-ordered
copy of ``W.T`` it would not, because that takes a different BLAS path.  At
batch 4096 ``dot`` is about 3% slower than ``@``, against about 40% saved at
batch 1, the latency a single served answer pays.  The input test is
``errors.all_finite``: one dot product x.x, and an entry-by-entry scan only
when that overflows.

Parameter layout: an Mlp keeps all of its parameters in one contiguous
float64 vector ``params`` in model-file order W0, b0, W1, b1, ..., each weight
row-major.  ``weights`` and ``biases`` are reshaped views into that vector,
and so are the forward's bound views, so an in-place write to any of them
reaches the next forward.  Gradients and the ADAM moments are flat vectors in
the same layout, so an ADAM step is a handful of whole-vector operations.
Because ADAM is elementwise, that gives the same bits as updating tensor by
tensor.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ModelFormatError,
    ModelVersionError,
    NonFiniteError,
    TraceError,
    all_finite,
    is_int,
    require,
    require_real,
)

MODEL_FORMAT_HEADER = "penalearn-model v1"


def _check_layer_sizes(layer_sizes):
    """``layer_sizes`` as a tuple of ints: integers of any integral type, not a
    bool (``ConfigError`` naming ``layer_sizes``), at least 3 of them, each
    >= 1 (``DimensionError``)."""
    sizes = tuple(layer_sizes)
    require(all(map(is_int, sizes)), "layer_sizes", layer_sizes, "integers")
    sizes = tuple(map(int, sizes))
    if len(sizes) < 3:
        raise DimensionError(
            f"need at least one hidden layer (got layer sizes {sizes})"
        )
    if any(s <= 0 for s in sizes):
        raise DimensionError(f"layer sizes must be positive, got {sizes}")
    return sizes


def _split(sizes, flat):
    """Views of the flat vector ``flat`` as (weights, biases) tuples."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


@dataclass(frozen=True, eq=False)
class Mlp:
    """Feed-forward network: tanh hidden layers, identity output layer.

    ``weights[t]`` has shape (layer_sizes[t+1], layer_sizes[t]), rows are
    fan-out, and ``biases[t]`` has length layer_sizes[t+1].  Construction
    copies the given tensors into the flat ``params`` vector (see the module
    docstring) after checking their shapes and finiteness.  Equality is
    identity; compare ``layer_sizes`` and ``params`` for value equality.

    ``_layers`` holds, per layer, the (``weights[t].T``, ``biases[t][None, :]``)
    views that ``mlp_forward`` runs on, bound once here so a batch-1 forward
    makes no views of its own.  They are views of ``params``, not copies.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    params: np.ndarray = field(init=False, repr=False)
    _layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        sizes = _check_layer_sizes(self.layer_sizes)
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionError(
                f"expected {len(sizes) - 1} weight/bias tensors, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        tensors = []
        for t, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            want = (sizes[t + 1], sizes[t])
            if w.shape != want:
                raise DimensionError(f"weight {t} has shape {w.shape}, expected {want}")
            if b.shape != (sizes[t + 1],):
                raise DimensionError(
                    f"bias {t} has shape {b.shape}, expected ({sizes[t + 1]},)"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NonFiniteError(f"layer {t} contains non-finite parameters")
            tensors += [w.ravel(), b]
        self._bind(sizes, np.concatenate(tensors))

    def _bind(self, sizes, params):
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", params)
        weights, biases = _split(sizes, params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "_layers",
                           tuple((w.T, b[None, :]) for w, b in zip(weights, biases)))

    @classmethod
    def _from_params(cls, sizes, params) -> "Mlp":
        """Wrap a flat vector without re-validating it.

        For internal callers whose sizes are already checked and whose vector
        is known finite or is guarded elsewhere (the training loss check).
        """
        net = object.__new__(cls)
        net._bind(sizes, params)
        return net

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1


def init_mlp(layer_sizes, seed=0) -> Mlp:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases.

    ``seed`` is an integer >= 0 or a tuple or list of them (numpy's integers
    included, a bool not), or ``ConfigError`` names it.
    """
    sizes = _check_layer_sizes(layer_sizes)
    entropy = seed if isinstance(seed, (tuple, list)) else (seed,)
    require(all(is_int(s) and s >= 0 for s in entropy), "seed", seed,
            "an integer >= 0 or a tuple of them")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_sizes=sizes, weights=tuple(weights), biases=tuple(biases))


@dataclass(frozen=True)
class ForwardTrace:
    """What mlp_forward keeps for the backward pass: the input batch and each
    layer's output (tanh for hidden layers, the network output last).  Each
    post-activation is the one array its layer wrote."""

    inputs: np.ndarray                        # (batch, n)
    post_activations: tuple[np.ndarray, ...]  # (batch, layer_sizes[t+1]) each

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


def mlp_forward(net: Mlp, batch: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on a (batch, n) input matrix.

    Returns the (batch, k) outputs and a trace of the input and every layer's
    output for use by mlp_backward.  The input array is left unchanged.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise DimensionError(
            f"input batch has shape {batch.shape}, expected (batch, {net.input_dim})"
        )
    if not all_finite(batch):
        raise NonFiniteError("input batch contains non-finite entries")

    post = []
    a = batch
    layers = net._layers
    for wt, b_row in layers[:-1]:
        a = a.dot(wt)  # a fresh array; `batch` is never written
        a += b_row
        np.tanh(a, a)
        post.append(a)
    wt, b_row = layers[-1]
    a = a.dot(wt)
    a += b_row
    post.append(a)
    return a, ForwardTrace(batch, tuple(post))


def _check_trace(net: Mlp, trace: ForwardTrace):
    if len(trace.post_activations) != net.num_layers:
        raise TraceError(
            f"trace has {len(trace.post_activations)} layers, net has {net.num_layers}"
        )
    if trace.inputs.shape[1] != net.input_dim:
        raise TraceError(
            f"trace input dim {trace.inputs.shape[1]} != net input dim {net.input_dim}"
        )
    for t, a in enumerate(trace.post_activations):
        if a.shape != (trace.batch_size, net.layer_sizes[t + 1]):
            raise TraceError(f"trace layer {t} has shape {a.shape}, stale for this net")


def mlp_backward(
    net: Mlp, trace: ForwardTrace, upstream: np.ndarray, out: Mlp | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients for the summed batch loss.

    ``upstream`` is dL/d(output) per sample, shape (batch, k).  Returns the
    gradient of sum-over-batch L with respect to every parameter, as one flat
    vector in the layout of ``net.params``, plus dL/d(input) per sample for
    diagnostics.

    ``out``, an Mlp of ``net.layer_sizes``, receives the gradient: each
    weight and bias gradient is written straight into its bound view, and
    the flat vector returned is ``out.params``.  A training loop passes the
    same buffer at every step; ``None`` allocates a fresh one.
    """
    upstream = np.asarray(upstream, dtype=float)
    _check_trace(net, trace)
    if upstream.shape != (trace.batch_size, net.output_dim):
        raise DimensionError(
            f"upstream has shape {upstream.shape}, expected "
            f"({trace.batch_size}, {net.output_dim})"
        )
    if out is None:
        out = Mlp._from_params(net.layer_sizes, np.empty_like(net.params))
    elif not isinstance(out, Mlp) or out.layer_sizes != net.layer_sizes:
        raise DimensionError(
            f"gradient buffer must be an Mlp of layer sizes {net.layer_sizes}, got "
            f"{getattr(out, 'layer_sizes', type(out).__name__)}"
        )

    delta = upstream  # identity output layer: dL/dz_last = upstream
    for t in range(net.num_layers - 1, -1, -1):
        a_prev = trace.inputs if t == 0 else trace.post_activations[t - 1]
        np.dot(delta.T, a_prev, out=out.weights[t])
        np.add.reduce(delta, 0, None, out.biases[t])  # delta.sum(axis=0, out=...)
        delta = delta.dot(net.weights[t])  # a fresh array; `upstream` is never written
        if t > 0:
            # tanh'(z) = 1 - tanh(z)^2, and post_activations[t-1] = tanh(z)
            slope = a_prev ** 2
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return out.params, delta


@dataclass(frozen=True)
class AdamState:
    """First/second moment vectors, in the layout of ``Mlp.params``, plus the
    ADAM hyperparameters.  ``adam_step(..., out=(net, state))`` updates
    ``m``, ``v`` and ``step_count`` in place."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    learning_rate: float = 1e-3

    @classmethod
    def for_net(cls, net: Mlp, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                epsilon=1e-8) -> "AdamState":
        """Zero moments for ``net``.  Each setting is a finite real number in
        ``TrainConfig``'s range, stored as a float: ``learning_rate`` and
        ``epsilon`` > 0, ``beta1`` and ``beta2`` in (0, 1); else ``ConfigError``
        names it."""
        state = cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params), beta1=beta1,
                    beta2=beta2, epsilon=epsilon, learning_rate=learning_rate)
        require_real(state, "learning_rate", above=0)
        require_real(state, "beta1", above=0, below=1)
        require_real(state, "beta2", above=0, below=1)
        require_real(state, "epsilon", above=0)
        return state


def adam_step(
    net: Mlp, state: AdamState, grad: np.ndarray,
    out: tuple[Mlp, AdamState] | None = None,
) -> tuple[Mlp, AdamState]:
    """One bias-corrected ADAM update; returns the new net and state.

    ``grad`` is a flat gradient in the layout of ``net.params``.  Update:
    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then
    param <- param - lr * m_hat / sqrt(v_hat + eps) with the usual 1-b^t
    bias corrections.

    ``out=(net, state)`` steps in place: the new parameters, moments and
    step count are written into that net's ``params`` and that state's
    ``m``, ``v`` and ``step_count``, which are returned.  The net's bound
    views stay valid, so its next forward needs no rebuild.  ``None``
    writes into a fresh net and state and leaves the inputs unchanged.
    """
    b1, b2, eps, lr = state.beta1, state.beta2, state.epsilon, state.learning_rate
    t = state.step_count + 1
    if out is None:
        out = (Mlp._from_params(net.layer_sizes, np.empty_like(net.params)),
               AdamState(np.empty_like(state.m), np.empty_like(state.v), t, b1, b2, eps, lr))
    new_net, new_state = out
    shapes = (np.shape(grad), state.m.shape, state.v.shape,
              new_net.params.shape, new_state.m.shape, new_state.v.shape)
    if shapes.count(net.params.shape) != len(shapes):
        raise DimensionError(
            f"gradient, ADAM moments and outputs must have shape {net.params.shape}, "
            f"got {shapes}"
        )
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    # the formulas above, operation for operation, with `step` and `den` as
    # the two scratch vectors; each old moment is read before its output,
    # which may be the same array, is written
    m, v = new_state.m, new_state.v
    step = (1.0 - b1) * grad
    np.multiply(b1, state.m, out=m)
    m += step
    den = (1.0 - b2) * grad
    den *= grad
    np.multiply(b2, state.v, out=v)
    v += den  # b2*v + (1-b2)*g*g: addition commutes exactly
    np.divide(v, c2, out=den)
    den += eps
    np.divide(m, c1, out=step)
    step *= lr
    step /= np.sqrt(den, out=den)
    np.subtract(net.params, step, out=new_net.params)
    object.__setattr__(new_state, "step_count", t)
    return new_net, new_state


def mac_count(layer_sizes) -> int:
    """Multiply-accumulate count of one forward pass: sum of consecutive
    layer-size products n*m1 + m1*m2 + ... + m_l*k."""
    sizes = _check_layer_sizes(layer_sizes)
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


# ---------------------------------------------------------------------------
# Model file format: a versioned flat text file.  Header line, layer sizes
# line, then one line per parameter tensor (W0, b0, W1, b1, ...) as decimal
# doubles with 17 significant digits, which round-trips float64 exactly.

def _format_tensor(t: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in t.ravel())


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` via a sibling temp file and rename, so failures leave no
    output.  The file gets mode 0o666 minus the umask and "\n" line ends."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".penalearn-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_model(net: Mlp, path) -> None:
    """Write the network to ``path`` atomically (temp file + rename)."""
    lines = [MODEL_FORMAT_HEADER, " ".join(str(s) for s in net.layer_sizes)]
    for w, b in zip(net.weights, net.biases):
        lines.append(_format_tensor(w))
        lines.append(_format_tensor(b))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_model(path) -> Mlp:
    """Read a model file written by save_model; exact weight round trip.

    Each tensor line's count is checked before anything is allocated for the
    next, and the flat parameter vector is joined at the end; a malformed or
    non-finite value raises ModelFormatError with the line number.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ModelFormatError("empty model file", line_number=1)
    if lines[0].strip() != MODEL_FORMAT_HEADER:
        raise ModelVersionError(
            f"unsupported model header {lines[0]!r}, expected {MODEL_FORMAT_HEADER!r}",
            line_number=1,
        )
    try:
        sizes = tuple(int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise ModelFormatError(f"bad layer-sizes line: {exc}", line_number=2) from exc
    sizes = _check_layer_sizes(sizes)

    tensors = []
    lineno = 2
    for t in range(len(sizes) - 1):
        fan_out, fan_in = sizes[t + 1], sizes[t]
        for kind, count in (("weight", fan_out * fan_in), ("bias", fan_out)):
            lineno += 1
            if lineno > len(lines):
                raise ModelFormatError(
                    f"truncated file: missing {kind} tensor for layer {t}",
                    line_number=lineno,
                )
            try:
                values = np.array([float(tok) for tok in lines[lineno - 1].split()])
            except ValueError as exc:
                raise ModelFormatError(
                    f"bad float in {kind} tensor for layer {t}: {exc}",
                    line_number=lineno,
                ) from exc
            if values.size != count:
                raise ModelFormatError(
                    f"{kind} tensor for layer {t} has {values.size} values, "
                    f"expected {count}",
                    line_number=lineno,
                )
            if not np.all(np.isfinite(values)):
                raise ModelFormatError(
                    f"non-finite value in {kind} tensor for layer {t}",
                    line_number=lineno,
                )
            tensors.append(values)
    extra = [ln for ln in lines[lineno:] if ln.strip()]
    if extra:
        raise ModelFormatError(
            "trailing content after final tensor", line_number=lineno + 1
        )
    return Mlp._from_params(sizes, np.concatenate(tensors))
