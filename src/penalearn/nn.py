"""Dense MLP forward/backward pass, ADAM updates, and the MAC-count cost model.

Everything is plain float64 numpy.  Networks are value objects: forward passes
share them freely, and updates return new instances instead of mutating.

Parameter layout: an Mlp keeps all of its parameters in one contiguous
float64 vector ``params`` in model-file order W0, b0, W1, b1, ..., each weight
row-major.  ``weights`` and ``biases`` are reshaped views into that vector.
Gradients and the ADAM moments are flat vectors in the same layout, so an
ADAM step is a handful of whole-vector operations.  Because ADAM is
elementwise, that gives the same bits as updating tensor by tensor.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionError,
    ModelFormatError,
    ModelVersionError,
    NonFiniteError,
    TraceError,
)

MODEL_FORMAT_HEADER = "penalearn-model v1"

HIDDEN_ACTIVATIONS = ("tanh",)
OUTPUT_ACTIVATIONS = ("identity",)


def _check_layer_sizes(layer_sizes):
    sizes = tuple(int(s) for s in layer_sizes)
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
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    hidden_activation: str = "tanh"
    output_activation: str = "identity"
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = _check_layer_sizes(self.layer_sizes)
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unsupported hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unsupported output activation {self.output_activation!r}")
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

    @classmethod
    def _from_params(cls, sizes, params, hidden_activation="tanh",
                     output_activation="identity") -> "Mlp":
        """Wrap a flat vector without re-validating it.

        For internal callers whose sizes are already checked and whose vector
        is known finite or is guarded elsewhere (the training loss check).
        """
        net = object.__new__(cls)
        object.__setattr__(net, "hidden_activation", hidden_activation)
        object.__setattr__(net, "output_activation", output_activation)
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

    def parameter_count(self) -> int:
        return self.params.size


def init_mlp(layer_sizes, seed=0) -> Mlp:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = _check_layer_sizes(layer_sizes)
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
    """Per-layer activations cached by mlp_forward for the backward pass."""

    inputs: np.ndarray                       # (batch, n)
    pre_activations: tuple[np.ndarray, ...]  # (batch, layer_sizes[t+1]) each
    post_activations: tuple[np.ndarray, ...]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


def mlp_forward(net: Mlp, batch: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on a (batch, n) input matrix.

    Returns the (batch, k) outputs and a trace of every layer's pre/post
    activations for use by mlp_backward.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise DimensionError(
            f"input batch has shape {batch.shape}, expected (batch, {net.input_dim})"
        )
    if not np.all(np.isfinite(batch)):
        raise NonFiniteError("input batch contains non-finite entries")

    pre = []
    post = []
    a = batch
    last = net.num_layers - 1
    for t, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if t == last else np.tanh(z)
        post.append(a)
    return a, ForwardTrace(
        inputs=batch, pre_activations=tuple(pre), post_activations=tuple(post)
    )


def _check_trace(net: Mlp, trace: ForwardTrace):
    if len(trace.pre_activations) != net.num_layers:
        raise TraceError(
            f"trace has {len(trace.pre_activations)} layers, net has {net.num_layers}"
        )
    if trace.inputs.shape[1] != net.input_dim:
        raise TraceError(
            f"trace input dim {trace.inputs.shape[1]} != net input dim {net.input_dim}"
        )
    for t, z in enumerate(trace.pre_activations):
        if z.shape != (trace.batch_size, net.layer_sizes[t + 1]):
            raise TraceError(f"trace layer {t} has shape {z.shape}, stale for this net")


def mlp_backward(
    net: Mlp, trace: ForwardTrace, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients for the summed batch loss.

    ``upstream`` is dL/d(output) per sample, shape (batch, k).  Returns the
    gradient of sum-over-batch L with respect to every parameter, as one flat
    vector in the layout of ``net.params``, plus dL/d(input) per sample for
    diagnostics.
    """
    upstream = np.asarray(upstream, dtype=float)
    _check_trace(net, trace)
    if upstream.shape != (trace.batch_size, net.output_dim):
        raise DimensionError(
            f"upstream has shape {upstream.shape}, expected "
            f"({trace.batch_size}, {net.output_dim})"
        )

    grad = np.empty_like(net.params)
    weight_grads, bias_grads = _split(net.layer_sizes, grad)
    delta = upstream  # identity output layer: dL/dz_last = upstream
    for t in range(net.num_layers - 1, -1, -1):
        a_prev = trace.inputs if t == 0 else trace.post_activations[t - 1]
        weight_grads[t][...] = delta.T @ a_prev
        bias_grads[t][...] = delta.sum(axis=0)
        delta = delta @ net.weights[t]
        if t > 0:
            # tanh'(z) = 1 - tanh(z)^2, and post_activations[t-1] = tanh(z)
            delta = delta * (1.0 - trace.post_activations[t - 1] ** 2)
    return grad, delta


@dataclass(frozen=True)
class AdamState:
    """First/second moment vectors, in the layout of ``Mlp.params``, plus the
    ADAM hyperparameters."""

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
        return cls(
            m=np.zeros_like(net.params),
            v=np.zeros_like(net.params),
            beta1=float(beta1),
            beta2=float(beta2),
            epsilon=float(epsilon),
            learning_rate=float(learning_rate),
        )


def adam_step(net: Mlp, state: AdamState, grad: np.ndarray) -> tuple[Mlp, AdamState]:
    """One bias-corrected ADAM update; returns the new net and state.

    ``grad`` is a flat gradient in the layout of ``net.params``.  Update:
    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then
    param <- param - lr * m_hat / sqrt(v_hat + eps) with the usual 1-b^t
    bias corrections.  The inputs are left unchanged.
    """
    if not np.shape(grad) == state.m.shape == state.v.shape == net.params.shape:
        raise DimensionError(
            f"gradient and ADAM moments must have shape {net.params.shape}, got "
            f"{np.shape(grad)}, {state.m.shape} and {state.v.shape}"
        )
    t = state.step_count + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    step = state.learning_rate * (m / c1) / np.sqrt(v / c2 + state.epsilon)
    new_net = Mlp._from_params(net.layer_sizes, net.params - step,
                               net.hidden_activation, net.output_activation)
    return new_net, replace(state, m=m, v=v, step_count=t)


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

    Every tensor line is parsed straight into its slice of the flat parameter
    vector; a malformed or non-finite value raises ModelFormatError with the
    line number.
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

    params = np.empty(sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])))
    start = 0
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
            params[start:start + count] = values
            start += count
    extra = [ln for ln in lines[lineno:] if ln.strip()]
    if extra:
        raise ModelFormatError(
            "trailing content after final tensor", line_number=lineno + 1
        )
    return Mlp._from_params(sizes, params)
