"""Fully-connected (MLP) layers of the DLRM model.

These are the compute-intensive operators that stay on the host CPU in the
RecNMP system (BottomFC and TopFC).  The functional implementation is plain
NumPy; the performance characteristics (FLOPs, weight bytes) feed the
roofline and co-location models in :mod:`repro.perf`.
"""

import numpy as np


def relu(x):
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x):
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(np.float32)


class MLP:
    """A stack of dense layers with ReLU activations (sigmoid on the last).

    Parameters
    ----------
    input_dim:
        Width of the input feature vector.
    layer_widths:
        Output width of each layer.
    final_activation:
        ``"sigmoid"``, ``"relu"`` or ``None`` for the last layer.
    seed:
        RNG seed for weight initialisation.
    """

    def __init__(self, input_dim, layer_widths, final_activation="relu",
                 seed=None):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if not layer_widths:
            raise ValueError("layer_widths must be non-empty")
        if final_activation not in ("relu", "sigmoid", None):
            raise ValueError("unsupported final_activation %r"
                             % (final_activation,))
        self.input_dim = int(input_dim)
        self.layer_widths = tuple(int(w) for w in layer_widths)
        self.final_activation = final_activation
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        prev = self.input_dim
        for width in self.layer_widths:
            scale = np.sqrt(2.0 / prev)
            self.weights.append(
                (rng.standard_normal((prev, width)) * scale).astype(
                    np.float32))
            self.biases.append(np.zeros(width, dtype=np.float32))
            prev = width

    # ------------------------------------------------------------------ #
    def forward(self, x):
        """Run the MLP on a batch ``x`` of shape (batch, input_dim)."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValueError(
                "input width %d does not match MLP input_dim %d"
                % (x.shape[1], self.input_dim))
        activation = x
        last = len(self.weights) - 1
        for i, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            activation = activation @ weight + bias
            if i < last:
                activation = relu(activation)
            elif self.final_activation == "relu":
                activation = relu(activation)
            elif self.final_activation == "sigmoid":
                activation = sigmoid(activation)
        return activation

    __call__ = forward
