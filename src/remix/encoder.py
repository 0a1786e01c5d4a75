"""Small MLP encoder with closed-form backpropagation, AdamW-style
optimizer with linear warm-up, and the EMA momentum copy.

Hidden layers use tanh (smooth, so finite-difference gradient checks are
clean everywhere); the final layer is linear followed by unit
normalization, whose Jacobian is handled exactly in backward_batch().
Gradients are shaped like the parameters: backward_batch returns an
EncoderParams of them, which adam_step takes as it is.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    StaleCacheError,
    VersionMismatchError,
    ZeroVectorError,
)
from .numcore import NORM_FLOOR, atomic_write

CHECKPOINT_FORMAT = "remix-ckpt"
CHECKPOINT_VERSION = 2

# Adam moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class EncoderParams:
    weights: list[np.ndarray]  # weights[l] has shape (d_in, d_out)
    biases: list[np.ndarray]

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "EncoderParams":
        """Inverse of arrays()."""
        return cls(list(arrays[0::2]), list(arrays[1::2]))

    def copy(self) -> "EncoderParams":
        return EncoderParams.from_arrays([a.copy() for a in self.arrays()])

    def arrays(self) -> list[np.ndarray]:
        """Parameters in layer order: w0, b0, w1, b1, ..."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    @property
    def dim_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def dim_out(self) -> int:
        return self.weights[-1].shape[1]


def init_params(dim_in: int, hidden: list[int], dim_out: int,
                rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights, zero biases."""
    dims = [dim_in, *hidden, dim_out]
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
        biases.append(np.zeros(b))
    return EncoderParams(weights, biases)


@dataclass
class ForwardCache:
    params: EncoderParams  # identity-checked in backward_batch()
    activations: list[np.ndarray]  # layer inputs, activations[0] = X
    norms: np.ndarray
    u: np.ndarray  # normalized output


def forward_batch(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Encode a (B, D) batch to unit-norm (B, E) embeddings."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.dim_in:
        raise DimensionMismatchError(
            f"input dim {x.shape[1]} != encoder dim {params.dim_in}")
    acts = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w + b))
    a = acts[-1] @ params.weights[-1] + params.biases[-1]
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= NORM_FLOOR):
        raise ZeroVectorError("encoder produced a (near-)zero pre-normalization output")
    u = a / norms[:, None]
    return u, ForwardCache(params, acts, norms, u)


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   d_u: np.ndarray) -> EncoderParams:
    """Exact parameter gradients, shaped like params; d_u is
    dL/dEmbedding, shape (B, E)."""
    if cache.params is not params:
        raise StaleCacheError("cache does not belong to these parameters")
    d_u = np.atleast_2d(np.asarray(d_u, dtype=np.float64))
    if d_u.shape != cache.u.shape:
        raise ShapeMismatchError(f"{d_u.shape} vs {cache.u.shape}")
    # normalization layer: dv = (du - (du.u) u) / ||v||
    proj = np.sum(d_u * cache.u, axis=1, keepdims=True)
    g = (d_u - proj * cache.u) / cache.norms[:, None]
    d_weights = [None] * len(params.weights)
    d_biases = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        a_in = cache.activations[l]
        d_weights[l] = a_in.T @ g
        d_biases[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l].T) * (1.0 - cache.activations[l] ** 2)
    return EncoderParams(d_weights, d_biases)


@dataclass
class OptimizerState:
    """Adam moments aligned with EncoderParams.arrays(), and the step count.
    The hyperparameters live in TrainConfig."""
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "OptimizerState":
        return cls([np.zeros_like(a) for a in params.arrays()],
                   [np.zeros_like(a) for a in params.arrays()])


def effective_lr(lr: float, warmup_epochs: int, epoch: int) -> float:
    """Linear warm-up to lr over the first warmup_epochs epochs."""
    if warmup_epochs <= 0:
        return lr
    return lr * min(1.0, (epoch + 1) / warmup_epochs)


def adam_step(
    opt: OptimizerState,
    params: EncoderParams,
    grads: EncoderParams,
    lr: float,
    weight_decay: float,
) -> tuple[EncoderParams, OptimizerState]:
    """Bias-corrected Adam with decoupled weight decay."""
    arrays = params.arrays()
    g_arrays = grads.arrays()
    if len(g_arrays) != len(arrays) or any(
            g.shape != p.shape for g, p in zip(g_arrays, arrays)):
        raise ShapeMismatchError("gradient shapes do not match parameters")
    t = opt.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(arrays, g_arrays, opt.m, opt.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_p.append(p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                               + weight_decay * p))
        new_m.append(m)
        new_v.append(v)
    return EncoderParams.from_arrays(new_p), OptimizerState(new_m, new_v, t)


def ema_update(theta_m: EncoderParams, theta_e: EncoderParams,
               lam: float) -> EncoderParams:
    """theta_m <- lam * theta_m + (1 - lam) * theta_e, elementwise."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("momentum coefficient must be in [0, 1]")
    a_m, a_e = theta_m.arrays(), theta_e.arrays()
    if [a.shape for a in a_m] != [a.shape for a in a_e]:
        raise ShapeMismatchError("encoder shapes differ")
    return EncoderParams.from_arrays(
        [lam * m + (1.0 - lam) * e for m, e in zip(a_m, a_e)])


# --- checkpoint file --------------------------------------------------------
# The encoder, momentum, m and v entries each hold their arrays in
# EncoderParams.arrays() order, as nested lists.


def save_checkpoint(path, config: dict, epoch: int, enc: EncoderParams,
                    mom: EncoderParams, opt: OptimizerState) -> None:
    """Write the bytes json.dump would, one json.dumps call per array: the
    C encoder's speed, while only one array's text is held at a time."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "epoch": epoch,
        "step": opt.step,
    }
    lists = {"encoder": enc.arrays(), "momentum": mom.arrays(),
             "m": opt.m, "v": opt.v}
    with atomic_write(path) as fh:
        fh.write(json.dumps(header)[:-1])
        for key, arrays in lists.items():
            fh.write(f", {json.dumps(key)}: [")
            for i, a in enumerate(arrays):
                fh.write((", " if i else "") + json.dumps(a.tolist()))
            fh.write("]")
        fh.write("}")


def _arrays(doc: dict, key: str, shapes=None) -> list[np.ndarray]:
    """doc[key] as float arrays, all finite and, if given, of these shapes."""
    arrays = [np.array(a, dtype=np.float64) for a in doc[key]]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{key!r} holds a non-finite value")
    if shapes is not None and [a.shape for a in arrays] != shapes:
        raise ValueError(f"{key!r} shapes differ from the encoder's")
    return arrays


def _layers(arrays: list[np.ndarray]) -> EncoderParams:
    """The encoder the arrays describe, if they chain as layers."""
    if not arrays or len(arrays) % 2:
        raise ValueError("'encoder' needs a weight and a bias per layer")
    params = EncoderParams.from_arrays(arrays)
    d_in = arrays[0].shape[:1]
    for w, b in zip(params.weights, params.biases):
        if w.ndim != 2 or w.shape[:1] != d_in or b.shape != w.shape[1:]:
            raise ValueError(f"'encoder' layer shapes {w.shape} and "
                             f"{b.shape} do not chain")
        d_in = w.shape[1:]
    return params


def _count(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{key!r} is not a count: {value!r}")
    return value


def load_checkpoint(path) -> tuple[dict, int, EncoderParams, EncoderParams, OptimizerState]:
    """Read a checkpoint; a file that is not a complete, consistent
    checkpoint of this version raises VersionMismatchError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT \
                or doc.get("version") != CHECKPOINT_VERSION:
            raise VersionMismatchError(f"bad checkpoint header in {path}")
        if not isinstance(doc["config"], dict):
            raise ValueError("'config' is not an object")
        enc = _layers(_arrays(doc, "encoder"))
        shapes = [a.shape for a in enc.arrays()]
        mom, m, v = (_arrays(doc, k, shapes) for k in ("momentum", "m", "v"))
        opt = OptimizerState(m, v, _count(doc, "step"))
        return (doc["config"], _count(doc, "epoch"), enc,
                EncoderParams.from_arrays(mom), opt)
    except (KeyError, TypeError, ValueError) as exc:
        raise VersionMismatchError(
            f"malformed checkpoint {path}: {exc!r}") from exc
