"""Small MLP encoder with closed-form backpropagation, AdamW-style
optimizer with linear warm-up, and the EMA momentum copy.

Hidden layers use tanh (smooth, so finite-difference gradient checks are
clean everywhere); the final layer is linear followed by unit
normalization, whose Jacobian is handled exactly in backward_batch().
Parameters, gradients and Adam moments are flat float64 vectors in
EncoderParams' layout, and a checkpoint stores each as one flat list.
Training holds the encoder and its momentum copy as the two rows of one
(2, P) stack, so one forward_batch call embeds a batch by both; each row
is also an EncoderParams of its own. adam_step and ema_update write the
parameters and the moments in place.
"""
from __future__ import annotations

import functools
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
CHECKPOINT_VERSION = 3

# Adam moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@functools.lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...]):
    """(parameter count, per layer (weight slice, weight shape, bias
    slice) of the flat vector) for these layer widths; one per dims."""
    layers, i = [], 0
    for a, b in zip(dims[:-1], dims[1:]):
        w = i + a * b  # end of the weights, first bias
        layers.append((slice(i, w), (a, b), slice(w, w + b)))
        i = w + b
    return i, tuple(layers)


@dataclass(eq=False)
class EncoderParams:
    """All parameters as one contiguous float64 vector. weights[l], of shape
    (dims[l], dims[l + 1]), and biases[l] are views into it, in arrays()
    order: writing either writes flat, and the reverse.

    A (k, P) flat is a stack of k encoders: weights[l] is then (k, dims[l],
    dims[l + 1]) and biases[l] (k, 1, dims[l + 1]), so that both broadcast
    over a (k, B, ·) batch, and rows[i] is encoder i, backed by flat[i]."""
    flat: np.ndarray
    dims: tuple[int, ...]  # layer widths: dim_in, *hidden, dim_out

    def __post_init__(self):
        self.dims = tuple(self.dims)
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        size, layers = _layout(self.dims)
        if len(self.dims) < 2 or self.flat.ndim not in (1, 2) \
                or self.flat.shape[-1] != size:
            raise ShapeMismatchError(
                f"{self.flat.shape} parameters for layer widths {self.dims}")
        lead = self.flat.shape[:-1]
        weights, biases = [], []
        for w, shape, b in layers:
            weights.append(self.flat[..., w].reshape(*lead, *shape))
            biases.append(self.flat[:, None, b] if lead else self.flat[b])
        self.weights, self.biases = tuple(weights), tuple(biases)
        self.rows = tuple(EncoderParams(row, self.dims)
                          for row in self.flat) if lead else ()

    @classmethod
    def zeros(cls, dims) -> "EncoderParams":
        return cls(np.zeros(_layout(tuple(dims))[0]), dims)

    def like(self, flat: np.ndarray) -> "EncoderParams":
        """Parameters of this layout backed by flat (a contiguous float64
        vector is not copied)."""
        return EncoderParams(flat, self.dims)

    def copy(self) -> "EncoderParams":
        return self.like(self.flat.copy())

    def __deepcopy__(self, memo) -> "EncoderParams":
        # field by field, the views would become copies of their own
        return self.copy()

    def arrays(self) -> list[np.ndarray]:
        """Parameters in layer order: w0, b0, w1, b1, ..."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    @property
    def dim_in(self) -> int:
        return self.dims[0]


def init_params(dim_in: int, hidden: list[int], dim_out: int,
                rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights, zero biases."""
    params = EncoderParams.zeros((dim_in, *hidden, dim_out))
    for w in params.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


@dataclass
class ForwardCache:
    params: EncoderParams  # identity-checked in backward_batch()
    activations: list[np.ndarray]  # layer inputs, activations[0] = X
    norms: np.ndarray
    u: np.ndarray  # normalized output


def forward_batch(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Encode a (B, D) batch to unit-norm (B, E) embeddings. A (k, P) stack
    of encoders encodes a (k, B, D) batch to (k, B, E), batch i by encoder
    i, each bit for bit as a pass of that encoder alone would."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != params.dim_in:
        raise DimensionMismatchError(
            f"input dim {x.shape[-1]} != encoder dim {params.dim_in}")
    if x.shape[:-2] != params.flat.shape[:-1]:
        raise ShapeMismatchError(
            f"a {x.shape} batch for a stack of {params.flat.shape[:-1]} "
            f"encoders")
    acts = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = acts[-1] @ w
        a += b
        acts.append(np.tanh(a, out=a))
    a = acts[-1] @ params.weights[-1]
    a += params.biases[-1]
    norms = np.sqrt((a * a).sum(axis=-1))  # np.linalg.norm(a, axis=-1)
    if (norms <= NORM_FLOOR).any():
        raise ZeroVectorError("encoder produced a (near-)zero pre-normalization output")
    u = a / norms[..., None]
    return u, ForwardCache(params, acts, norms, u)


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   d_u: np.ndarray) -> EncoderParams:
    """Exact parameter gradients, shaped like params; d_u is
    dL/dEmbedding, shape (B, E). The cache is of a pass of params, or of a
    stack that holds params as a row: then that row's part is read."""
    if params.rows:
        raise ShapeMismatchError("gradients are for one encoder, not a stack")
    u, norms, acts = cache.u, cache.norms, cache.activations
    if cache.params is not params:
        try:
            i = cache.params.rows.index(params)  # equality is identity
        except ValueError:
            raise StaleCacheError("cache does not belong to these parameters") from None
        u, norms, acts = u[i], norms[i], [a[i] for a in acts]
    d_u = np.atleast_2d(np.asarray(d_u, dtype=np.float64))
    if d_u.shape != u.shape:
        raise ShapeMismatchError(f"{d_u.shape} vs {u.shape}")
    # normalization layer: dv = (du - (du.u) u) / ||v||
    g = (d_u * u).sum(axis=1, keepdims=True) * u
    np.subtract(d_u, g, out=g)
    g /= norms[:, None]
    grads = params.like(np.empty_like(params.flat))
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[l].T, g, out=grads.weights[l])
        g.sum(axis=0, out=grads.biases[l])
        if l > 0:
            # tanh' = 1 - tanh ** 2
            slope = np.square(acts[l])
            np.subtract(1.0, slope, out=slope)
            g = g @ params.weights[l].T
            g *= slope
    return grads


@dataclass(eq=False)
class OptimizerState:
    """Adam moments laid out like EncoderParams.flat, and the step count.
    The hyperparameters are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS here, and
    LR and WEIGHT_DECAY in trainer.py."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "OptimizerState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


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
) -> None:
    """One step of bias-corrected Adam with decoupled weight decay, in
    place: params.flat, opt.m, opt.v and opt.step. Each value is the one

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t) / (sqrt(v / (1 - b2 ** t)) + eps)
                      + weight_decay * p)

    gives, operation for operation. Its two work vectors are allocated per
    step: a state holds only what the next step reads."""
    if grads.dims != params.dims:
        raise ShapeMismatchError("gradient shapes do not match parameters")
    t = opt.step + 1
    p, g, m, v = params.flat, grads.flat, opt.m, opt.v
    a, b = np.empty((2, p.size))
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    a += np.multiply(p, weight_decay, out=b)
    a *= lr
    p -= a
    opt.step = t


def ema_update(theta_m: EncoderParams, theta_e: EncoderParams,
               lam: float) -> None:
    """theta_m <- lam * theta_m + (1 - lam) * theta_e, elementwise, in
    place."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("momentum coefficient must be in [0, 1]")
    if theta_m.dims != theta_e.dims:
        raise ShapeMismatchError("encoder shapes differ")
    pulled = (1.0 - lam) * theta_e.flat
    theta_m.flat *= lam
    theta_m.flat += pulled


# --- checkpoint file --------------------------------------------------------
# "dims" holds the layer widths; encoder, momentum, m and v are each one
# flat list in EncoderParams(flat, dims) layout.
VECTORS = ("encoder", "momentum", "m", "v")


def save_checkpoint(path, config: dict, epoch: int, enc: EncoderParams,
                    mom: EncoderParams, opt: OptimizerState) -> None:
    """Write the bytes json.dump would, one json.dumps call per vector: the
    C encoder's speed, while only one vector's text is held at a time."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "epoch": epoch,
        "step": opt.step,
        "dims": list(enc.dims),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header)[:-1])
        for key, vec in zip(VECTORS, (enc.flat, mom.flat, opt.m, opt.v)):
            fh.write(f", {json.dumps(key)}: {json.dumps(vec.tolist())}")
        fh.write("}")


def _count(value, what: str, least: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what} is not a count of at least {least}: {value!r}")
    return value


def _vector(doc: dict, key: str, size: int) -> np.ndarray:
    """doc[key] as a finite float vector of this size."""
    vec = np.array(doc[key], dtype=np.float64)
    if vec.shape != (size,):
        raise ValueError(f"{key!r} has shape {vec.shape}, not ({size},)")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{key!r} holds a non-finite value")
    return vec


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
        dims = doc["dims"]
        if not isinstance(dims, list) or len(dims) < 2:
            raise ValueError(f"'dims' is not two or more widths: {dims!r}")
        # the widths give the size, so a vector's check allocates no more
        # than the file holds
        size = _layout(tuple(_count(w, "a width", 1) for w in dims))[0]
        enc, mom, m, v = (_vector(doc, k, size) for k in VECTORS)
        enc = EncoderParams(enc, dims)
        opt = OptimizerState(m, v, _count(doc["step"], "'step'"))
        return doc["config"], _count(doc["epoch"], "'epoch'"), enc, \
            enc.like(mom), opt
    except (KeyError, TypeError, ValueError) as exc:
        raise VersionMismatchError(
            f"malformed checkpoint {path}: {exc!r}") from exc
