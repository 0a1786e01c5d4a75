"""Small MLP encoder with closed-form backpropagation, AdamW-style
optimizer with linear warm-up, and the EMA momentum copy.

Hidden layers use tanh (smooth, so finite-difference gradient checks are
clean everywhere); the final layer is linear followed by unit
normalization, whose Jacobian is handled exactly in backward_batch().
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    StaleCacheError,
    VersionMismatchError,
    ZeroVectorError,
)
from .numcore import NORM_FLOOR

CHECKPOINT_FORMAT = "remix-ckpt"
CHECKPOINT_VERSION = 1


@dataclass
class EncoderParams:
    weights: list[np.ndarray]  # weights[l] has shape (d_in, d_out)
    biases: list[np.ndarray]

    def copy(self) -> "EncoderParams":
        return EncoderParams([w.copy() for w in self.weights],
                             [b.copy() for b in self.biases])

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

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
    v: np.ndarray  # pre-normalization output
    norms: np.ndarray
    u: np.ndarray  # normalized output


def forward_batch(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Encode a (B, D) batch to unit-norm (B, E) embeddings."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.dim_in:
        raise DimensionMismatchError(
            f"input dim {x.shape[1]} != encoder dim {params.dim_in}")
    acts = [x]
    a = x
    n_layers = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = np.tanh(z) if l < n_layers - 1 else z
        if l < n_layers - 1:
            acts.append(a)
    v = a
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms <= NORM_FLOOR):
        raise ZeroVectorError("encoder produced a (near-)zero pre-normalization output")
    u = v / norms[:, None]
    return u, ForwardCache(params, acts, v, norms, u)


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   d_u: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact parameter gradients; d_u is dL/dEmbedding, shape (B, E)."""
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
    return d_weights, d_biases


@dataclass
class OptimizerState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    step: int = 0
    lr: float = 0.00035
    weight_decay: float = 0.0005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup_epochs: int = 10

    @classmethod
    def for_params(cls, params: EncoderParams, lr: float = 0.00035,
                   weight_decay: float = 0.0005, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8,
                   warmup_epochs: int = 10) -> "OptimizerState":
        return cls(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
            [np.zeros_like(b) for b in params.biases],
            0, lr, weight_decay, beta1, beta2, eps, warmup_epochs,
        )


def effective_lr(opt: OptimizerState, epoch: int) -> float:
    if opt.warmup_epochs <= 0:
        return opt.lr
    return opt.lr * min(1.0, (epoch + 1) / opt.warmup_epochs)


def adam_step(
    opt: OptimizerState,
    params: EncoderParams,
    grads: tuple[list[np.ndarray], list[np.ndarray]],
    epoch: int,
) -> tuple[EncoderParams, OptimizerState]:
    """Bias-corrected Adam with decoupled weight decay and linear warm-up."""
    d_w, d_b = grads
    if len(d_w) != len(params.weights) or any(
        g.shape != w.shape for g, w in zip(d_w, params.weights)
    ) or any(g.shape != b.shape for g, b in zip(d_b, params.biases)):
        raise ShapeMismatchError("gradient shapes do not match parameters")
    lr = effective_lr(opt, epoch)
    t = opt.step + 1
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t

    def update(p, g, m, v):
        m_new = opt.beta1 * m + (1.0 - opt.beta1) * g
        v_new = opt.beta2 * v + (1.0 - opt.beta2) * g * g
        m_hat = m_new / bc1
        v_hat = v_new / bc2
        p_new = p - lr * (m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * p)
        return p_new, m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for p, g, m, v in zip(params.weights, d_w, opt.m_w, opt.v_w):
        pn, mn, vn = update(p, g, m, v)
        new_w.append(pn); new_mw.append(mn); new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for p, g, m, v in zip(params.biases, d_b, opt.m_b, opt.v_b):
        pn, mn, vn = update(p, g, m, v)
        new_b.append(pn); new_mb.append(mn); new_vb.append(vn)

    new_opt = OptimizerState(new_mw, new_vw, new_mb, new_vb, t, opt.lr,
                             opt.weight_decay, opt.beta1, opt.beta2, opt.eps,
                             opt.warmup_epochs)
    return EncoderParams(new_w, new_b), new_opt


def ema_update(theta_m: EncoderParams, theta_e: EncoderParams,
               lam: float) -> EncoderParams:
    """theta_m <- lam * theta_m + (1 - lam) * theta_e, elementwise."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("momentum coefficient must be in [0, 1]")
    if [w.shape for w in theta_m.weights] != [w.shape for w in theta_e.weights]:
        raise ShapeMismatchError("encoder shapes differ")
    return EncoderParams(
        [lam * wm + (1.0 - lam) * we
         for wm, we in zip(theta_m.weights, theta_e.weights)],
        [lam * bm + (1.0 - lam) * be
         for bm, be in zip(theta_m.biases, theta_e.biases)],
    )


# --- checkpoint file --------------------------------------------------------


def _params_record(params: EncoderParams) -> list[dict]:
    return [
        {"shape": list(w.shape), "w": [float(x) for x in w.reshape(-1)],
         "b": [float(x) for x in b]}
        for w, b in zip(params.weights, params.biases)
    ]


def _params_from_record(rec: list[dict]) -> EncoderParams:
    weights = [np.array(l["w"], dtype=np.float64).reshape(l["shape"]) for l in rec]
    biases = [np.array(l["b"], dtype=np.float64) for l in rec]
    return EncoderParams(weights, biases)


def save_checkpoint(path, config: dict, epoch: int, enc: EncoderParams,
                    mom: EncoderParams, opt: OptimizerState) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "epoch": epoch,
        "encoder": _params_record(enc),
        "momentum": _params_record(mom),
        "optimizer": {
            "step": opt.step, "lr": opt.lr, "weight_decay": opt.weight_decay,
            "beta1": opt.beta1, "beta2": opt.beta2, "eps": opt.eps,
            "warmup_epochs": opt.warmup_epochs,
            "m_w": [[float(x) for x in a.reshape(-1)] for a in opt.m_w],
            "v_w": [[float(x) for x in a.reshape(-1)] for a in opt.v_w],
            "m_b": [[float(x) for x in a] for a in opt.m_b],
            "v_b": [[float(x) for x in a] for a in opt.v_b],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[dict, int, EncoderParams, EncoderParams, OptimizerState]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT or doc.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"bad checkpoint header in {path}")
    enc = _params_from_record(doc["encoder"])
    mom = _params_from_record(doc["momentum"])
    o = doc["optimizer"]
    opt = OptimizerState(
        [np.array(a).reshape(w.shape) for a, w in zip(o["m_w"], enc.weights)],
        [np.array(a).reshape(w.shape) for a, w in zip(o["v_w"], enc.weights)],
        [np.array(a) for a in o["m_b"]],
        [np.array(a) for a in o["v_b"]],
        int(o["step"]), o["lr"], o["weight_decay"], o["beta1"], o["beta2"],
        o["eps"], int(o["warmup_epochs"]),
    )
    return doc["config"], int(doc["epoch"]), enc, mom, opt
