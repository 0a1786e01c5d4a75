import json

import numpy as np
import pytest

from remix import encoder as enc
from remix.config import RunConfig
from remix.errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    StaleCacheError,
    VersionMismatchError,
    ZeroVectorError,
)
from remix.numcore import finite_diff_grad, substream


def make_params(seed=0, dims=(6, 8, 4)):
    return enc.init_params(dims[0], list(dims[1:-1]), dims[-1],
                           substream(seed, "init"))


def test_init_shapes_and_zero_biases():
    p = make_params(dims=(5, 7, 3))
    assert [w.shape for w in p.weights] == [(5, 7), (7, 3)]
    assert all(np.all(b == 0) for b in p.biases)
    assert p.dim_in == 5 and p.dim_out == 3


def test_init_deterministic():
    a, b = make_params(1), make_params(1)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def test_forward_unit_norm():
    p = make_params()
    x = substream(2, "init").standard_normal((10, 6))
    u, _ = enc.forward_batch(p, x)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)


def test_forward_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        enc.forward_batch(make_params(), np.zeros((2, 7)))


def test_forward_zero_output():
    p = make_params()
    for w in p.weights:
        w[:] = 0.0
    with pytest.raises(ZeroVectorError):
        enc.forward_batch(p, np.ones((1, 6)))


def test_backward_rejects_stale_cache():
    p = make_params()
    x = np.ones((2, 6))
    _, cache = enc.forward_batch(p, x)
    with pytest.raises(StaleCacheError):
        enc.backward_batch(p.copy(), cache, np.zeros((2, 4)))


def test_backward_shape_check():
    p = make_params()
    _, cache = enc.forward_batch(p, np.ones((2, 6)))
    with pytest.raises(ShapeMismatchError):
        enc.backward_batch(p, cache, np.zeros((3, 4)))


def test_backward_matches_finite_differences():
    # scalar head: dot the embeddings against a fixed direction
    rng = substream(4, "gradcheck")
    p = make_params(4, dims=(5, 6, 3))
    x = rng.standard_normal((4, 5))
    probe = rng.standard_normal((4, 3))

    u, cache = enc.forward_batch(p, x)
    d_w, d_b = enc.backward_batch(p, cache, probe)

    for l in range(len(p.weights)):
        def f(w, l=l):
            q = p.copy()
            q.weights[l] = w
            uu, _ = enc.forward_batch(q, x)
            return float(np.sum(uu * probe))

        fd = finite_diff_grad(f, p.weights[l])
        assert np.allclose(d_w[l], fd, atol=1e-6)

        def g(b, l=l):
            q = p.copy()
            q.biases[l] = b
            uu, _ = enc.forward_batch(q, x)
            return float(np.sum(uu * probe))

        fd_b = finite_diff_grad(g, p.biases[l])
        assert np.allclose(d_b[l], fd_b, atol=1e-6)


def ones_grads(p, value=1.0):
    return ([np.full_like(w, value) for w in p.weights],
            [np.full_like(b, value) for b in p.biases])


class TestOptimizer:
    def test_warmup_schedule(self):
        assert enc.effective_lr(1.0, 10, 0) == pytest.approx(0.1)
        assert enc.effective_lr(1.0, 10, 4) == pytest.approx(0.5)
        assert enc.effective_lr(1.0, 10, 9) == pytest.approx(1.0)
        assert enc.effective_lr(1.0, 10, 25) == pytest.approx(1.0)

    def test_no_warmup(self):
        assert enc.effective_lr(0.5, 0, 0) == 0.5

    def test_decoupled_weight_decay(self):
        # with zero gradients the only update is the decay term
        p = make_params()
        opt = enc.OptimizerState.for_params(p)
        p2, opt2 = enc.adam_step(opt, p, ones_grads(p, 0.0), lr=0.1,
                                 weight_decay=0.01)
        for w_old, w_new in zip(p.weights, p2.weights):
            assert np.allclose(w_new, w_old * (1.0 - 0.1 * 0.01))
        assert opt2.step == 1

    def test_step_is_functional(self):
        p = make_params()
        snapshot = [w.copy() for w in p.weights]
        opt = enc.OptimizerState.for_params(p)
        enc.adam_step(opt, p, ones_grads(p), lr=0.002, weight_decay=0.0005)
        assert all(np.array_equal(w, s) for w, s in zip(p.weights, snapshot))
        assert opt.step == 0
        assert all(not a.any() for a in opt.m + opt.v)

    def test_gradient_shape_check(self):
        p = make_params()
        opt = enc.OptimizerState.for_params(p)
        bad = ([np.zeros((2, 2)) for _ in p.weights],
               [np.zeros_like(b) for b in p.biases])
        with pytest.raises(ShapeMismatchError):
            enc.adam_step(opt, p, bad, lr=0.002, weight_decay=0.0)
        short = ([np.zeros_like(w) for w in p.weights], p.biases[:1])
        with pytest.raises(ShapeMismatchError):
            enc.adam_step(opt, p, short, lr=0.002, weight_decay=0.0)

    def test_first_step_magnitude(self):
        # bias correction makes the first step approach lr * sign(g)
        p = make_params()
        opt = enc.OptimizerState.for_params(p)
        p2, _ = enc.adam_step(opt, p, ones_grads(p, 2.0), lr=0.01,
                              weight_decay=0.0)
        delta = p.weights[0] - p2.weights[0]
        assert np.allclose(delta, 0.01, atol=1e-6)


class TestEma:
    def test_lambda_zero_bit_exact(self):
        mom, par = make_params(0), make_params(1)
        out = enc.ema_update(mom, par, 0.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(out.arrays(), par.arrays()))

    def test_lambda_one_keeps_momentum(self):
        mom, par = make_params(0), make_params(1)
        out = enc.ema_update(mom, par, 1.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(out.arrays(), mom.arrays()))

    def test_interpolation(self):
        mom, par = make_params(0), make_params(1)
        out = enc.ema_update(mom, par, 0.25)
        expect = 0.25 * mom.weights[0] + 0.75 * par.weights[0]
        assert np.allclose(out.weights[0], expect)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            enc.ema_update(make_params(), make_params(), 1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            enc.ema_update(make_params(dims=(6, 8, 4)),
                           make_params(dims=(6, 9, 4)), 0.5)


def grads_for(p, i):
    """Fixed pseudo-random gradients for Adam step i."""
    rng = substream(i, "gradcheck")
    return ([rng.standard_normal(w.shape) for w in p.weights],
            [rng.standard_normal(b.shape) for b in p.biases])


def stepped(k):
    """Params and optimizer state after k Adam steps."""
    p = make_params()
    opt = enc.OptimizerState.for_params(p)
    for i in range(k):
        p, opt = enc.adam_step(opt, p, grads_for(p, i), lr=0.002,
                               weight_decay=0.0005)
    return p, opt


def _drop_row(doc, key, i):
    doc[key][i] = doc[key][i][:-1]


def _set_first(doc, key, value):
    doc[key][0][0][0] = value


ARRAY_KEYS = ("encoder", "momentum", "m", "v")
# each case edits a valid checkpoint document in place
BROKEN_DOC = {
    "version-1": lambda d: d.update(version=1),
    "missing-m": lambda d: d.pop("m"),
    "missing-step": lambda d: d.pop("step"),
    "missing-momentum": lambda d: d.pop("momentum"),
    "step-not-a-count": lambda d: d.update(step=1.5),
    "config-not-an-object": lambda d: d.update(config=[]),
    "nan-in-v": lambda d: _set_first(d, "v", float("nan")),
    "inf-in-encoder": lambda d: _set_first(d, "encoder", float("inf")),
    "text-in-encoder": lambda d: _set_first(d, "encoder", "x"),
    "ragged-m": lambda d: _drop_row(d["m"], 0, 0),
    "odd-array-count": lambda d: d["encoder"].pop(),
    "no-layers": lambda d: d.update(encoder=[]),
    # the same cut in all four array lists, so only the chain is wrong
    "layer-chain": lambda d: [_drop_row(d, k, 2) for k in ARRAY_KEYS],
    "bias-length": lambda d: [_drop_row(d, k, 1) for k in ARRAY_KEYS],
    "momentum-shape": lambda d: _drop_row(d, "momentum", 0),
    "m-shape": lambda d: _drop_row(d, "m", 3),
    "v-count": lambda d: d["v"].pop(),
}
# each case rewrites the valid file's text
BROKEN_TEXT = {
    "truncated": lambda text: text[:len(text) // 2],
    "not-an-object": lambda text: f"[{text}]",
}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        p, opt = stepped(1)
        m = make_params(1)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, {"seed": 3}, 7, p, m, opt)
        cfg, epoch, p2, m2, opt2 = enc.load_checkpoint(path)
        assert cfg == {"seed": 3} and epoch == 7 and opt2.step == 1
        pairs = list(zip(p.arrays() + m.arrays() + opt.m + opt.v,
                         p2.arrays() + m2.arrays() + opt2.m + opt2.v))
        assert len(pairs) == 16
        assert all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in pairs)

    def test_resume_matches_uninterrupted_step(self, tmp_path):
        # save after step k, reload, take step k+1: bit-exact with k+1
        # steps taken in one go
        k = 3
        p, opt = stepped(k)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, {}, 0, p, p, opt)
        _, _, p, _, opt = enc.load_checkpoint(path)
        p, opt = enc.adam_step(opt, p, grads_for(p, k), lr=0.002,
                               weight_decay=0.0005)
        p_straight, opt_straight = stepped(k + 1)
        assert opt.step == opt_straight.step == k + 1
        assert all(np.array_equal(a, b) for a, b in
                   zip(p.arrays() + opt.m + opt.v,
                       p_straight.arrays() + opt_straight.m + opt_straight.v))

    @pytest.mark.parametrize("shape", ["default", "refresh"])
    def test_bytes_equal_one_json_dump(self, tmp_path, shape):
        cfg = RunConfig()
        if shape == "refresh":
            cfg.generator.n_single_identities = 480
            cfg.generator.frames_per_identity = 16
            cfg.train.epochs = 10
            cfg.train.checkpoint_every = 1
        dims = (cfg.generator.dim, *cfg.model.hidden, cfg.model.embed_dim)
        p, m = make_params(0, dims), make_params(1, dims)
        opt = enc.OptimizerState.for_params(p)
        for i in range(3):
            p, opt = enc.adam_step(opt, p, grads_for(p, i), lr=0.002,
                                   weight_decay=0.0005)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, cfg.to_dict(), 7, p, m, opt)
        doc = {"format": "remix-ckpt", "version": 2,
               "config": cfg.to_dict(), "epoch": 7, "step": 3,
               "encoder": [a.tolist() for a in p.arrays()],
               "momentum": [a.tolist() for a in m.arrays()],
               "m": [a.tolist() for a in opt.m],
               "v": [a.tolist() for a in opt.v]}
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_header_fields(self, tmp_path):
        p = make_params()
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, {}, 0, p, p, enc.OptimizerState.for_params(p))
        doc = json.loads(path.read_text())
        assert doc["format"] == "remix-ckpt" and doc["version"] == 2
        assert set(doc) == {"format", "version", "config", "epoch", "step",
                            "encoder", "momentum", "m", "v"}

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": "remix-ckpt", "version": 99}))
        with pytest.raises(VersionMismatchError):
            enc.load_checkpoint(path)

    @pytest.mark.parametrize("case", [*BROKEN_DOC, *BROKEN_TEXT])
    def test_malformed_file_names_it(self, tmp_path, case):
        p, opt = stepped(2)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, {"seed": 3}, 7, p, make_params(1), opt)
        text = path.read_text()
        if case in BROKEN_TEXT:
            text = BROKEN_TEXT[case](text)
        else:
            doc = json.loads(text)
            BROKEN_DOC[case](doc)
            text = json.dumps(doc)
        path.write_text(text)
        with pytest.raises(VersionMismatchError) as info:
            enc.load_checkpoint(path)
        assert str(path) in str(info.value)
