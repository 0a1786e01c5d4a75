import json
from copy import deepcopy

import numpy as np
import pytest

from oracles import (
    functional_adam_step,
    functional_ema_update,
    reference_adam_step,
    reference_ema_update,
)
from remix import encoder as enc
from remix import trainer
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
    assert p.dim_in == 5 and p.dims[-1] == 3


def test_weights_and_biases_are_views_of_flat():
    p = make_params(dims=(5, 7, 3))
    assert p.flat.shape == (5 * 7 + 7 + 7 * 3 + 3,) and p.dims == (5, 7, 3)
    p.flat[:] = np.arange(p.flat.size)
    assert np.array_equal(p.weights[0], np.arange(35).reshape(5, 7))
    assert np.array_equal(p.biases[0], np.arange(35, 42))
    assert np.array_equal(p.weights[1], np.arange(42, 63).reshape(7, 3))
    assert np.array_equal(p.biases[1], np.arange(63, 66))
    p.weights[1][2, 1] = -1.0
    p.biases[0][3] = -2.0
    assert p.flat[42 + 2 * 3 + 1] == -1.0 and p.flat[35 + 3] == -2.0
    assert np.array_equal(np.concatenate([a.ravel() for a in p.arrays()]),
                          p.flat)


def test_like_wraps_without_copying():
    p = make_params()
    flat = np.zeros_like(p.flat)
    q = p.like(flat)
    flat[0] = 5.0
    assert q.dims == p.dims and q.weights[0][0, 0] == 5.0
    c = p.copy()
    c.flat[0] += 1.0
    assert c.flat[0] != p.flat[0]


def test_layout_is_computed_once_per_dims():
    p = make_params()
    before = enc._layout.cache_info()
    p.copy(), p.like(np.zeros_like(p.flat))
    after = enc._layout.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2


# (6, 8, 4) holds 6 * 8 + 8 + 8 * 4 + 4 = 92 parameters; (6,) no layer
@pytest.mark.parametrize("length, dims", [(0, (6, 8, 4)), (91, (6, 8, 4)),
                                          (93, (6, 8, 4)), (0, (6,))])
def test_flat_length_must_match_dims(length, dims):
    with pytest.raises(ShapeMismatchError):
        enc.EncoderParams(np.zeros(length), dims)


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


def test_equality_is_identity():
    # numpy fields cannot compare field by field to one bool: an encoder,
    # like its optimizer state, equals itself alone
    p = make_params()
    q = p.copy()
    assert p == p and p != q and not p == q
    assert [q, p].index(p) == 1 and p in [q, p] and p not in [q]
    opt = enc.OptimizerState.for_params(p)
    assert opt == opt and opt != enc.OptimizerState.for_params(p)
    stack = p.like(np.stack((p.flat, p.flat)))
    assert stack.rows.index(stack.rows[1]) == 1
    _, cache = enc.forward_batch(stack, np.ones((2, 3, 6)))
    with pytest.raises(StaleCacheError):
        enc.backward_batch(stack.rows[1].copy(), cache, np.zeros((3, 4)))


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
    grads = enc.backward_batch(p, cache, probe)
    assert [g.shape for g in grads.arrays()] == [a.shape for a in p.arrays()]

    for l in range(len(p.weights)):
        def f(w, l=l):
            q = p.copy()
            q.weights[l][...] = w
            uu, _ = enc.forward_batch(q, x)
            return float(np.sum(uu * probe))

        fd = finite_diff_grad(f, p.weights[l])
        assert np.allclose(grads.weights[l], fd, atol=1e-6)

        def g(b, l=l):
            q = p.copy()
            q.biases[l][...] = b
            uu, _ = enc.forward_batch(q, x)
            return float(np.sum(uu * probe))

        fd_b = finite_diff_grad(g, p.biases[l])
        assert np.allclose(grads.biases[l], fd_b, atol=1e-6)


@pytest.mark.parametrize("batch", [1, 64])
def test_backward_view_writes_equal_products(batch):
    # each layer's gradient is written into a view of one vector; the
    # writes must equal a.T @ g and g.sum(axis=0) bit for bit, at batch 1
    # (rank-one products, vector-matrix propagation) as at batch 64
    rng = substream(batch, "gradcheck")
    p = make_params(dims=(32, 64, 16))
    x = rng.standard_normal((batch, 32))
    d_u = rng.standard_normal((batch, 16))
    _, cache = enc.forward_batch(p, x)
    grads = enc.backward_batch(p, cache, d_u)
    proj = np.sum(d_u * cache.u, axis=1, keepdims=True)
    g = (d_u - proj * cache.u) / cache.norms[:, None]
    for l in (1, 0):
        a = cache.activations[l]
        assert np.array_equal(grads.weights[l], a.T @ g)
        assert np.array_equal(grads.biases[l], g.sum(axis=0))
        g = (g @ p.weights[l].T) * (1.0 - a ** 2)


def make_stack(dims, seeds=(0, 1)):
    """A stack of encoders of these widths, one per seed, and the rows."""
    rows = [make_params(seed, dims) for seed in seeds]
    return rows[0].like(np.stack([r.flat for r in rows])), rows


class TestStack:
    def test_rows_and_layers_are_views_of_flat(self):
        stack, _ = make_stack((5, 7, 3))
        assert stack.flat.shape == (2, 66) and len(stack.rows) == 2
        assert [w.shape for w in stack.weights] == [(2, 5, 7), (2, 7, 3)]
        assert [b.shape for b in stack.biases] == [(2, 1, 7), (2, 1, 3)]
        stack.flat[:] = np.arange(132).reshape(2, 66)
        for i, row in enumerate(stack.rows):
            assert row.flat.shape == (66,)
            assert np.array_equal(row.flat, np.arange(66) + 66 * i)
            assert all(np.shares_memory(a, stack.flat) for a in row.arrays())
            assert all(np.array_equal(w[i], rw)
                       for w, rw in zip(stack.weights, row.weights))
            assert all(np.array_equal(b[i, 0], rb)
                       for b, rb in zip(stack.biases, row.biases))
        assert stack.rows[0].rows == ()

    def test_deep_copy_keeps_rows_as_views(self):
        stack, _ = make_stack((5, 7, 3))
        dup = deepcopy(stack)
        dup.rows[1].flat[:] = 7.0
        assert np.all(dup.flat[1] == 7.0) and np.all(dup.weights[0][1] == 7.0)
        assert not np.any(stack.flat == 7.0)

    @pytest.mark.parametrize("shape", [(3, 67), (2, 65), (2, 2, 66)])
    def test_stack_shape_must_match_dims(self, shape):
        with pytest.raises(ShapeMismatchError):
            enc.EncoderParams(np.zeros(shape), (5, 7, 3))

    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 32, 64, 256])
    @pytest.mark.parametrize("dims", [(32, 64, 16), (16, 8, 8)])
    def test_stacked_pass_equals_each_row_alone(self, dims, batch):
        # B = 1 multiplies as vector-matrix products; each row of one pass
        # over the stack must still be its encoder's own pass, bit for bit
        stack, rows = make_stack(dims)
        x = substream(batch, "gradcheck").standard_normal((2, batch, dims[0]))
        u, cache = enc.forward_batch(stack, x)
        assert u.shape == (2, batch, dims[-1])
        for i, row in enumerate(rows):
            u_i, alone = enc.forward_batch(row, x[i])
            assert u[i].tobytes() == u_i.tobytes()
            assert cache.norms[i].tobytes() == alone.norms.tobytes()
            for a, b in zip(cache.activations, alone.activations):
                assert a[i].tobytes() == b.tobytes()

    @pytest.mark.parametrize("batch", [1, 3, 32, 64])
    @pytest.mark.parametrize("dims", [(32, 64, 16), (16, 8, 8)])
    def test_backward_reads_its_row_of_the_stacked_cache(self, dims, batch):
        stack, rows = make_stack(dims)
        rng = substream(batch, "gradcheck")
        x = rng.standard_normal((2, batch, dims[0]))
        d_u = rng.standard_normal((batch, dims[-1]))
        _, cache = enc.forward_batch(stack, x)
        for i, row in enumerate(rows):
            _, alone = enc.forward_batch(row, x[i])
            want = enc.backward_batch(row, alone, d_u).flat
            got = enc.backward_batch(stack.rows[i], cache, d_u)
            assert got.flat.shape == want.shape
            assert got.flat.tobytes() == want.tobytes()

    def test_backward_rejects_another_stacks_row(self):
        stack, rows = make_stack((6, 8, 4))
        _, cache = enc.forward_batch(stack, np.ones((2, 3, 6)))
        with pytest.raises(StaleCacheError):
            enc.backward_batch(rows[0], cache, np.zeros((3, 4)))
        with pytest.raises(StaleCacheError):
            enc.backward_batch(stack.copy().rows[0], cache, np.zeros((3, 4)))

    def test_backward_takes_one_encoder_not_the_stack(self):
        stack, _ = make_stack((6, 8, 4))
        _, cache = enc.forward_batch(stack, np.ones((2, 3, 6)))
        with pytest.raises(ShapeMismatchError):
            enc.backward_batch(stack, cache, np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("shape", [(3, 6), (1, 3, 6), (3, 3, 6)])
    def test_stacked_pass_needs_one_batch_per_row(self, shape):
        stack, _ = make_stack((6, 8, 4))
        with pytest.raises(ShapeMismatchError):
            enc.forward_batch(stack, np.ones(shape))

    def test_single_pass_refuses_a_stacked_batch(self):
        with pytest.raises(ShapeMismatchError):
            enc.forward_batch(make_params(), np.ones((2, 3, 6)))


def ones_grads(p, value=1.0):
    return p.like(np.full_like(p.flat, value))


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
        before = p.copy()
        opt = enc.OptimizerState.for_params(p)
        enc.adam_step(opt, p, ones_grads(p, 0.0), lr=0.1, weight_decay=0.01)
        for w_old, w_new in zip(before.weights, p.weights):
            assert np.allclose(w_new, w_old * (1.0 - 0.1 * 0.01))
        assert opt.step == 1

    def test_steps_in_place_equal_the_functional_formulas(self):
        # 50 steps at the warm-up's learning rates, with weight decay: the
        # in-place step writes the vectors it was given, bit for bit what
        # the copy-returning formulas give
        p = make_params(dims=(32, 64, 16))
        opt = enc.OptimizerState.for_params(p)
        vectors, views = (p.flat, opt.m, opt.v), p.arrays()
        ref_p, ref_m, ref_v = p.flat.copy(), opt.m.copy(), opt.v.copy()
        rng = substream(5, "gradcheck")
        for i in range(50):
            lr = enc.effective_lr(0.002, 10, i * 11 // 50)  # epochs 0-10
            g = p.like(rng.standard_normal(p.flat.size))
            ref_p, ref_m, ref_v = functional_adam_step(
                ref_p, g.flat, ref_m, ref_v, i, lr, 0.0005)
            assert enc.adam_step(opt, p, g, lr, 0.0005) is None
            assert opt.step == i + 1
            assert all(a is b for a, b in zip((p.flat, opt.m, opt.v),
                                              vectors))
            for new, ref in zip(vectors, (ref_p, ref_m, ref_v)):
                assert new.tobytes() == ref.tobytes()
        assert lr == 0.002
        assert all(np.shares_memory(a, p.flat) for a in views)

    def test_gradient_shape_check(self):
        p = make_params()
        opt = enc.OptimizerState.for_params(p)
        # another hidden width, so another parameter count
        bad = enc.EncoderParams.zeros((6, 9, 4))
        with pytest.raises(ShapeMismatchError):
            enc.adam_step(opt, p, bad, lr=0.002, weight_decay=0.0)
        # one layer of 22 * 4 + 4 = 92 parameters, as many as p holds
        short = enc.EncoderParams.zeros((22, 4))
        assert short.flat.shape == p.flat.shape
        with pytest.raises(ShapeMismatchError):
            enc.adam_step(opt, p, short, lr=0.002, weight_decay=0.0)

    def test_matches_per_array_reference(self):
        p = make_params()
        opt = enc.OptimizerState.for_params(p)
        ref_p = p.arrays()
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        for i in range(5):
            g = grads_for(p, i)
            ref_p, ref_m, ref_v = reference_adam_step(
                ref_p, g.arrays(), ref_m, ref_v, i, 0.002, 0.0005)
            enc.adam_step(opt, p, g, lr=0.002, weight_decay=0.0005)
            assert opt.step == i + 1
            for new, ref in ((p.arrays(), ref_p),
                             (p.like(opt.m).arrays(), ref_m),
                             (p.like(opt.v).arrays(), ref_v)):
                assert all(a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(new, ref, strict=True))

    def test_first_step_magnitude(self):
        # bias correction makes the first step approach lr * sign(g)
        p = make_params()
        before = p.copy()
        opt = enc.OptimizerState.for_params(p)
        enc.adam_step(opt, p, ones_grads(p, 2.0), lr=0.01, weight_decay=0.0)
        delta = before.weights[0] - p.weights[0]
        assert np.allclose(delta, 0.01, atol=1e-6)


class TestEma:
    def test_lambda_zero_bit_exact(self):
        mom, par = make_params(0), make_params(1)
        enc.ema_update(mom, par, 0.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(mom.arrays(), par.arrays()))

    def test_lambda_one_keeps_momentum(self):
        mom, par = make_params(0), make_params(1)
        before = mom.copy()
        enc.ema_update(mom, par, 1.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(mom.arrays(), before.arrays()))

    def test_interpolation(self):
        mom, par = make_params(0), make_params(1)
        expect = 0.25 * mom.weights[0] + 0.75 * par.weights[0]
        enc.ema_update(mom, par, 0.25)
        assert np.allclose(mom.weights[0], expect)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.99, 1.0])
    def test_in_place_equals_the_functional_formula(self, lam):
        # the momentum's own vector is written, the encoder's is not
        mom, par = make_params(0, (32, 64, 16)), make_params(1, (32, 64, 16))
        flat, par_before = mom.flat, par.flat.copy()
        for _ in range(3):
            expect = functional_ema_update(mom.flat, par.flat, lam)
            assert enc.ema_update(mom, par, lam) is None
            assert mom.flat is flat and mom.flat.tobytes() == expect.tobytes()
            assert par.flat.tobytes() == par_before.tobytes()

    def test_matches_per_array_reference(self):
        mom, par = make_params(0), make_params(1)
        ref = mom.arrays()
        for i, lam in enumerate((0.99, 0.9, 0.5, 0.99)):
            par = par.like(par.flat + grads_for(par, i).flat)
            ref = reference_ema_update(ref, par.arrays(), lam)
            enc.ema_update(mom, par, lam)
            assert all(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(mom.arrays(), ref, strict=True))

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
    return p.like(rng.standard_normal(p.flat.size))


def stepped(k):
    """Params and optimizer state after k Adam steps."""
    p = make_params()
    opt = enc.OptimizerState.for_params(p)
    for i in range(k):
        enc.adam_step(opt, p, grads_for(p, i), lr=0.002, weight_decay=0.0005)
    return p, opt


def _set_first(doc, key, value):
    doc[key][0] = value


def _nest(doc, key):
    """doc[key] as rows of two: the right count, not a flat list."""
    flat = doc[key]
    doc[key] = [flat[i:i + 2] for i in range(0, len(flat), 2)]


# each case edits a valid checkpoint document in place
BROKEN_DOC = {
    "version-1": lambda d: d.update(version=1),
    # no reader is kept for the per-layer format
    "version-2": lambda d: d.update(version=2),
    "missing-m": lambda d: d.pop("m"),
    "missing-step": lambda d: d.pop("step"),
    "missing-momentum": lambda d: d.pop("momentum"),
    "missing-dims": lambda d: d.pop("dims"),
    "step-not-a-count": lambda d: d.update(step=1.5),
    "config-not-an-object": lambda d: d.update(config=[]),
    "dims-not-a-list": lambda d: d.update(dims=8),
    # one width and empty vectors: no layer, though the sizes agree
    "no-layers": lambda d: d.update(dims=d["dims"][:1],
                                    **dict.fromkeys(enc.VECTORS, [])),
    # a last layer of width 0 adds no parameter, so the sizes agree
    "zero-width": lambda d: d["dims"].append(0),
    "boolean-width": lambda d: d["dims"].__setitem__(0, True),
    "text-width": lambda d: d["dims"].__setitem__(0, "8"),
    # widths of valid form whose size differs from the vectors'
    "dims-disagree": lambda d: d["dims"].__setitem__(-1, d["dims"][-1] + 1),
    "nan-in-v": lambda d: _set_first(d, "v", float("nan")),
    "inf-in-encoder": lambda d: _set_first(d, "encoder", float("inf")),
    "text-in-encoder": lambda d: _set_first(d, "encoder", "x"),
    "momentum-shape": lambda d: d["momentum"].pop(),
    "v-count": lambda d: d["v"].pop(),
    "m-shape": lambda d: _nest(d, "m"),
    "ragged-m": lambda d: (_nest(d, "m"), d["m"][0].pop()),
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
        assert p2.dims == m2.dims == p.dims
        pairs = list(zip([p.flat, m.flat, opt.m, opt.v],
                         [p2.flat, m2.flat, opt2.m, opt2.v]))
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
        enc.adam_step(opt, p, grads_for(p, k), lr=0.002, weight_decay=0.0005)
        p_straight, opt_straight = stepped(k + 1)
        assert opt.step == opt_straight.step == k + 1
        assert all(np.array_equal(a, b) for a, b in
                   zip([p.flat, opt.m, opt.v],
                       [p_straight.flat, opt_straight.m, opt_straight.v]))

    @pytest.mark.parametrize("shape", ["default", "refresh"])
    def test_bytes_equal_one_json_dump(self, tmp_path, shape):
        cfg = RunConfig()
        if shape == "refresh":
            cfg.generator.n_single_identities = 480
            cfg.generator.frames_per_identity = 16
            cfg.train.epochs = 10
            cfg.train.checkpoint_every = 1
        dims = (cfg.generator.dim, *trainer.HIDDEN, trainer.EMBED_DIM)
        p, m = make_params(0, dims), make_params(1, dims)
        opt = enc.OptimizerState.for_params(p)
        for i in range(3):
            enc.adam_step(opt, p, grads_for(p, i), lr=0.002,
                          weight_decay=0.0005)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, cfg.to_dict(), 7, p, m, opt)
        doc = {"format": "remix-ckpt", "version": 3,
               "config": cfg.to_dict(), "epoch": 7, "step": 3,
               "dims": list(dims), "encoder": p.flat.tolist(),
               "momentum": m.flat.tolist(), "m": opt.m.tolist(),
               "v": opt.v.tolist()}
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_header_fields(self, tmp_path):
        p = make_params()
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, {}, 0, p, p, enc.OptimizerState.for_params(p))
        doc = json.loads(path.read_text())
        assert doc["format"] == "remix-ckpt" and doc["version"] == 3
        assert list(doc) == ["format", "version", "config", "epoch", "step",
                             "dims", "encoder", "momentum", "m", "v"]
        assert doc["dims"] == list(p.dims)
        assert all(doc[k] == p.flat.tolist()
                   for k in ("encoder", "momentum"))

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
