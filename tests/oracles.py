"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way.
"""
import numpy as np

from remix.encoder import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from remix.errors import NoValidPositiveError
from remix.losses import TERMS, CentroidBank, total_loss
from remix.numcore import normalize_rows

NOISE = -1


def term_alone(view, name):
    """Term `name` of TERMS alone, (loss, dL/df): the package's one pass at
    the term's one-hot weights."""
    _, grads, parts = total_loss(view, [float(n == name) for n in TERMS])
    return parts[name], grads


def reference_dbscan(points, eps, min_pts):
    """Brute-force reference: connected components of core points, border
    points joining the lowest-numbered cluster that reaches them. Cluster
    numbering follows ascending order of each cluster's first core point."""
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    dist = 1.0 - np.clip(x @ x.T, -1.0, 1.0)
    neigh = dist <= eps
    core = neigh.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and neigh[i, j]:
                parent[find(i)] = find(j)

    roots = {}
    labels = np.full(n, NOISE, dtype=np.int64)
    for i in range(n):
        if core[i]:
            r = find(i)
            if r not in roots:
                roots[r] = len(roots)
            labels[i] = roots[r]
    for i in range(n):
        if not core[i]:
            owners = [labels[j] for j in np.nonzero(neigh[i])[0] if core[j]]
            if owners:
                labels[i] = min(owners)
    return labels


def reference_neighbours(points, eps):
    """dbscan's neighbour mask the direct way: the distances 1 - clip(s, -1,
    1) of the general product (the transposed copy keeps numpy off its
    symmetric one), the test `<= eps`, and a pair kept only if it passes
    both ways, which takes a transposed copy of the mask."""
    x = np.asarray(points, dtype=np.float64)
    neigh = 1.0 - np.clip(x @ x.T.copy(), -1.0, 1.0) <= eps
    neigh &= neigh.T
    return neigh


def reference_build_centroids(embeddings, labels, cameras):
    """build_centroids with every sum taken by np.add.at, which adds the
    rows into their label's (or label and camera's) sum one at a time, in
    row order."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cameras = np.asarray(cameras)
    counts = np.bincount(labels)
    sums = np.zeros((len(counts), embeddings.shape[1]))
    np.add.at(sums, labels, embeddings)
    label_centroids = normalize_rows(sums / counts[:, None])
    has_cam = cameras >= 0
    y, c = labels[has_cam], cameras[has_cam]
    shape = (int(y.max(initial=-1)) + 1, int(c.max(initial=-1)) + 1)
    cam_sums = np.zeros(shape + (embeddings.shape[1],))
    np.add.at(cam_sums, (y, c), embeddings[has_cam])
    cam_counts = np.bincount(y * shape[1] + c, minlength=np.prod(shape))
    present = cam_counts.reshape(shape) > 0
    cam_sums[present] = normalize_rows(cam_sums[present]
                                       / cam_counts[cam_counts > 0][:, None])
    return CentroidBank(label_centroids, cam_sums, present)


def reference_purity(labels, hidden):
    """Cluster purity from a dict of hidden-identity counts per pseudo
    label: each cluster's largest count, summed, over the frame count."""
    clusters = {}
    for pl, h in zip(labels, hidden):
        clusters.setdefault(pl, []).append(h)
    weighted = 0.0
    total = 0
    for members in clusters.values():
        counts = {}
        for h in members:
            counts[h] = counts.get(h, 0) + 1
        weighted += max(counts.values())
        total += len(members)
    return weighted / total


def oracle_ap(sims, rel):
    """Average precision from the definition: precision at each relevant
    rank of the stable descending-similarity ordering."""
    order = np.argsort(-np.asarray(sims), kind="stable")
    ranked = np.asarray(rel)[order]
    hits = 0
    precisions = []
    for rank, is_rel in enumerate(ranked, start=1):
        if is_rel:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions))



def reference_rankings(q_embs, q_ids, q_cams, g_embs, g_ids, g_cams):
    """Per query: (1-based rank of the first correct match, average
    precision), from a stable descending sort of the query's gallery row
    with every item sharing the query's identity and camera taken out, so
    that ties keep ascending gallery index."""
    q_ids, q_cams = np.asarray(q_ids), np.asarray(q_cams)
    g_ids, g_cams = np.asarray(g_ids), np.asarray(g_cams)
    sims = np.asarray(q_embs) @ np.asarray(g_embs).T
    first, aps = [], []
    for qi in range(len(q_ids)):
        valid = ~((g_ids == q_ids[qi]) & (g_cams == q_cams[qi]))
        v_idx = np.nonzero(valid)[0]
        rel = g_ids[v_idx] == q_ids[qi]
        if not rel.any():
            raise NoValidPositiveError(f"query {qi} has no valid positive")
        ranked = rel[np.argsort(-sims[qi, v_idx], kind="stable")]
        first.append(int(np.argmax(ranked)) + 1)
        prec = np.cumsum(ranked) / np.arange(1, len(ranked) + 1)
        aps.append(float(prec[ranked].sum() / ranked.sum()))
    return np.array(first), np.array(aps)


# --- the optimizer step and EMA, one array at a time -----------------------


def reference_adam_step(params, grads, m, v, step, lr, weight_decay):
    """Adam with decoupled weight decay, one array at a time. params,
    grads, m and v are lists of arrays in the same order; returns the new
    params, m and v lists."""
    t = step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    new_p, new_m, new_v = [], [], []
    for p, g, m_a, v_a in zip(params, grads, m, v):
        m_a = ADAM_BETA1 * m_a + (1.0 - ADAM_BETA1) * g
        v_a = ADAM_BETA2 * v_a + (1.0 - ADAM_BETA2) * g * g
        m_hat = m_a / bc1
        v_hat = v_a / bc2
        new_p.append(p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                               + weight_decay * p))
        new_m.append(m_a)
        new_v.append(v_a)
    return new_p, new_m, new_v


def reference_ema_update(momentum, params, lam):
    """lam * momentum + (1 - lam) * params, one array at a time."""
    return [lam * m + (1.0 - lam) * e for m, e in zip(momentum, params)]


def functional_adam_step(p, g, m, v, step, lr, weight_decay):
    """The flat Adam step as a copy-returning function, formula for
    formula: returns the new p, m and v vectors, the inputs untouched."""
    t = step + 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_p = p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)
    return new_p, m, v


def functional_ema_update(momentum, params, lam):
    """The flat EMA as a copy-returning function: a new vector."""
    return lam * momentum + (1.0 - lam) * params


# --- the four ReMix losses as per-anchor loops ------------------------------


def _term_and_coeffs(z_target, z_rest):
    """log-softmax term plus d(term)/dz for target and rest entries. The
    target's 1 - softmax is the rest's share of the pool, summed: taken as
    1.0 - p[0] it cancels to 0 once the target holds all but 1e-16."""
    pool = np.concatenate(([z_target], z_rest))
    mx = pool.max()
    e = np.exp(pool - mx)
    s = e.sum()
    term = float(z_target - (mx + np.log(s)))
    p = e / s
    return term, p[1:].sum(), -p[1:]


def reference_contrastive(f, proxies, pos, neg, tau, shared_pool):
    """The kernel's contract, pair by pair: anchor i scores each positive j
    against the pool {j} plus its rest (the negatives, or every positive and
    negative when shared_pool is set), averages -log softmax over its
    positives, and the loss averages over anchors with a positive."""
    grads = np.zeros_like(f)
    total = 0.0
    anchors = 0
    for i in range(len(f)):
        positives = np.nonzero(pos[i])[0]
        if len(positives) == 0:
            continue
        rest_mask = (pos[i] | neg[i]) if shared_pool else neg[i]
        z = f[i] @ proxies.T / tau[i]
        inv = 1.0 / len(positives)
        for j in positives:
            rest = [k for k in np.nonzero(rest_mask)[0] if k != j]
            term, c_t, c_n = _term_and_coeffs(z[j], z[rest])
            total -= term * inv
            scale = -inv / tau[i]
            grads[i] += scale * c_t * proxies[j]
            if rest:
                grads[i] += scale * (c_n @ proxies[rest])
        anchors += 1
    if anchors == 0:
        return 0.0, grads
    return total / anchors, grads / anchors


def reference_instance_loss(view, tau_m, tau_s):
    b = view.size
    sims = view.f @ view.m.T
    grads = np.zeros_like(view.f)
    total = 0.0
    for i in range(b):
        tau = tau_m if view.multi[i] else tau_s
        pos = [j for j in range(b) if view.labels[j] == view.labels[i]]
        neg = [
            j for j in range(b)
            if view.labels[j] != view.labels[i]
            and view.multi[j] == view.multi[i]
        ]
        z_neg = sims[i, neg] / tau
        anchor_loss = 0.0
        inv = 1.0 / len(pos)
        for j in pos:
            term, c_t, c_n = _term_and_coeffs(sims[i, j] / tau, z_neg)
            anchor_loss -= term * inv
            scale = -inv / tau
            grads[i] += scale * c_t * view.m[j]
            if neg:
                grads[i] += scale * (c_n @ view.m[neg])
        total += anchor_loss
    return total / b, grads / b


def reference_augmentation_loss(view, tau_aug):
    b = view.size
    sims = view.f @ view.m.T
    grads = np.zeros_like(view.f)
    total = 0.0
    for i in range(b):
        neg = [j for j in range(b) if view.labels[j] != view.labels[i]]
        term, c_t, c_n = _term_and_coeffs(sims[i, i] / tau_aug,
                                          sims[i, neg] / tau_aug)
        total -= term
        scale = -1.0 / tau_aug
        grads[i] += scale * c_t * view.m[i]
        if neg:
            grads[i] += scale * (c_n @ view.m[neg])
    return total / b, grads / b


def reference_centroids_loss(view, bank, tau_m, tau_s):
    batch_labels = list(dict.fromkeys(view.labels.tolist()))
    cents = np.stack([bank.label_centroids[k] for k in batch_labels])
    pos_index = {k: idx for idx, k in enumerate(batch_labels)}
    sims = view.f @ cents.T
    grads = np.zeros_like(view.f)
    total = 0.0
    for i in range(view.size):
        tau = tau_m if view.multi[i] else tau_s
        t = pos_index[int(view.labels[i])]
        rest = [j for j in range(len(batch_labels)) if j != t]
        term, c_t, c_n = _term_and_coeffs(sims[i, t] / tau, sims[i, rest] / tau)
        total -= term
        scale = -1.0 / tau
        grads[i] += scale * c_t * cents[t]
        if rest:
            grads[i] += scale * (c_n @ cents[rest])
    return total / view.size, grads / view.size


def reference_camera_centroids_loss(view, bank, tau_cc):
    """Each positive's pool is every proxy, the other positives included."""
    multi_labels = {int(y) for y, m in zip(view.labels, view.multi) if m}
    bank_keys = [(y, c) for y in range(bank.camera_present.shape[0])
                 for c in range(bank.camera_present.shape[1])
                 if bank.camera_present[y, c]]
    grads = np.zeros_like(view.f)
    total = 0.0
    contributing = 0
    for i in range(view.size):
        if not view.multi[i]:
            continue
        y, cam = int(view.labels[i]), int(view.cameras[i])
        pos_keys = [k for k in bank_keys if k[0] == y and k[1] != cam]
        if not pos_keys:
            continue
        neg_keys = [k for k in bank_keys
                    if k[0] != y and k[0] in multi_labels]
        proxies = np.stack([bank.camera_centroids[k]
                            for k in pos_keys + neg_keys])
        z = (view.f[i] @ proxies.T) / tau_cc
        n_pos = len(pos_keys)
        inv = 1.0 / n_pos
        for t in range(n_pos):
            rest = [j for j in range(len(z)) if j != t]
            term, c_t, c_n = _term_and_coeffs(z[t], z[rest])
            total -= term * inv
            scale = -inv / tau_cc
            grads[i] += scale * c_t * proxies[t]
            if rest:
                grads[i] += scale * (c_n @ proxies[rest])
        contributing += 1
    if contributing == 0:
        return 0.0, grads
    return total / contributing, grads / contributing


# --- the synthetic generator, one styled view at a time ---------------------


def reference_synth_generate(cfg, seed):
    """synth_generate with one mat-vec, one noise draw and one 1-D norm per
    sample, in the generator's draw order."""
    from remix.datamodel import (MULTI, SINGLE, MultiCamDataset, PersonSample,
                                 SingleCamCorpus, _simplexify, _style_basis,
                                 _style_map)
    from remix.numcore import normalize, substream

    cfg.validate()
    rng = substream(seed, "generator")
    d = cfg.dim

    def styled(proto, a, b):
        return normalize(a @ proto + b
                         + cfg.sigma_frame * rng.standard_normal(proto.shape))

    def multicam(protos, cams, per, hidden_base):
        samples = []
        for y, proto in enumerate(protos):
            for c, (a, b) in enumerate(cams):
                for _ in range(per):
                    samples.append(PersonSample(
                        len(samples), styled(proto, a, b), y, c, MULTI, None,
                        hidden_base + y))
        return MultiCamDataset(samples)

    q, _ = np.linalg.qr(rng.standard_normal((d, cfg.multi_subspace_dim)))
    protos = [normalize(q @ rng.standard_normal(cfg.multi_subspace_dim))
              for _ in range(cfg.n_identities)]
    pool = _style_basis(rng, d, cfg.style_pool)
    cams = [_style_map(rng, d, cfg.sigma_cam, cfg.sigma_shift, pool)
            for _ in range(cfg.n_cameras)]
    multi = multicam(protos, cams, cfg.samples_per_id_per_cam, 0)

    s_protos = [normalize(rng.standard_normal(d))
                for _ in range(cfg.n_single_identities)]
    hidden_base = cfg.n_identities
    videos = []
    sid = 0
    per_video = int(np.ceil(cfg.n_single_identities / cfg.n_videos))
    for v in range(cfg.n_videos):
        a, b = _style_map(rng, d, cfg.sigma_video, cfg.sigma_shift, pool)
        lo = v * per_video
        hi = min((v + 1) * per_video, cfg.n_single_identities)
        frames = []
        for off, proto in enumerate(_simplexify(s_protos[lo:hi])):
            for _ in range(cfg.frames_per_identity):
                frames.append(PersonSample(sid, styled(proto, a, b), None,
                                           None, SINGLE, v,
                                           hidden_base + lo + off))
                sid += 1
        videos.append((v, frames))
    corpus = SingleCamCorpus(videos)

    t_protos = [normalize(rng.standard_normal(d))
                for _ in range(cfg.n_target_identities)]
    t_cams = [_style_map(rng, d, cfg.sigma_cam * cfg.domain_shift,
                         cfg.sigma_shift * cfg.domain_shift, pool)
              for _ in range(cfg.n_target_cameras)]
    target = multicam(t_protos, t_cams, cfg.target_samples_per_id_per_cam,
                      hidden_base + cfg.n_single_identities)
    return multi, corpus, target
