"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way.
"""
import numpy as np

from remix.errors import NoValidPositiveError

NOISE = -1


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

# --- the four ReMix losses as per-anchor loops ------------------------------


def _term_and_coeffs(z_target, z_rest):
    """log-softmax term plus d(term)/dz for target and rest entries."""
    pool = np.concatenate(([z_target], z_rest))
    mx = pool.max()
    e = np.exp(pool - mx)
    s = e.sum()
    term = float(z_target - (mx + np.log(s)))
    p = e / s
    return term, 1.0 - p[0], -p[1:]


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


def reference_instance_loss(view, tau_m, tau_s, cross_source_negatives=False):
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
            and (cross_source_negatives or view.multi[j] == view.multi[i])
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
