"""Datasets, synthetic generator with hidden ground truth, augmentation,
an epoch's one row space (LabelGroups.then) and the two-source PK sampler,
which draws an epoch's batches from it at once and gathers one per batch.

The generator stands in for real re-identification data: each identity is
a latent unit prototype, each camera (or video) applies a random affine
style map, and samples are noisy styled views of the prototypes. Target
domain uses a disjoint identity set and freshly drawn style maps, so
evaluation is strictly cross-domain.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import (InsufficientLabelsError, InvalidConfigError,
                     VersionMismatchError, ZeroVectorError)
from .numcore import NORM_FLOOR, atomic_write, normalize, substream

MULTI = "multi"
SINGLE = "single"

DATASET_FORMAT = "remix-ds"
DATASET_VERSION = 1


@dataclass(eq=False)
class PersonSample:
    sample_id: int
    features: np.ndarray
    identity: int | None  # None means unlabeled
    camera: int | None
    source: str  # MULTI | SINGLE
    video_id: int | None
    hidden_identity: int  # ground truth, evaluation-only

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.source == MULTI:
            if self.identity is None or self.camera is None \
                    or self.video_id is not None:
                raise InvalidConfigError("multi-camera sample needs identity "
                                         "and camera, and no video_id")
        elif self.source == SINGLE:
            if self.video_id is None or self.camera is not None \
                    or self.identity is not None:
                raise InvalidConfigError("single-camera sample needs "
                                         "video_id, and no identity or camera")
        else:
            raise InvalidConfigError(f"unknown source {self.source!r}")


@dataclass
class MultiCamDataset:
    samples: list[PersonSample]

    def __post_init__(self):
        ids: dict[int, int] = {}
        cams: set[int] = set()
        for s in self.samples:
            ids[s.identity] = ids.get(s.identity, 0) + 1
            cams.add(s.camera)
        if any(count < 2 for count in ids.values()):
            raise InvalidConfigError("every identity must appear in >= 2 samples")
        if set(ids) != set(range(len(ids))) or cams != set(range(len(cams))):
            raise InvalidConfigError("identity and camera ids must be dense from 0")

    def grouped(self) -> "LabelGroups":
        """The samples' features and cameras as arrays, rows grouped by
        identity. Built on each call; the dataset keeps no arrays."""
        identity = np.array([s.identity for s in self.samples])
        order = np.argsort(identity, kind="stable")
        return LabelGroups(
            np.stack([self.samples[i].features for i in order]),
            np.concatenate(([0], np.cumsum(np.bincount(identity)))),
            np.array([self.samples[i].camera for i in order]))


@dataclass
class SingleCamCorpus:
    videos: list[tuple[int, list[PersonSample]]]

    def __post_init__(self):
        if any(len(frames) == 0 for _, frames in self.videos):
            raise InvalidConfigError("videos must be non-empty")

    def grouped(self) -> "CorpusFrames":
        """The frames as arrays in corpus order; built on each call."""
        samples = [s for _, frames in self.videos for s in frames]
        start = np.cumsum([0] + [len(frames) for _, frames in self.videos])
        hidden = np.array([s.hidden_identity for s in samples])
        return CorpusFrames(np.array([s.features for s in samples]), start,
                            hidden, samples)


@dataclass
class CorpusFrames:
    """The corpus as arrays; samples[r] is the frame of row r, the corpus's
    own object, not a copy."""
    features: np.ndarray  # (N, D), video v in rows start[v]:start[v + 1]
    start: np.ndarray  # (V + 1,) first row of each video, then N
    hidden: np.ndarray  # (N,) hidden identity of each row, evaluation-only
    samples: list[PersonSample]


@dataclass
class LabelGroups:
    """Feature rows grouped by label, as the PK sampler draws them: the
    rows of label g are features[start[g]:start[g + 1]]."""
    features: np.ndarray  # (N, D), ordered by label
    start: np.ndarray  # (G + 1,) first row of each label, then N
    cameras: np.ndarray  # (N,) camera of each row, -1 for single-camera

    @property
    def n_labels(self) -> int:
        return len(self.start) - 1

    def labels(self) -> np.ndarray:
        """(N,) label of each row."""
        return np.repeat(np.arange(self.n_labels), np.diff(self.start))

    def then(self, other: "LabelGroups") -> "LabelGroups":
        """These rows, then other's, its labels numbered after these: the
        one place where a second source's labels get their offset."""
        return LabelGroups(np.concatenate([self.features, other.features]),
                           np.concatenate([self.start,
                                           self.start[-1] + other.start[1:]]),
                           np.concatenate([self.cameras, other.cameras]))


@dataclass
class GeneratorConfig:
    dim: int = 32
    n_identities: int = 60
    n_cameras: int = 4
    samples_per_id_per_cam: int = 3
    n_single_identities: int = 120
    n_videos: int = 30
    frames_per_identity: int = 8
    n_target_identities: int = 40
    n_target_cameras: int = 4
    target_samples_per_id_per_cam: int = 3
    sigma_cam: float = 0.6  # source camera style strength
    sigma_video: float = 0.2  # wild video style strength
    sigma_shift: float = 0.1  # style translation strength
    sigma_frame: float = 0.02  # per-frame isotropic noise
    style_pool: int = 8  # distortion directions shared by all style maps
    multi_subspace_dim: int = 6  # labeled identities live in this subspace
    domain_shift: float = 1.5  # scales target style strength

    def validate(self) -> None:
        for f in fields(self):  # counts from 1, scales from 0
            low = 1 if f.type == "int" else 0
            if getattr(self, f.name) < low:
                raise InvalidConfigError(f"generator.{f.name} must be >= {low}")
        if self.samples_per_id_per_cam * self.n_cameras < 2:
            raise InvalidConfigError("each identity needs >= 2 samples")
        # a target query needs a gallery item of its identity on another
        # camera
        if min(self.n_target_cameras, self.target_samples_per_id_per_cam) < 2:
            raise InvalidConfigError("the target needs >= 2 cameras and >= 2 "
                                     "samples per identity per camera")
        if self.multi_subspace_dim > self.dim:
            raise InvalidConfigError("multi_subspace_dim must be <= dim")
        # videos take ceil(n / v) identities each, in order; the last one
        # must still get one
        n, v = self.n_single_identities, self.n_videos
        per_video = -(-n // v)
        if per_video * (v - 1) >= n:
            raise InvalidConfigError("need at least one identity per video")
        # and are made orthogonal in R^dim, which holds at most dim of them
        if per_video > self.dim:
            raise InvalidConfigError(
                f"generator.n_single_identities / generator.n_videos, rounded "
                f"up ({per_video}), must be <= generator.dim ({self.dim})")


def _style_basis(rng: np.random.Generator, dim: int, n: int):
    # displacement direction is unit, response vector keeps gaussian scale
    # so a style's distortion norm on unit input is about sigma
    return [(normalize(rng.standard_normal(dim)),
             rng.standard_normal(dim)) for _ in range(n)]


def _style_map(rng: np.random.Generator, dim: int, sigma: float, shift: float,
               basis):
    """Random affine style: identity plus gaussian-weighted rank-1
    distortions drawn from the world's shared direction pool.

    Every camera and video is a point in the pool's coefficient space.
    """
    a = np.eye(dim)
    for u, v in basis:
        c = rng.standard_normal()
        a += (sigma / np.sqrt(len(basis))) * c * np.outer(u, v)
    b = shift * rng.standard_normal(dim) / np.sqrt(dim)
    return a, b


def _simplexify(protos: list[np.ndarray]) -> list[np.ndarray]:
    """Spread a small prototype set onto a regular simplex (pairwise cosine
    -1/(k-1)), so identities sharing a video repel rather than collide."""
    ortho: list[np.ndarray] = []
    for p in protos:
        v = p.copy()
        for q in ortho:
            v -= np.dot(v, q) * q
        ortho.append(normalize(v))
    if len(ortho) < 2:
        return ortho
    center = np.mean(ortho, axis=0)
    return [normalize(q - center) for q in ortho]


def _views(protos: np.ndarray, styles, per: int, rng: np.random.Generator,
           sigma_frame: float) -> list[np.ndarray]:
    """`per` unit views of each prototype row under each (a, b) style, in
    (prototype, style, view) order, noise drawn as one block in that order.
    Stacked mat-vecs and row dots equal each row's `a @ p` and 1-D norm bit
    for bit; the axis-1 norm does not. Own arrays: a kept view pins no block."""
    d = len(styles[0][1])
    v = np.stack([np.matmul(a, protos[:, :, None])[:, :, 0] + b
                  for a, b in styles], axis=1).reshape(-1, d)
    v = np.repeat(v, per, axis=0)
    v = v + sigma_frame * rng.standard_normal(v.shape)
    norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    if np.any(norms <= NORM_FLOOR):
        raise ZeroVectorError(f"cannot normalize view with norm {norms.min():g}")
    return [row.copy() for row in v / norms[:, None]]


def _multicam(protos, cams, per, hidden_base, rng, sigma_frame) -> MultiCamDataset:
    """`per` styled views of each prototype y on each camera, sample ids
    from 0 in (identity, camera) order, hidden identity hidden_base + y."""
    views = _views(np.array(protos), cams, per, rng, sigma_frame)
    n = len(cams) * per
    return MultiCamDataset(
        [PersonSample(sid, v, sid // n, sid % n // per, MULTI, None,
                      hidden_base + sid // n)
         for sid, v in enumerate(views)])


def synth_generate(
    cfg: GeneratorConfig, seed: int
) -> tuple[MultiCamDataset, SingleCamCorpus, MultiCamDataset]:
    """Build (multi-camera train, single-camera corpus, held-out target)."""
    cfg.validate()
    rng = substream(seed, "generator")
    d = cfg.dim

    # --- multi-camera training domain. Labeled identities are confined to
    # a random subspace: the curated set never shows some appearance
    # directions, while the unlabeled corpus and the target do. Training on
    # labels alone leaves the encoder unconstrained off this subspace.
    q, _ = np.linalg.qr(rng.standard_normal((d, cfg.multi_subspace_dim)))
    protos = [normalize(q @ rng.standard_normal(cfg.multi_subspace_dim))
              for _ in range(cfg.n_identities)]
    pool = _style_basis(rng, d, cfg.style_pool)
    cams = [_style_map(rng, d, cfg.sigma_cam, cfg.sigma_shift, pool)
            for _ in range(cfg.n_cameras)]
    multi = _multicam(protos, cams, cfg.samples_per_id_per_cam, 0, rng,
                      cfg.sigma_frame)

    # --- single-camera corpus: each hidden identity in exactly one video,
    # one fresh style map per video
    s_protos = [normalize(rng.standard_normal(d)) for _ in range(cfg.n_single_identities)]
    hidden_base = cfg.n_identities
    videos = []
    sid = 0
    per_video = int(np.ceil(cfg.n_single_identities / cfg.n_videos))
    for v in range(cfg.n_videos):
        a, b = _style_map(rng, d, cfg.sigma_video, cfg.sigma_shift, pool)
        lo = v * per_video
        hi = min((v + 1) * per_video, cfg.n_single_identities)
        views = _views(np.array(_simplexify(s_protos[lo:hi])), [(a, b)],
                       cfg.frames_per_identity, rng, cfg.sigma_frame)
        frames = [PersonSample(sid + i, f, None, None, SINGLE, v,
                               hidden_base + lo + i // cfg.frames_per_identity)
                  for i, f in enumerate(views)]
        sid += len(frames)
        videos.append((v, frames))
    corpus = SingleCamCorpus(videos)

    # --- target domain: disjoint identities, fresh styles
    t_protos = [normalize(rng.standard_normal(d)) for _ in range(cfg.n_target_identities)]
    t_sigma = cfg.sigma_cam * cfg.domain_shift
    t_cams = [_style_map(rng, d, t_sigma, cfg.sigma_shift * cfg.domain_shift,
                         pool)
              for _ in range(cfg.n_target_cameras)]
    target = _multicam(t_protos, t_cams, cfg.target_samples_per_id_per_cam,
                       hidden_base + cfg.n_single_identities, rng,
                       cfg.sigma_frame)
    return multi, corpus, target


def augment(
    features: np.ndarray,
    rng: np.random.Generator,
    sigma_aug: float,
    p_drop: float,
) -> np.ndarray:
    """Vector-space augmentation: additive noise then coordinate dropout."""
    x = np.asarray(features, dtype=np.float64)
    out = x + sigma_aug * rng.standard_normal(x.shape)
    if p_drop > 0:
        out = out * (rng.random(x.shape) >= p_drop)
    return out


def _camera_diverse(groups: LabelGroups, lo: np.ndarray, size: np.ndarray,
                    n_k: int, rng: np.random.Generator) -> np.ndarray:
    """(len(lo), n_k) rows: for each picked label, with first row lo and
    row count size, the first n_k of its camera-diverse order, which
    repeats from its start when the label has fewer rows. The order:
    each row gets a random rank among its label's rows on its camera; rows
    sort by rank, and rows of equal rank (one per camera) in random order.
    So no camera gives its k-th row before every camera has given k - 1
    rows, or all it has."""
    first = np.cumsum(size) - size
    slot = np.repeat(np.arange(len(lo)), size)
    pos = np.arange(len(slot))
    rows = lo[slot] + pos - first[slot]
    cams = groups.cameras[rows]
    # an integer key plus a draw below 1/2 sorts by key, ties by the draw
    u, v = rng.random((2, len(rows))) / 2
    pair = slot * (int(cams.max()) + 1) + cams  # (label, camera)
    by_pair = np.argsort(pair + u)
    rank = np.empty_like(pos)
    rank[by_pair] = pos - np.searchsorted(pair[by_pair], pair[by_pair])
    order = rows[np.argsort(slot * (int(rank.max()) + 1) + rank + v)]
    return order[first[:, None] + np.arange(n_k) % size[:, None]]


def _distinct(size: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row i, r.shape[1] distinct positions below size[i] (at least
    that many), from the uniform draws r by Floyd's subset algorithm, so
    the cost does not grow with size."""
    k = r.shape[1]
    out = np.empty(r.shape, dtype=np.int64)
    for j in range(k):
        m = size - k + j  # draw from 0..m; m itself if the draw is taken
        t = (r[:, j] * (m + 1)).astype(np.int64)
        out[:, j] = np.where((out[:, :j] == t[:, None]).any(axis=1), m, t)
    return out


@dataclass
class EpochDraws:
    """An epoch of PK batches as indices into one row space, no features:
    batch it is groups.features[rows[it]], multi-camera rows first, and
    labels[it] and cameras[it] are those rows' labels and cameras."""
    groups: LabelGroups
    rows: np.ndarray  # (iters, B) rows of groups
    labels: np.ndarray  # (iters, B)
    cameras: np.ndarray  # (iters, B) camera, -1 for single-camera rows


def draw_epoch(
    groups: LabelGroups,
    sizes: tuple[int, int, int, int],
    iters: int,
    rng: np.random.Generator,
) -> EpochDraws:
    """`iters` batches of PK sampling from both sources of one row space,
    drawn at once: sizes = (N_P^m, N_K^m, N_P^s, N_K^s). Labels whose rows
    have camera >= 0 are identities and come first, the rest pseudo labels.
    A batch takes N_P distinct labels of a source, the N_P smallest of one
    uniform draw per label, so every N_P-subset is equally likely. An
    identity gives N_K^m rows in camera-diverse order (`_camera_diverse`).
    A pseudo label gives N_K^s rows drawn without replacement when it has
    that many, with replacement otherwise. A source of N_P = 0 is skipped."""
    np_m, nk_m, np_s, nk_s = sizes
    n_m = int(np.count_nonzero(groups.cameras[groups.start[:-1]] >= 0))
    parts = []  # per source, (iters, P * K) rows
    for multi, start, n_p, n_k in ((True, groups.start[:n_m + 1], np_m, nk_m),
                                   (False, groups.start[n_m:], np_s, nk_s)):
        n_labels = len(start) - 1
        if n_p == 0:
            continue
        if n_labels < n_p:
            raise InsufficientLabelsError(
                f"need {n_p} {'multi-camera' if multi else 'pseudo'} labels, "
                f"have {n_labels}")
        picked = np.argpartition(rng.random((iters, n_labels)), n_p - 1,
                                 axis=1)[:, :n_p].ravel()
        lo = start[picked]
        size = start[picked + 1] - lo
        if multi:
            rows = _camera_diverse(groups, lo, size, n_k, rng)
        else:
            r = rng.random((iters * n_p, n_k))
            rows = lo[:, None] + np.where(size[:, None] >= n_k,
                                          _distinct(size, r),
                                          (r * size[:, None]).astype(np.int64))
        parts.append(rows.reshape(iters, -1))
    rows = np.hstack(parts)
    return EpochDraws(groups, rows, groups.labels()[rows], groups.cameras[rows])


def compose_batch(draws: EpochDraws, it: int) -> np.ndarray:
    """The (B, D) features of batch `it` of an epoch's draws, its rows
    gathered; its labels and cameras are row `it` of the draws'."""
    return draws.groups.features[draws.rows[it]]


# --- line-delimited dataset files -----------------------------------------


def _sample_record(s: PersonSample) -> dict:
    return {
        "sample_id": s.sample_id,
        "features": s.features.tolist(),
        "identity": s.identity,
        "camera": s.camera,
        "video_id": s.video_id,
        "source": s.source,
        "hidden_identity": s.hidden_identity,
    }


def save_dataset(path, samples: Iterable[PersonSample], dim: int) -> int:
    """Write a header line and one line per sample, atomically."""
    n = 0
    with atomic_write(path) as fh:
        fh.write(json.dumps({"format": DATASET_FORMAT, "version": DATASET_VERSION,
                             "dim": dim}) + "\n")
        for s in samples:
            fh.write(json.dumps(_sample_record(s)) + "\n")
            n += 1
    return n


_ID_TYPES = {int, type(None)}


def load_samples(path) -> tuple[list[PersonSample], int]:
    """Read a dataset file. A header dim that is no JSON integer >= 1, a
    truncated line, a missing key, a repeated sample_id, a wrong feature
    count, a boolean or non-finite feature or one beyond the float range,
    an id field that is not an integer or fields that make no valid sample
    raise VersionMismatchError naming the file and the 1-based line."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            if header.get("format") != DATASET_FORMAT \
                    or header.get("version") != DATASET_VERSION:
                raise VersionMismatchError(
                    f"bad dataset header in {path}: {header}")
            dim = header["dim"]
            if type(dim) is not int or dim < 1:
                raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
            samples = []
            seen: set[int] = set()
            for lineno, line in enumerate(fh, start=2):
                r = json.loads(line)
                sid, values = r["sample_id"], r["features"]
                features = np.array(values, dtype=np.float64)
                if features.shape != (dim,):
                    raise ValueError("record dimension disagrees with header")
                if bool in map(type, values):  # np.array takes true as 1.0
                    raise ValueError("boolean feature")
                # a sum is finite only if every term is; an overflowing sum
                # of finite terms gets the exact check
                if not math.isfinite(sum(values)) \
                        and not np.isfinite(features).all():
                    raise ValueError("non-finite feature")
                ident, cam, vid = r["identity"], r["camera"], r["video_id"]
                hidden = r["hidden_identity"]
                # JSON integers; null only where PersonSample allows it
                if type(sid) is not int or type(hidden) is not int \
                        or not {type(ident), type(cam), type(vid)} <= _ID_TYPES:
                    raise ValueError("id fields must be integers")
                if sid in seen:
                    raise ValueError(f"repeated sample_id {sid}")
                seen.add(sid)
                samples.append(PersonSample(sid, features, ident, cam,
                                            r["source"], vid, hidden))
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError, InvalidConfigError) as exc:
            raise VersionMismatchError(
                f"malformed dataset {path} line {lineno}: {exc!r}") from exc
    return samples, dim


def _samples_of(path, source: str) -> list[PersonSample]:
    """load_samples, raising VersionMismatchError at the first record of
    another source: a multi-camera file never loads as a corpus."""
    samples, _ = load_samples(path)
    for lineno, s in enumerate(samples, start=2):
        if s.source != source:
            raise VersionMismatchError(f"dataset {path} line {lineno}: "
                                       f"{s.source} record, want {source}")
    return samples


def load_multicam(path) -> MultiCamDataset:
    """An identity of one sample, or identity or camera ids that are not
    dense from 0, raise VersionMismatchError naming the file."""
    samples = _samples_of(path, MULTI)
    try:
        return MultiCamDataset(samples)
    except InvalidConfigError as exc:
        raise VersionMismatchError(f"malformed dataset {path}: {exc}") from exc


def load_corpus(path) -> SingleCamCorpus:
    samples = _samples_of(path, SINGLE)
    vids: dict[int, list[PersonSample]] = {}
    for s in samples:
        vids.setdefault(s.video_id, []).append(s)
    return SingleCamCorpus([(v, vids[v]) for v in sorted(vids)])
