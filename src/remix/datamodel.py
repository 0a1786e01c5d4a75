"""Datasets, synthetic generator with hidden ground truth, augmentation,
and the two-source PK mini-batch sampler.

The generator stands in for real re-identification data: each identity is
a latent unit prototype, each camera (or video) applies a random affine
style map, and samples are noisy styled views of the prototypes. Target
domain uses a disjoint identity set and freshly drawn style maps, so
evaluation is strictly cross-domain.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientLabelsError, InvalidConfigError, VersionMismatchError
from .numcore import atomic_write, normalize, substream

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
            if self.identity is None or self.camera is None:
                raise InvalidConfigError("multi-camera sample needs identity and camera")
        elif self.source == SINGLE:
            if self.video_id is None or self.camera is not None:
                raise InvalidConfigError("single-camera sample needs video_id and no camera")
        else:
            raise InvalidConfigError(f"unknown source {self.source!r}")


@dataclass
class MultiCamDataset:
    samples: list[PersonSample]

    @classmethod
    def from_samples(cls, samples: Sequence[PersonSample]) -> "MultiCamDataset":
        ids: dict[int, int] = {}
        cams: set[int] = set()
        for s in samples:
            ids[s.identity] = ids.get(s.identity, 0) + 1
            cams.add(s.camera)
        if any(count < 2 for count in ids.values()):
            raise InvalidConfigError("every identity must appear in >= 2 samples")
        if set(ids) != set(range(len(ids))) or cams != set(range(len(cams))):
            raise InvalidConfigError("identity and camera ids must be dense from 0")
        return cls(list(samples))

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


@dataclass
class MiniBatch:
    features: np.ndarray  # (B, D) raw features, multi-camera rows first
    labels: np.ndarray  # (B,) identity, or number of identities + pseudo label
    multi: np.ndarray  # (B,) True for multi-camera rows
    cameras: np.ndarray  # (B,) camera, -1 for single-camera rows


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
        counts = (
            self.dim,
            self.n_identities,
            self.n_cameras,
            self.samples_per_id_per_cam,
            self.n_single_identities,
            self.n_videos,
            self.frames_per_identity,
            self.n_target_identities,
            self.n_target_cameras,
            self.target_samples_per_id_per_cam,
        )
        if any(int(c) <= 0 for c in counts):
            raise InvalidConfigError("generator counts must be positive")
        if self.samples_per_id_per_cam * self.n_cameras < 2:
            raise InvalidConfigError("each identity needs >= 2 samples")
        if min(self.sigma_cam, self.sigma_video, self.sigma_shift,
               self.sigma_frame, self.domain_shift) < 0:
            raise InvalidConfigError("noise scales must be >= 0")
        if self.style_pool < 1:
            raise InvalidConfigError("style_pool must be >= 1")
        if not 1 <= self.multi_subspace_dim <= self.dim:
            raise InvalidConfigError("multi_subspace_dim must be in [1, dim]")
        if self.n_single_identities < self.n_videos:
            raise InvalidConfigError("need at least one identity per video")


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
    A handful of cameras samples that space too sparsely to reveal its
    structure, while many videos cover it, so only broad exposure yields
    invariance that transfers to unseen styles.
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


def _styled(proto, a, b, rng, sigma_frame):
    v = a @ proto + b + sigma_frame * rng.standard_normal(proto.shape)
    return normalize(v)


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
    multi_samples = []
    sid = 0
    for y, proto in enumerate(protos):
        for c, (a, b) in enumerate(cams):
            for _ in range(cfg.samples_per_id_per_cam):
                multi_samples.append(
                    PersonSample(sid, _styled(proto, a, b, rng, cfg.sigma_frame),
                                 y, c, MULTI, None, hidden_identity=y)
                )
                sid += 1
    multi = MultiCamDataset.from_samples(multi_samples)

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
        video_protos = _simplexify(s_protos[lo:hi])
        frames = []
        for off, proto in enumerate(video_protos):
            for _ in range(cfg.frames_per_identity):
                frames.append(
                    PersonSample(sid, _styled(proto, a, b, rng, cfg.sigma_frame),
                                 None, None, SINGLE, v,
                                 hidden_identity=hidden_base + lo + off)
                )
                sid += 1
        videos.append((v, frames))
    corpus = SingleCamCorpus(videos)

    # --- target domain: disjoint identities, fresh styles
    t_protos = [normalize(rng.standard_normal(d)) for _ in range(cfg.n_target_identities)]
    t_sigma = cfg.sigma_cam * cfg.domain_shift
    t_cams = [_style_map(rng, d, t_sigma, cfg.sigma_shift * cfg.domain_shift,
                         pool)
              for _ in range(cfg.n_target_cameras)]
    t_base = hidden_base + cfg.n_single_identities
    target_samples = []
    sid = 0
    for y, proto in enumerate(t_protos):
        for c, (a, b) in enumerate(t_cams):
            for _ in range(cfg.target_samples_per_id_per_cam):
                target_samples.append(
                    PersonSample(sid, _styled(proto, a, b, rng, cfg.sigma_frame),
                                 y, c, MULTI, None, hidden_identity=t_base + y)
                )
                sid += 1
    target = MultiCamDataset.from_samples(target_samples)
    return multi, corpus, target


def augment(
    features: np.ndarray,
    rng: np.random.Generator,
    sigma_aug: float = 0.05,
    p_drop: float = 0.1,
) -> np.ndarray:
    """Vector-space augmentation: additive noise then coordinate dropout."""
    x = np.asarray(features, dtype=np.float64)
    out = x + sigma_aug * rng.standard_normal(x.shape)
    if p_drop > 0:
        out = out * (rng.random(x.shape) >= p_drop)
    return out


def _pick_labels(groups: LabelGroups, n_p: int, rng: np.random.Generator,
                 what: str):
    """n_p distinct labels drawn with one choice, with each one's first row
    and row count."""
    if groups.n_labels < n_p:
        raise InsufficientLabelsError(
            f"need {n_p} {what} labels, have {groups.n_labels}")
    picked = rng.choice(groups.n_labels, size=n_p, replace=False)
    lo = groups.start[picked]
    return picked, lo, groups.start[picked + 1] - lo


def _camera_diverse(groups: LabelGroups, lo: np.ndarray, size: np.ndarray,
                    n_k: int, rng: np.random.Generator) -> np.ndarray:
    """(P, n_k) rows: the first n_k of each label's camera-diverse order,
    which repeats from its start when the label has fewer rows. The order:
    each row gets a random rank among its label's rows on its camera; rows
    sort by rank, and rows of equal rank (one per camera) in random order.
    So no camera gives its k-th row before every camera has given k - 1
    rows, or all it has."""
    first = np.cumsum(size) - size
    slot = np.repeat(np.arange(len(lo)), size)
    pos = np.arange(len(slot))
    rows = lo[slot] + pos - first[slot]
    cams = groups.cameras[rows]
    u, v = rng.random((2, len(rows)))
    pair = slot * (int(cams.max()) + 1) + cams  # (label, camera)
    by_pair = np.lexsort((u, pair))
    rank = np.empty_like(pos)
    rank[by_pair] = pos - np.searchsorted(pair[by_pair], pair[by_pair])
    order = rows[np.lexsort((v, rank, slot))]
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


def compose_batch(
    multi: LabelGroups,
    single: LabelGroups | None,
    sizes: tuple[int, int, int, int],
    rng: np.random.Generator,
) -> MiniBatch:
    """PK sampling from both sources: sizes = (N_P^m, N_K^m, N_P^s, N_K^s).
    An identity gives N_K^m rows in camera-diverse order (`_camera_diverse`).
    A pseudo label gives N_K^s rows drawn without replacement when it has
    that many, with replacement otherwise, and is labelled
    multi.n_labels + its label."""
    np_m, nk_m, np_s, nk_s = sizes
    parts = []  # (source, labels, (P, K) rows)
    if np_m > 0:
        picked, lo, size = _pick_labels(multi, np_m, rng, "multi-camera")
        parts.append((multi, picked, _camera_diverse(multi, lo, size, nk_m, rng)))
    if np_s > 0:
        picked, lo, size = _pick_labels(single, np_s, rng, "pseudo")
        r = rng.random((np_s, nk_s))
        k = np.where(size[:, None] >= nk_s, _distinct(size, r),
                     (r * size[:, None]).astype(np.int64))
        parts.append((single, multi.n_labels + picked, lo[:, None] + k))
    return MiniBatch(
        np.concatenate([src.features[t.ravel()] for src, _, t in parts]),
        np.concatenate([np.repeat(y, t.shape[1]) for _, y, t in parts]),
        np.concatenate([np.full(t.size, src is multi) for src, _, t in parts]),
        np.concatenate([src.cameras[t.ravel()] for src, _, t in parts]))


# --- line-delimited dataset files -----------------------------------------


def _sample_record(s: PersonSample) -> dict:
    return {
        "sample_id": s.sample_id,
        "features": [float(x) for x in s.features],
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


def load_samples(path) -> tuple[list[PersonSample], int]:
    """Read a dataset file. A truncated line, a missing key, a repeated
    sample_id, a wrong feature count, a non-finite feature or fields that
    make no valid sample raise VersionMismatchError naming the file and the
    1-based line."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            if header.get("format") != DATASET_FORMAT \
                    or header.get("version") != DATASET_VERSION:
                raise VersionMismatchError(
                    f"bad dataset header in {path}: {header}")
            dim = int(header["dim"])
            samples = []
            seen: set[int] = set()
            for lineno, line in enumerate(fh, start=2):
                r = json.loads(line)
                sid, values = r["sample_id"], r["features"]
                features = np.array(values, dtype=np.float64)
                if features.shape != (dim,):
                    raise ValueError("record dimension disagrees with header")
                # a sum is finite only if every term is; an overflowing sum
                # of finite terms gets the exact check
                if not math.isfinite(sum(values)) \
                        and not np.isfinite(features).all():
                    raise ValueError("non-finite feature")
                if sid in seen:
                    raise ValueError(f"repeated sample_id {sid}")
                seen.add(sid)
                samples.append(PersonSample(
                    sid, features, r["identity"], r["camera"], r["source"],
                    r["video_id"], r["hidden_identity"]))
        except (AttributeError, KeyError, TypeError, ValueError,
                InvalidConfigError) as exc:
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
    return MultiCamDataset.from_samples(_samples_of(path, MULTI))


def load_corpus(path) -> SingleCamCorpus:
    samples = _samples_of(path, SINGLE)
    vids: dict[int, list[PersonSample]] = {}
    for s in samples:
        vids.setdefault(s.video_id, []).append(s)
    return SingleCamCorpus([(v, vids[v]) for v in sorted(vids)])
