"""In-memory span tracer that wraps remix's public functions at the
attributes their callers look up.

Nothing inside `remix` is edited. Each entry of CALL_SITES names a module
attribute that some caller resolves at call time, so replacing it with a
traced wrapper records every call made through that site. The same
function reached through two sites gets two span names; that is how
`encoder.forward_batch` is split by caller.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field

from remix import datamodel, encoder, evalkit, losses, pseudolabel, trainer

# (module, attribute, span name). The module is the one whose global (or
# module attribute) the caller resolves, not the one defining the function.
CALL_SITES = [
    (trainer, "train", "trainer.train"),
    (trainer, "run_epoch", "trainer.run_epoch"),
    (trainer, "compose_batch", "datamodel.compose_batch"),
    (trainer, "augment", "datamodel.augment"),
    (trainer, "build_centroids", "losses.build_centroids"),
    (trainer, "total_loss", "losses.total_loss"),
    (trainer, "pseudo_label_epoch", "pseudolabel.pseudo_label_epoch"),
    (losses, "instance_loss", "losses.instance_loss"),
    (losses, "augmentation_loss", "losses.augmentation_loss"),
    (losses, "centroids_loss", "losses.centroids_loss"),
    (losses, "camera_centroids_loss", "losses.camera_centroids_loss"),
    (encoder, "forward_batch", "encoder.forward_batch.train"),
    (encoder, "backward_batch", "encoder.backward_batch"),
    (encoder, "adam_step", "encoder.adam_step"),
    (encoder, "ema_update", "encoder.ema_update"),
    (encoder, "save_checkpoint", "encoder.save_checkpoint"),
    (pseudolabel, "forward_batch", "encoder.forward_batch.pseudolabel"),
    (pseudolabel, "dbscan", "pseudolabel.dbscan"),
    (evalkit, "forward_batch", "encoder.forward_batch.evalkit"),
    (evalkit, "evaluate", "evalkit.evaluate"),
    (evalkit, "cluster_purity", "evalkit.cluster_purity"),
    (evalkit, "cmc_rank_k", "evalkit.cmc_rank_k"),
    (evalkit, "mean_ap", "evalkit.mean_ap"),
    (datamodel, "synth_generate", "datamodel.synth_generate"),
    (datamodel, "save_dataset", "datamodel.save_dataset"),
    (datamodel, "load_samples", "datamodel.load_samples"),
]

SPAN_NAMES = [name for _, _, name in CALL_SITES]

# spans whose first argument is the path of the file the call writes
WRITES_FILE = {"datamodel.save_dataset", "encoder.save_checkpoint"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    bytes_written: dict[str, int] = field(default_factory=dict)
    pools: list = field(default_factory=list)  # pseudo_label_epoch results
    reports: list[dict] = field(default_factory=list)  # evaluate results
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            # keep the bookkeeping cheap: it runs inside the parent span
            if name in WRITES_FILE:
                self.bytes_written[name] = (self.bytes_written.get(name, 0)
                                            + os.path.getsize(args[0]))
            elif name == "pseudolabel.pseudo_label_epoch":
                self.pools.append(out)
            elif name == "evalkit.evaluate":
                self.reports.append(out)
            return out
        return traced

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        out = {name: 0.0 for name in SPAN_NAMES}
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def write(self, path, rep: int) -> None:
        """Append this tracer's spans as JSON lines tagged with `rep`."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"rep": rep, "id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


@contextlib.contextmanager
def patched(sites, make_wrapper):
    """Replace each (module, attribute, name) site with
    make_wrapper(name, current function); restore them all on exit. A site
    the program no longer has is skipped, and its span records no calls."""
    sites = [site for site in sites if hasattr(site[0], site[1])]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    try:
        for mod, attr, name in sites:
            setattr(mod, attr, make_wrapper(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def traced(tracer: Tracer):
    """Install tracer wrappers at every call site for the with-block."""
    return patched(CALL_SITES, tracer.wrap)
