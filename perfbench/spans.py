"""In-memory span recorder for the traced run.

Spans are recorded from outside the library: while a ``Tracer`` is installed,
the public functions in ``WRAPPED`` are replaced, in the module where their
caller looks them up, by wrappers that open and close a span. Each span keeps
its name, start, end, parent and the ordinal of the block being encoded (-1
outside the per-block loop). Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter_ns

import numpy as np

from hqvq import codebook, encoder, image, kernels, neighborhood, pipeline

LAYERS = ("image", "codebook", "kernels", "grover", "neighborhood", "encoder", "pipeline")
ROOT_LAYER = "bench"  # the benchmark's own code: reported as unattributed


def _dist_to_all_work(x, vectors):
    n, k = vectors.shape
    return 1, n, 8 * (n * k + k + n)


def _nearest_many_work(queries, vectors):
    m, (n, k) = queries.shape[0], vectors.shape
    return m, m * n, 8 * (m * k + n * k + 2 * m)


def _min_pairwise_work(vectors):
    n, k = vectors.shape
    return n, n * (n - 1) // 2, 8 * (n * k + 1)


# (module, attribute, span name, work function). The module is the one whose
# code looks the name up: encoder imports measure, marked_set_from_distances
# and full_search by name; pipeline imports encode, derive_rng,
# distances_to_codebook, blockify and deblockify by name; kernels are read as
# module attributes. The work function gives (rows, distance evaluations,
# bytes) from the arguments' sizes, so those counts are computed, not measured.
WRAPPED = (
    (kernels, "dist_to_all", "kernels.dist_to_all", _dist_to_all_work),
    (kernels, "nearest_many", "kernels.nearest_many", _nearest_many_work),
    (kernels, "min_pairwise", "kernels.min_pairwise", _min_pairwise_work),
    (encoder, "measure", "grover.measure", None),
    (encoder, "marked_set_from_distances", "grover.marked_set", None),
    (pipeline, "derive_rng", "grover.derive_rng", None),
    (encoder, "full_search", "codebook.full_search", None),
    (pipeline, "distances_to_codebook", "codebook.distances_to_codebook", None),
    (codebook, "train_codebook", "codebook.train_codebook", None),
    (codebook, "save_codebook", "codebook.save_codebook", None),
    (codebook, "load_codebook", "codebook.load_codebook", None),
    (encoder, "encode_sub1", "encoder.encode_sub1", None),
    (encoder, "encode_sub2", "encoder.encode_sub2", None),
    (pipeline, "encode", "encoder.encode", None),
    (encoder, "choose_delta_hat", "encoder.choose_delta_hat", None),
    (neighborhood, "build_neighborhoods", "neighborhood.build_neighborhoods", None),
    (pipeline, "encode_vectors", "pipeline.encode_vectors", None),
    (pipeline, "encode_image", "pipeline.encode_image", None),
    (pipeline, "serialize_stream", "pipeline.serialize_stream", None),
    (pipeline, "parse_stream", "pipeline.parse_stream", None),
    (pipeline, "decode_image", "pipeline.decode_image", None),
    (pipeline, "grid_codebook", "pipeline.grid_codebook", None),
    (pipeline, "clustered_dataset", "pipeline.clustered_dataset", None),
    (pipeline, "report", "pipeline.report", None),
    (pipeline, "blockify", "image.blockify", None),
    (pipeline, "deblockify", "image.deblockify", None),
    (image, "blockify", "image.blockify", None),
    (image, "load_pgm", "image.load_pgm", None),
    (image, "save_pgm", "image.save_pgm", None),
)


class Tracer:
    """Append-only span store; single-threaded, like the benchmark loop."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ordinal = array("i")
        self._stack: list[int] = []
        self.block = -1
        self.work: dict[str, list[int]] = {}  # span name -> [rows, evals, bytes]
        self.encode_vectors_result = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ordinal.append(self.block)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn, work=None):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        if work is not None:
            totals = self.work.setdefault(name, [0, 0, 0])

            def wrapper(*args, **kwargs):
                for j, v in enumerate(work(*args, **kwargs)):
                    totals[j] += v
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)

        elif name == "grover.derive_rng":

            def wrapper(master_seed, ordinal):
                self.block = ordinal
                i = open_(nid)
                try:
                    return fn(master_seed, ordinal)
                finally:
                    close(i)

        elif name == "pipeline.encode_vectors":

            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    self.encode_vectors_result = fn(*args, **kwargs)
                    return self.encode_vectors_result
                finally:
                    close(i)
                    self.block = -1

        else:

            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every function in WRAPPED by its traced wrapper, then restore."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for mod, attr, name, work in WRAPPED:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), work))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            ordinal=np.frombuffer(self.ordinal, dtype=np.int32),
        )


class SpanTable:
    """Per-name totals over recorded spans; self time excludes child spans."""

    def __init__(self, tracer: Tracer):
        if tracer._stack:
            raise RuntimeError("spans still open")
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.dur = (end - start) / 1e9
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        nnames = len(self.names)
        self._count = np.bincount(self.name, minlength=nnames)
        self._total = np.bincount(self.name, weights=self.dur, minlength=nnames)
        self._self = np.bincount(self.name, weights=self.self_time, minlength=nnames)
        self._ids = {n: i for i, n in enumerate(self.names)}

    def count(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self._count[i])

    def total_s(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._total[i])

    def self_s(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._self[i])

    def durations(self, name: str) -> np.ndarray:
        i = self._ids.get(name)
        return self.dur[self.name == i] if i is not None else np.empty(0)

    def _under(self, name: str, parent_name: str) -> np.ndarray:
        """Mask of ``name`` spans whose direct parent is a ``parent_name`` span."""
        i, p = self._ids.get(name), self._ids.get(parent_name)
        if i is None or p is None:
            return np.zeros(self.name.size, dtype=bool)
        mask = (self.name == i) & (self.parent >= 0)
        mask[mask] = self.name[self.parent[mask]] == p
        return mask

    def total_under_s(self, name: str, parent_name: str) -> float:
        return float(self.dur[self._under(name, parent_name)].sum())

    def count_under(self, name: str, parent_name: str) -> int:
        return int(self._under(name, parent_name).sum())

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
        for i, n in enumerate(self.names):
            out[n.split(".", 1)[0]] += float(self._self[i])
        return out
