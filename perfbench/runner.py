"""One benchmark run of one workload.

A run is a closed loop in one process and one thread: one caller drives the
library's public functions and waits for each result before the next call.

1. Untimed: make the inputs from the seed: a PGM image, or the grid vectors
   the checks compare against (the grid pass makes its own, as `hqvq bench`).
2. One timed pass of the whole codec (``pipeline_s``), stage by stage.
3. Rounds until ``seconds`` have passed since step 2 began, alternating a
   whole pass with an encode, each followed by repeats of set-up and decode.
   A timing metric is the median of its samples, each scaled to a reference
   machine speed by probes taken around it (see ``Timer``); the report keeps
   the raw and scaled samples' summaries.
4. Untimed checks: every encoded index against the ``nearest_many`` oracle
   (mismatches are the run's failed operations), the stream round trip, the
   decoded output against the oracle's reconstruction, and that repeats give
   identical results.

With ``traced`` the pass of step 2 runs with spans recorded (see spans.py),
and the repeats are untraced encodes, which give the tracing overhead.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from hqvq import codebook, encoder, image, kernels, neighborhood, pipeline
from hqvq.encoder import EncodePath
from spans import LAYERS, ROOT_LAYER, SpanTable, Tracer
from workloads import Workload, make_image

ROOT = Path(__file__).resolve().parents[1]
GRID_DELTA_HAT = 0.6  # delta_hat / delta0 on the grid workload, as `hqvq bench` uses

UNITS = {
    # end to end
    "setup_s": "s",
    "train_s": "s",
    "encode_blocks_per_s": "blocks/s",
    "decode_blocks_per_s": "blocks/s",
    "pipeline_s": "s",
    "grover_iters_per_block": "count",
    "classical_evals_per_block": "count",
    "fallback_frac": "share",
    "psnr_db": "dB",
    "mismatch_frac": "share",
    "peak_rss_mb": "MB",
    # per layer, from the traced pass
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "codebook.delta0_s": "s",
    "codebook.train.self_s": "s",
    "codebook.train.lloyd_iters": "count",
    "kernels.dist_to_all.calls": "count",
    "kernels.dist_to_all.self_s": "s",
    "kernels.nearest_many.calls": "count",
    "kernels.nearest_many.rows": "count",
    "kernels.nearest_many.self_s": "s",
    "kernels.min_pairwise.self_s": "s",
    "kernels.distance_evals": "count",
    "kernels.bytes_moved_computed": "bytes",
    "grover.measure.calls": "count",
    "grover.measure.self_s": "s",
    "grover.measure_calls_per_block": "count",
    "grover.derive_rng.self_s": "s",
    "grover.marked_set.self_s": "s",
    "neighborhood.build_s": "s",
    "neighborhood.mean_omega": "count",
    "neighborhood.max_omega": "count",
    "encoder.encode_us_p50": "us",
    "encoder.encode_us_p99": "us",
    "encoder.path_frac.sub1": "share",
    "encoder.path_frac.sub2": "share",
    "encoder.path_frac.fallback": "share",
    "encoder.sub1_success_ratio": "share",
    **{
        f"encoder.{meter}.{path}.{stat}": "count"
        for meter in ("grover_iters", "classical_evals")
        for path in ("sub1", "sub2", "fallback")
        for stat in ("p50", "p99", "max")
    },
    "encoder.choose_delta_hat_s": "s",
    "pipeline.encode_vectors.self_s": "s",
    "pipeline.serialize_s": "s",
    "pipeline.parse_s": "s",
    "pipeline.decode_s": "s",
    "image.blockify_s": "s",
    "image.pgm_io_s": "s",
}
# Units whose values depend only on the code and the seed, never on timing.
EXACT_UNITS = ("count", "share", "bytes", "dB")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
# Enough for a median, few enough to fit the run when the machine is slow.
MIN_SAMPLES = {"pipeline_s": 2, "train_s": 2, "setup_s": 3, "encode_s": 3, "decode_s": 20}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value; units in UNITS
    report: dict  # everything else the run recorded
    tracer: Tracer | None = None


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def against_oracle(self, indices: np.ndarray, oracle: np.ndarray) -> None:
        self.attempted += int(oracle.size)
        self.failed += int(np.count_nonzero(np.asarray(indices, dtype=np.int64) != oracle))


class Stopwatch:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self.t0 = self._last = perf_counter()

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self.stages[stage] = self.stages.get(stage, 0.0) + now - self._last
        self._last = now

    @property
    def total(self) -> float:
        return self._last - self.t0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    a = np.sort(np.asarray(values, dtype=np.float64))
    if a.size == 0:
        return 0.0
    return float(a[max(0, math.ceil(p / 100.0 * a.size) - 1)])


def summary(samples) -> dict:
    """Minimum, median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    tail = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100.0) >= 10), None)
    return {
        "min": min(samples),
        "median": median(samples),
        "tail_pct": tail,
        "tail": percentile(samples, tail) if tail is not None else None,
        "n": n,
    }


# The probe's fastest time on the machine the benchmark was written on: a
# 2-vCPU Xeon VM, Python 3.11, numpy 2.4. Samples are scaled to this speed.
PROBE_REF_S = 5.0e-3
_PROBE_POINTS = np.random.default_rng(0).normal(size=(256, 2))
_PROBE_QUERIES = np.random.default_rng(1).random((400, 2))


def probe_s() -> float:
    """The machine's speed now: best of three runs of a fixed numpy loop that uses no hqvq code."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for x in _PROBE_QUERIES:
            int(np.argmin(np.sqrt(((_PROBE_POINTS - x) ** 2).sum(axis=1))))
        best = min(best, perf_counter() - t0)
    return best


class Timer:
    """Times calls in bursts, and scales each burst to the reference speed.

    The host's speed changes by up to 1.8x, in spells from seconds to minutes,
    and the change slows the probe and the codec alike. So each burst's times
    are multiplied by PROBE_REF_S over the mean of the probes taken just before
    and just after it. The raw times are kept beside the scaled ones.
    """

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.probes = [probe_s()]

    def add(self, key: str, times: list[float], factor: float) -> None:
        self.raw.setdefault(key, []).extend(times)
        self.scaled.setdefault(key, []).extend(t * factor for t in times)

    def bracket(self, fn):
        """Run ``fn`` between two probes; returns (its result, the speed factor)."""
        before = self.probes[-1]
        out = fn()
        self.probes.append(probe_s())
        return out, PROBE_REF_S / ((before + self.probes[-1]) / 2)

    def burst(self, key: str, fn, budget_s: float, min_new: int = 1, check=None) -> None:
        """Time ``fn`` ``min_new`` times, then again while another call fits in ``budget_s``."""
        times, outs = [], []

        def run():
            t_end = perf_counter() + budget_s
            while len(times) < min_new or perf_counter() + times[-1] <= t_end:
                t0 = perf_counter()
                outs.append(fn())
                times.append(perf_counter() - t0)

        _, factor = self.bracket(run)
        self.add(key, times, factor)
        if check is not None:
            for out in outs:
                check(out)

    def count(self, key: str) -> int:
        return len(self.raw.get(key, ()))

    def median(self, key: str) -> float:
        return median(self.scaled[key])


def setup(w: Workload, cb_path: Path, blocks: np.ndarray | None, sw: Stopwatch | None = None):
    """Trained codebook on disk -> ready to encode: load, threshold, neighbor table."""
    cb = codebook.load_codebook(cb_path)
    if sw:
        sw.lap("load_codebook")
    if w.is_image:
        delta_hat = encoder.choose_delta_hat(cb, blocks)
        if sw:
            sw.lap("choose_delta_hat")
    else:
        delta_hat = GRID_DELTA_HAT * cb.delta0
    table = neighborhood.build_neighborhoods(cb, delta_hat)
    if sw:
        sw.lap("build_neighborhoods")
    return cb, delta_hat, table


def row_stream(cb, indices: np.ndarray) -> pipeline.IndexStream:
    """Vector indices as a one-row stream of k x 1 blocks, so the codec's decoder can read them."""
    return pipeline.IndexStream(
        n_codevectors=cb.n,
        block_w=cb.k,
        block_h=1,
        width=cb.k * indices.size,
        height=1,
        indices=indices.astype(np.uint16),
    )


@dataclass
class Pass:
    sw: Stopwatch
    cb: codebook.Codebook
    delta_hat: float
    table: object
    cfg: encoder.EncoderConfig
    indices: np.ndarray
    stats: object
    data: bytes
    stream: pipeline.IndexStream
    parsed: pipeline.IndexStream
    decoded: np.ndarray


def image_pass(w: Workload, geom, seed: int, files: dict) -> Pass:
    """What `hqvq train`, `hqvq encode` and `hqvq decode` do in turn."""
    sw = Stopwatch()
    img = image.load_pgm(files["pgm"])
    sw.lap("load_pgm")
    blocks = image.blockify(img, geom)
    sw.lap("blockify")
    trained = codebook.train_codebook(blocks, w.n_codevectors, seed=seed, max_iter=w.lloyd_iters)
    sw.lap("train")
    codebook.save_codebook(trained, files["codebook"])
    sw.lap("save_codebook")
    cb, delta_hat, table = setup(w, files["codebook"], blocks, sw)
    cfg = encoder.EncoderConfig(delta_hat=delta_hat, master_seed=seed)
    stream, stats = pipeline.encode_image(img, cb, table, cfg, geom)
    sw.lap("encode")
    data = pipeline.serialize_stream(stream)
    files["stream"].write_bytes(data)
    sw.lap("serialize")
    parsed = pipeline.parse_stream(files["stream"].read_bytes())
    sw.lap("parse")
    decoded = pipeline.decode_image(parsed, cb)
    sw.lap("decode")
    image.save_pgm(decoded, files["decoded"])
    sw.lap("save_pgm")
    return Pass(sw, cb, delta_hat, table, cfg, stream.indices, stats, data, stream, parsed, decoded)


def grid_pass(w: Workload, seed: int, files: dict) -> Pass:
    """What `hqvq bench` does for one size, with the codebook stored and
    loaded as in the image pass, then storing and decoding the indices."""
    sw = Stopwatch()
    made = pipeline.grid_codebook(w.n_codevectors)
    sw.lap("train")
    codebook.save_codebook(made, files["codebook"])
    sw.lap("save_codebook")
    cb, delta_hat, table = setup(w, files["codebook"], None, sw)
    vectors = pipeline.clustered_dataset(cb, delta_hat, w.n_vectors, seed=seed)
    sw.lap("clustered_dataset")
    cfg = encoder.EncoderConfig(delta_hat=delta_hat, master_seed=seed)
    indices, stats, _ = pipeline.encode_vectors(vectors, cb, table, cfg)
    sw.lap("encode")
    pipeline.report(stats, cb.n)
    sw.lap("report")
    stream = row_stream(cb, indices)
    data = pipeline.serialize_stream(stream)
    files["stream"].write_bytes(data)
    sw.lap("serialize")
    parsed = pipeline.parse_stream(files["stream"].read_bytes())
    sw.lap("parse")
    decoded = pipeline.decode_image(parsed, cb)
    sw.lap("decode")
    return Pass(sw, cb, delta_hat, table, cfg, indices, stats, data, stream, parsed, decoded)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def src_digest() -> str:
    h = sha256()
    for path in sorted((ROOT / "src" / "hqvq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "kernels_impl": kernels.ACTIVE_IMPL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "loop": "closed loop, 1 client, 1 thread",
    }


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, workdir: Path) -> Result:
    files = {name: workdir / name for name in ("pgm", "codebook", "stream", "decoded")}
    geom = image.BlockGeometry(block_w=w.block_w, block_h=w.block_h)
    # 1. inputs, untimed
    if w.is_image:
        img = make_image(w, seed)
        image.save_pgm(img, files["pgm"])
        blocks = image.blockify(img, geom)
    else:
        grid = pipeline.grid_codebook(w.n_codevectors)
        blocks = pipeline.clustered_dataset(grid, GRID_DELTA_HAT * grid.delta0, w.n_vectors, seed=seed)
        geom = image.BlockGeometry(block_w=grid.k, block_h=1)
    n_blocks = blocks.shape[0]

    def one_pass() -> Pass:
        return image_pass(w, geom, seed, files) if w.is_image else grid_pass(w, seed, files)

    # 2. the first pass; in a traced run, the traced one
    t_start = perf_counter()
    timer = Timer()
    tracer = None
    if traced:
        tracer = Tracer()

        def traced_pass() -> Pass:
            with tracer.installed(), tracer.span("bench.pass"):
                return one_pass()

        p, pass_factor = timer.bracket(traced_pass)
    else:
        p, pass_factor = timer.bracket(one_pass)
    cb, table, cfg = p.cb, p.table, p.cfg

    checks = Checks()
    oracle, _ = kernels.nearest_many(blocks, cb.vectors)
    checks.against_oracle(p.indices, oracle)
    checks.expect(p.parsed == p.stream, "parse_stream(serialize_stream(s)) != s")
    expected = image.deblockify(cb.vectors[oracle], geom, p.stream.width, p.stream.height)
    differs = np.any(image.blockify(p.decoded, geom) != image.blockify(expected, geom), axis=1)
    checks.expect(
        not np.any(differs & (p.indices == oracle)),
        "decoded blocks differ from the oracle reconstruction where the index matches",
    )

    def check_encode(out) -> None:
        indices, stats = out
        checks.against_oracle(indices, oracle)
        checks.expect(np.array_equal(indices, p.indices), "repeated encode changed an index")
        checks.expect(stats == p.stats, "repeated encode changed the metered counts")

    def check_pass(q: Pass) -> None:
        check_encode((q.indices, q.stats))
        checks.expect(q.delta_hat == p.delta_hat, "repeated pass changed delta_hat")
        checks.expect(q.data == p.data, "repeated pass changed the stream bytes")
        checks.expect(np.array_equal(q.decoded, p.decoded), "repeated pass changed the decoded output")

    def encode_once():
        if w.is_image:
            stream, stats = pipeline.encode_image(img, cb, table, cfg, geom)
            return stream.indices, stats
        indices, stats, _ = pipeline.encode_vectors(blocks, cb, table, cfg)
        return indices, stats

    def check_setup(out) -> None:
        _, s_delta_hat, s_table = out
        checks.expect(
            s_delta_hat == p.delta_hat and np.array_equal(s_table.sizes(), table.sizes()),
            "repeated set-up changed delta_hat or the neighbor table",
        )

    def check_decode(out) -> None:
        checks.expect(np.array_equal(out, p.decoded), "repeated decode changed the output")

    def record_pass(q: Pass, factor: float) -> None:
        timer.add("pipeline_s", [q.sw.total], factor)
        timer.add("train_s", [q.sw.stages["train"]], factor)
        timer.add("encode_s", [q.sw.stages["encode"]], factor)

    minimum = {"encode_s": 2} if traced else MIN_SAMPLES
    if not traced:
        record_pass(p, pass_factor)

    # 3. rounds until the deadline, alternating a whole pass with an encode.
    # Every round samples every stage, so each metric's samples spread over
    # the whole run rather than one spell of the machine's speed.
    round_s = {"pass": p.sw.total, "encode": 0.0}  # last duration of each kind
    encode_rounds = 0
    while True:
        t_round = perf_counter()
        kind = "pass" if not traced and timer.count("pipeline_s") <= encode_rounds else "encode"
        if t_round - t_start + round_s[kind] > seconds and all(
            timer.count(k) >= n for k, n in minimum.items()
        ):
            break
        if kind == "pass":
            q, factor = timer.bracket(one_pass)
            check_pass(q)
            record_pass(q, factor)
        else:
            timer.burst("encode_s", encode_once, 0.0, 1, check_encode)
            encode_rounds += 1
        if not traced:
            timer.burst("setup_s", lambda: setup(w, files["codebook"], blocks), 0.25, 1, check_setup)
            timer.burst("decode_s", lambda: pipeline.decode_image(pipeline.parse_stream(p.data), cb),
                        0.1, 5, check_decode)
            if not w.is_image:
                timer.burst("train_s", lambda: pipeline.grid_codebook(w.n_codevectors), 0.1)
        round_s[kind] = perf_counter() - t_round

    # 4. metrics
    stats = p.stats
    if w.is_image:
        quality = image.psnr(img, p.decoded)
    else:
        mse = float(((blocks - cb.vectors[p.indices]) ** 2).mean())
        peak = float(cb.vectors.max() - cb.vectors.min())
        quality = 10.0 * math.log10(peak * peak / mse)
    sizes = table.sizes()
    report = {
        "workload": w.name,
        "mode": "traced" if traced else "untraced",
        "environment": environment(seed),
        "inputs": {
            "N": cb.n,
            "k": cb.k,
            "blocks": n_blocks,
            "distinct_share": np.unique(blocks, axis=0).shape[0] / n_blocks,
            "frac_s": stats.a,
            "frac_t_minus_s": stats.b,
            "frac_i_minus_t": stats.c,
            "omega_mean": float(sizes.mean()),
            "omega_max": int(sizes.max()),
            "delta0": cb.delta0,
            "delta_hat": p.delta_hat,
            "lloyd_iters_cap": w.lloyd_iters if w.is_image else None,
        },
        "pass_stages_s": p.sw.stages,
        "probe_s": {"ref": PROBE_REF_S, **summary(timer.probes)},
        "samples_scaled": {k: summary(v) for k, v in timer.scaled.items()},
        "samples_raw": {k: summary(v) for k, v in timer.raw.items()},
        "raw_samples": timer.raw,
        "checks": checks.problems,
    }
    metrics = {
        "grover_iters_per_block": stats.mean_grover_iterations,
        "classical_evals_per_block": stats.mean_classical_evals,
        "fallback_frac": stats.count_fallback / stats.n_vectors,
        "psnr_db": quality,
        "mismatch_frac": checks.failed / checks.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        report["end_to_end_of_traced_run"] = metrics
        encode_span = "pipeline.encode_image" if w.is_image else "pipeline.encode_vectors"
        traced_encode_s = SpanTable(tracer).total_s(encode_span) * pass_factor
        metrics = layer_metrics(tracer, p, traced_encode_s / timer.median("encode_s"), n_blocks)
    else:
        metrics.update(
            setup_s=timer.median("setup_s"),
            train_s=timer.median("train_s"),
            encode_blocks_per_s=n_blocks / timer.median("encode_s"),
            decode_blocks_per_s=n_blocks / timer.median("decode_s"),
            pipeline_s=timer.median("pipeline_s"),
        )
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return Result(
        correct=not checks.problems,
        attempted=checks.attempted,
        failed=checks.failed,
        metrics=metrics,
        report=report,
        tracer=tracer,
    )


def layer_metrics(tracer: Tracer, p: Pass, encode_slowdown: float, n_blocks: int) -> dict:
    """Per-layer numbers from the traced pass; ``encode_slowdown`` is its encode's time over untraced ones."""
    tab = SpanTable(tracer)
    layers = tab.layer_self_s()
    _, _, outcomes = tracer.encode_vectors_result
    paths = np.array([o.path.value for o in outcomes])
    grover_iters = np.array([o.meter.grover_iterations for o in outcomes])
    classical = np.array([o.meter.classical_distance_evals for o in outcomes])
    encode_us = tab.durations("encoder.encode") * 1e6
    work = tracer.work
    m = {f"{layer}.self_s": layers[layer] for layer in LAYERS}
    m.update({
        "trace.unattributed_s": layers[ROOT_LAYER],
        "trace.wall_s": tab.total_s("bench.pass"),
        "trace.overhead_pct": 100.0 * (encode_slowdown - 1.0),
        "codebook.delta0_s": tab.total_under_s("kernels.min_pairwise", "codebook.load_codebook"),
        "codebook.train.self_s": tab.self_s("codebook.train_codebook"),
        "codebook.train.lloyd_iters": tab.count_under("kernels.nearest_many", "codebook.train_codebook"),
        "kernels.dist_to_all.calls": tab.count("kernels.dist_to_all"),
        "kernels.dist_to_all.self_s": tab.self_s("kernels.dist_to_all"),
        "kernels.nearest_many.calls": tab.count("kernels.nearest_many"),
        "kernels.nearest_many.rows": work["kernels.nearest_many"][0],
        "kernels.nearest_many.self_s": tab.self_s("kernels.nearest_many"),
        "kernels.min_pairwise.self_s": tab.self_s("kernels.min_pairwise"),
        "kernels.distance_evals": sum(w[1] for w in work.values()),
        "kernels.bytes_moved_computed": sum(w[2] for w in work.values()),
        "grover.measure.calls": tab.count("grover.measure"),
        "grover.measure.self_s": tab.self_s("grover.measure"),
        "grover.measure_calls_per_block": tab.count("grover.measure") / n_blocks,
        "grover.derive_rng.self_s": tab.self_s("grover.derive_rng"),
        "grover.marked_set.self_s": tab.self_s("grover.marked_set"),
        "neighborhood.build_s": tab.total_s("neighborhood.build_neighborhoods"),
        "neighborhood.mean_omega": float(p.table.sizes().mean()),
        "neighborhood.max_omega": int(p.table.sizes().max()),
        "encoder.encode_us_p50": percentile(encode_us, 50),
        "encoder.encode_us_p99": percentile(encode_us, 99),
        "encoder.sub1_success_ratio": float(np.count_nonzero(paths == "sub1")) / tab.count("encoder.encode_sub1"),
        "encoder.choose_delta_hat_s": tab.total_s("encoder.choose_delta_hat"),
        "pipeline.encode_vectors.self_s": tab.self_s("pipeline.encode_vectors"),
        "pipeline.serialize_s": tab.total_s("pipeline.serialize_stream"),
        "pipeline.parse_s": tab.total_s("pipeline.parse_stream"),
        "pipeline.decode_s": tab.total_s("pipeline.decode_image"),
        "image.blockify_s": tab.total_s("image.blockify"),
        "image.pgm_io_s": tab.total_s("image.load_pgm") + tab.total_s("image.save_pgm"),
    })
    for name in (path.value for path in EncodePath):
        on_path = paths == name
        m[f"encoder.path_frac.{name}"] = float(np.count_nonzero(on_path)) / paths.size
        for meter, values in (("grover_iters", grover_iters), ("classical_evals", classical)):
            v = values[on_path]
            m[f"encoder.{meter}.{name}.p50"] = percentile(v, 50)
            m[f"encoder.{meter}.{name}.p99"] = percentile(v, 99)
            m[f"encoder.{meter}.{name}.max"] = int(v.max()) if v.size else 0
    return m
