"""The benchmark's workloads: inputs from a seed, the measured run, checks.

Why each workload exists:

* ``train_dense`` — the float64, dense, uniform-schedule trainer: the
  bit-exact reference path and the pipeline the paper profiles.  Grid
  encode plus the bincount scatter take about three quarters of its step.
  It bypasses occupancy, compaction, the COO scatter and the tile
  scheduler, so it is the "should not move" side for changes to those
  layers.
* ``train_fast`` — the deployed fast path at the same shape: float32,
  occupancy culling with sample compaction, sparse (COO) grid updates with
  lazy Adam, the occupancy tile schedule and address sorting.  It exercises
  every layer ``train_dense`` skips, and shows the sort inside the sparse
  scatter that makes this path slower than the dense one.
* ``serve_mixed`` — the multi-tenant scene service with one worker under
  burst load: a fixed number of rounds, each a burst of render requests
  (one test view each) over three scenes with skewed popularity and room
  for only two resident trainers, plus a train job of the popular scene,
  all enqueued at once and then collected.  The queue depth lets the
  service coalesce same-scene renders into real batches.  It exercises
  forward-only grid reads, request coalescing, queueing and eviction
  checkpoint I/O, none of which the train workloads touch.

All three run ``Instant3DConfig.paper_scale_instant3d()`` (16 levels,
2^15-entry tables, S_C = 0.25 S_D, F_C = 0.5 F_D) at 1024 rays x 48
samples on 32x32 procedural NeRF-Synthetic-like scenes.  The fast and
serving configs start occupancy updates at iteration 2 instead of 16, so
the culled path is reached within a run's time budget (sixteen
uncompacted sparse steps alone would take about 35 s).

The workload seed picks the order of the train workloads' test-view
renders and, in the serving rounds, which test view each render asks for.
The scenes, their popularity and the trainer seed (model initialisation
and pixel-draw order) are fixed (see ``TRAIN_SCENE`` and
``TRAINER_SEED``).  The program receives only the
generated inputs.  Scene synthesis and serving warm-up are input
generation and are not timed.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import DecoupledRadianceField, Instant3DConfig, Trainer
from repro.datasets import nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig
from repro.nerf.losses import mse_to_psnr, psnr
from repro.serving import RenderJob, ResidencyManager, SceneService, TrainJob
from repro.training import WorkloadScale, build_iteration_workload
from repro.training.metrics import evaluate_model, render_view
from repro.training.profiler import PipelineStep

import report
import spans

#: End-to-end metrics (every workload reports all of them) and their units.
END_TO_END = {
    "setup_s": "s", "train_s": "s", "step_ms_p50": "ms",
    "step_ms_tail": "ms", "psnr_db": "dB", "peak_rss_mb": "MB",
    "render_ms_p50": "ms", "render_ms_tail": "ms", "train_job_ms_p50": "ms",
    "goodput_rps": "1/s", "render_psnr_db": "dB", "ok_frac": "fraction",
}

BRANCHES = ("density", "color")

#: Per-layer metrics of a traced run and their units.  ``*_ms`` values are
#: self time per work unit: a training step (train workloads) or a
#: completed job (serve_mixed).
PER_LAYER = {
    **{f"grid.{op}_ms.{b}": "ms" for op in ("encode", "backward")
       for b in BRANCHES},
    **{f"grid.points.{b}": "count" for b in BRANCHES},
    **{f"grid.computed_bytes.{b}": "B" for b in BRANCHES},
    **{f"grid.computed_gbps.{b}": "GB/s" for b in BRANCHES},
    **{f"grid.touched_rows.{b}": "count" for b in BRANCHES},
    **{f"grid.unique_write_ratio.{b}": "fraction" for b in BRANCHES},
    **{f"mlp.{op}_ms.{b}": "ms" for op in ("forward", "backward")
       for b in BRANCHES},
    "render.forward_ms": "ms", "render.backward_ms": "ms",
    "loss.mse_ms": "ms",
    "scheduling.sample_batch_ms": "ms",
    "sampling.stage_samples_ms": "ms",
    "occupancy.cull_ms": "ms", "occupancy.update_ms": "ms",
    "occupancy.keep_fraction": "fraction",
    "pipeline.cull_ms": "ms", "pipeline.gather_ms": "ms",
    "pipeline.composite_ms": "ms", "pipeline.backward_to_points_ms": "ms",
    **{f"optim.step_ms.{b}": "ms" for b in BRANCHES},
    "trainer.step_ms": "ms", "trainer.self_ms": "ms",
    "workspace.hit_rate": "fraction", "workspace.misses": "count",
    "workspace.bytes": "B",
    "service.queue_wait_ms_p50": "ms", "service.batch_size_mean": "count",
    "service.coalesced_share": "fraction", "service.retries": "count",
    "service.shed": "count",
    "batching.render_coalesced_ms": "ms",
    "residency.checkout_ms": "ms", "residency.evictions": "count",
    "io.save_ms": "ms", "io.load_ms": "ms", "io.checkpoint_bytes": "B",
    "trace.overhead_pct": "%", "trace.spans": "count", "trace.units": "count",
}

#: Span name of each per-unit self-time metric.
_SELF_MS = {
    **{f"grid.{op}_ms.{b}": f"grid.{op}.{b}" for op in ("encode", "backward")
       for b in BRANCHES},
    **{f"mlp.{op}_ms.{b}": f"mlp.{op}.{b}" for op in ("forward", "backward")
       for b in BRANCHES},
    **{f"optim.step_ms.{b}": f"optim.step.{b}" for b in BRANCHES},
    "render.forward_ms": "render.forward",
    "render.backward_ms": "render.backward",
    "loss.mse_ms": "loss.mse",
    "scheduling.sample_batch_ms": "scheduling.sample_batch",
    "sampling.stage_samples_ms": "sampling.stage_samples",
    "occupancy.cull_ms": "occupancy.cull",
    "occupancy.update_ms": "occupancy.update",
    "pipeline.cull_ms": "pipeline.cull",
    "pipeline.gather_ms": "pipeline.gather",
    "pipeline.composite_ms": "pipeline.composite",
    "pipeline.backward_to_points_ms": "pipeline.backward_to_points",
    "trainer.self_ms": "trainer.step",
    "batching.render_coalesced_ms": "batching.render_coalesced",
    "residency.checkout_ms": "residency.checkout",
    "io.save_ms": "io.save",
    "io.load_ms": "io.load",
}

#: The scenes are fixed per workload.  Drawing them from the seed swung
#: the figures between seeds by more than the bounds allow: test PSNR after
#: the train_dense window ranged 12.4-14.9 dB across chair, drums, lego and
#: materials, and the serving latency median moved with the scenes' culled
#: render cost.
TRAIN_SCENE = "lego"
#: Serving scenes and their render popularity.  The mix is an assumption,
#: not taken from a measured trace or a cited source: one hot scene, one
#: warm, one rare enough that each of its requests forces an eviction
#: under the two-scene cap.  The skew is fixed: a seeded popularity order
#: moved the latency median with the mix of cheap and expensive scenes
#: (239-329 ms across five seeds).  Train jobs refine the most popular
#: scene, which therefore stays resident.
SERVE_SCENES = {"chair": 0.65, "lego": 0.3, "materials": 0.05}
#: Seed of every trainer (model initialisation and pixel-draw order), so
#: that psnr_db of unchanged code reads the same on every run and its bound
#: can be tight.  Seeded trainers spread it too widely for a quality gate:
#: with the model initialisation fixed and only the pixel order seeded,
#: five seeds gave 14.1-14.7 dB on train_dense and 12.9-14.0 dB on
#: train_fast.
TRAINER_SEED = 0

#: A render request meets the service's latency limit within this time.
#: A serve_mixed round drains in about 2.5 s on a 2-core x86-64 machine,
#: so every render of a healthy round meets it, also when the machine runs
#: half again slower, and goodput is the served render rate.
LATENCY_LIMIT_MS = 8000.0
#: Largest served-vs-direct render difference allowed (float32 tolerance;
#: the two paths differ only in matmul chunking).
RENDER_ATOL = 1e-4


@dataclass(frozen=True)
class Size:
    """Input scale: ``paper`` for measurement, ``tiny`` for the tests."""

    name: str
    image_size: int
    train_views: int
    test_views: int
    #: Test-view renders in a train run, at least (spread over its window).
    eval_renders: int
    base: Instant3DConfig
    #: Seconds of one step at seed, per train workload (sets the step count).
    nominal_step_s: Dict[str, float]
    #: Seconds of one serve_mixed round at seed (sets the round count).
    nominal_round_s: float
    #: Lowest acceptable test-view PSNR after a run.
    psnr_floor_db: float


SIZES = {
    "paper": Size("paper", 32, 4, 2, 28,
                  replace(Instant3DConfig.paper_scale_instant3d(),
                          batch_pixels=1024),
                  {"train_dense": 0.75, "train_fast": 1.4}, 2.0, 10.0),
    "tiny": Size("tiny", 8, 2, 1, 2,
                 replace(Instant3DConfig.paper_scale_instant3d(),
                         grid=HashGridConfig(n_levels=2, log2_hashmap_size=8,
                                             base_resolution=4,
                                             finest_resolution=16),
                         mlp_hidden_width=8, batch_pixels=32,
                         n_samples_per_ray=8),
                 {"train_dense": 0.05, "train_fast": 0.05}, 1.0, 5.0),
}

_TRAIN_OVERRIDES = {
    "train_dense": dict(compute_dtype="float64", ray_schedule="uniform"),
    "train_fast": dict(compute_dtype="float32", culling_enabled=True,
                       sparse_updates=True, ray_schedule="occupancy",
                       address_sort=True, occupancy_warmup_iterations=2),
}
_SERVE_OVERRIDES = dict(compute_dtype="float32", culling_enabled=True,
                        occupancy_warmup_iterations=2)

#: Steps each train workload runs before its window: iteration 0 is the
#: set-up step, and the window starts on a whole color-update cycle.  On
#: the fast path, occupancy updates at iterations 2, 10 and 18 change the
#: step cost: iterations 2-9 cost about 0.7 of 10-17.  A 14-step window from
#: iteration 2 held four cheap cycles and three dear ones, so its median
#: cycle was the slowest cheap one and moved 12 % between seeds; from
#: iteration 6 it holds two cheap cycles and five at the later cost, and
#: the median falls among those.
WINDOW_START = 6
#: Fresh trainers built only to time set-up (and check the trajectory).
EXTRA_SETUPS = 2
#: Steps those trainers run: both step kinds (with and without the color
#: update) on the float64 reference, one step on the slower fast path.
CHECK_STEPS = {"train_dense": 2, "train_fast": 1}

SERVE_RESIDENT = 2
#: Requests per serving round: (train jobs, render requests).
SERVE_ROUND = (1, 6)
#: Steps per train job: one whole color-update cycle, so every job does the
#: same work (one-step jobs alternate between two step costs).
SERVE_TRAIN_STEPS = 2
SERVE_WARM_STEPS = 3            # past the first occupancy update


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def config_for(workload: str, size: Size) -> Instant3DConfig:
    overrides = (_SERVE_OVERRIDES if workload == "serve_mixed"
                 else _TRAIN_OVERRIDES[workload])
    return replace(size.base, **overrides)


def _datasets(names, size: Size):
    return nerf_synthetic_like(names, n_train_views=size.train_views,
                               n_test_views=size.test_views,
                               image_size=size.image_size)


# -- train workloads ----------------------------------------------------------

def _timed_setup(config, dataset, n_steps: int):
    """Build a trainer and run ``n_steps``; set-up time ends with step 0."""
    start = time.perf_counter()
    trainer = Trainer(DecoupledRadianceField(config, seed=TRAINER_SEED),
                      dataset, config=config, seed=TRAINER_SEED)
    losses = [trainer.train_step()["loss"]]
    setup_s = time.perf_counter() - start
    losses += [trainer.train_step()["loss"] for _ in range(n_steps - 1)]
    return trainer, setup_s, losses


def run_train(workload: str, seed: int, seconds: float, size: Size,
              tracer: Optional[spans.Tracer]) -> Outcome:
    out = Outcome()
    config = config_for(workload, size)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    dataset = _datasets([TRAIN_SCENE], size)[0]
    input_s = time.perf_counter() - start
    n_steps = max(6, 2 * round(seconds / size.nominal_step_s[workload] / 2))
    check_steps = CHECK_STEPS[workload]

    # Set-up, timed EXTRA_SETUPS + 1 times.  In a traced run the first
    # extra trainer runs traced and the second untraced: identical losses
    # show that tracing does not change values.
    setup_times, trajectories = [], []
    for rep in range(EXTRA_SETUPS):
        if tracer is not None:
            tracer.enabled = rep == 0
            tracer.unit = f"setup-{rep}"
        trainer, setup_s, losses = _timed_setup(config, dataset, check_steps)
        setup_times.append(setup_s)
        trajectories.append(losses)
        del trainer
        gc.collect()
    if tracer is not None:
        tracer.enabled = False
        tracer.unit = "setup-main"
    trainer, setup_s, losses = _timed_setup(config, dataset, WINDOW_START)
    setup_times.append(setup_s)
    all_losses = list(losses) + [l for t in trajectories for l in t]
    for rep, trajectory in enumerate(trajectories):
        same = trajectory == losses[:check_steps]
        label = ("traced" if tracer is not None and rep == 0 else "untraced")
        out.check(f"trajectory identical (set-up run {rep}, {label}, vs the "
                  f"main run over {check_steps} steps)", same,
                  f"{trajectory} vs {losses[:check_steps]}")

    # The measured window: a fixed number of steps, and after each step
    # the user looks at the result: every test view is rendered
    # ``per_view`` times, back to back (due when issued), in seeded order.
    # Spreading the renders over the whole window, rather than bunching
    # them after it, lets their median see the same stretch of machine
    # time as the steps' (bunched at the end, render medians of train_fast
    # spread 28 % between seeds; the machine's speed drifts over seconds).
    # Every run renders the same views at the same states, so render PSNR
    # does not depend on the seed.
    # A traced run traces every other color-update cycle and compares the
    # two halves' step times for the tracing overhead; renders are untraced.
    views = dataset.test_views
    per_view = -(-size.eval_renders // (n_steps * len(views)))
    step_ms: List[float] = []
    traced_flags: List[bool] = []
    refreshed: List[bool] = []          # the step refreshed the occupancy grid
    render_ms, squared_error = [], []
    view_psnr: Dict[int, float] = {}
    kept = total = 0
    for i in range(n_steps):
        traced = tracer is not None and (i // 2) % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
            tracer.unit = f"step-{trainer.iteration}"
        refresh_points = trainer.occupancy_refresh_points
        t0 = time.perf_counter()
        metrics = trainer.train_step()
        step_ms.append(1e3 * (time.perf_counter() - t0))
        traced_flags.append(traced)
        refreshed.append(trainer.occupancy_refresh_points != refresh_points)
        all_losses.append(metrics["loss"])
        kept += metrics["queries_kept"]
        total += metrics["queries_total"]
        if tracer is not None:
            tracer.enabled = False
            tracer.unit = None
        for index in rng.permutation(np.arange(per_view * len(views))
                                     % len(views)):
            view = views[index]
            t0 = time.perf_counter()
            rgb = _render(trainer, dataset, config, view.camera)
            render_ms.append(1e3 * (time.perf_counter() - t0))
            squared_error.append((rgb - view.rgb) ** 2)
            view_psnr[int(index)] = psnr(rgb, view.rgb)  # last step's stays
    train_s = sum(step_ms) / 1e3
    eval_s = sum(render_ms) / 1e3
    peak_rss_mb = report.peak_rss_mb()

    finite = [np.isfinite(l) for l in all_losses]
    out.attempted = len(all_losses) + len(render_ms)
    out.failed = finite.count(False)
    psnr_db = float(np.mean(list(view_psnr.values())))
    out.check("losses finite", all(finite),
              f"{out.failed} non-finite of {len(all_losses)}")
    out.check(f"psnr_db above {size.psnr_floor_db} dB floor",
              psnr_db > size.psnr_floor_db, f"{psnr_db:.3f} dB")

    # Steps alternate between two costs (the color branch updates every
    # other step), so a step is timed as the mean of its color-update
    # cycle: the median of the raw steps falls between the two modes and
    # moved 10 % between seeds.
    cycles = [a + b for a, b in zip(step_ms[0::2], step_ms[1::2])]
    cycle_step_ms = [ms / 2 for ms in cycles]
    step_tail, step_pct = report.tail(cycle_step_ms)
    render_tail, render_pct = report.tail(render_ms)
    within = sum(ms <= LATENCY_LIMIT_MS for ms in render_ms)
    out.metrics = {
        "setup_s": report.median(setup_times),
        "train_s": train_s,
        "step_ms_p50": report.median(cycle_step_ms),
        "step_ms_tail": step_tail,
        "psnr_db": psnr_db,
        "peak_rss_mb": peak_rss_mb,
        "render_ms_p50": report.median(render_ms),
        "render_ms_tail": render_tail,
        "train_job_ms_p50": report.median(cycles),
        "goodput_rps": within / eval_s,
        "render_psnr_db": mse_to_psnr(float(np.mean(squared_error))),
        "ok_frac": 1.0 - out.failed / out.attempted,
    }
    out.meta.update({
        "scene": TRAIN_SCENE, "input_s": input_s, "window_steps": n_steps,
        "window_first_iteration": WINDOW_START,
        "setup_samples": len(setup_times),
        "step_ms_tail_percentile": step_pct,
        "step_samples": len(cycle_step_ms),
        "step_is": "mean step time of one color-update cycle (two steps)",
        "render_ms_tail_percentile": render_pct,
        "render_samples": len(render_ms),
        "keep_fraction": kept / max(total, 1),
        "step_ms": [round(ms, 1) for ms in step_ms],
        "render_ms": [round(ms, 1) for ms in render_ms],
        "train_job_is": "one color-update cycle (two steps) issued "
                        "directly, with no queue",
        "renders_are": f"every test view {per_view} time(s) after each of "
                       f"the window's {n_steps} steps; psnr_db from the "
                       "last step's",
    })

    if tracer is not None:
        units = {f"step-{WINDOW_START + i}" for i in range(n_steps)
                 if traced_flags[i]}
        # Whole color-update cycles, so both sides hold both step kinds.
        # Each traced cycle is compared with its untraced neighbours,
        # leaving out every cycle that refreshes the occupancy grid: the
        # refresh costs extra and changes the cost of the steps after it
        # (on the fast path they grow by about a third), so a pair across
        # one measures that change, not tracing.
        flags = traced_flags[0::2]
        steady = [not (a or b)
                  for a, b in zip(refreshed[0::2], refreshed[1::2])]
        ratios = [cycles[k] / cycles[j] for k in range(len(cycles))
                  for j in (k - 1, k + 1)
                  if 0 <= j < len(cycles) and flags[k] and not flags[j]
                  and steady[k] and steady[j]]
        overhead = 100.0 * (report.median(ratios) - 1.0)
        out.layers = layer_metrics(tracer, units, len(units), config,
                                   overhead)
        arena = trainer.arena
        out.layers["workspace.bytes"] = float(arena.total_bytes if arena else 0)
        out.meta["trace_overhead_is"] = (
            "median ratio of each traced color-update cycle in the window to "
            "its untraced neighbours, cycles that refresh the occupancy grid "
            "left out")
        out.meta["trace_overhead_pairs"] = len(ratios)
    return out


# -- serving workload ---------------------------------------------------------

@dataclass
class Request:
    """One planned request: a train job, or a render of one test view."""

    kind: str                    # "render" or "train"
    scene: str
    view: int = 0                # test-view index of a render


@dataclass
class Sent:
    request: Request
    handle: Optional[object] = None
    result: Optional[object] = None
    error: str = ""


def _apportion(total: int, shares: List[float]) -> List[int]:
    """Split ``total`` into whole counts proportional to ``shares``."""
    counts = [int(total * share) for share in shares]
    remainders = [total * share - count for share, count in zip(shares, counts)]
    for index in np.argsort(remainders)[::-1][:total - sum(counts)]:
        counts[index] += 1
    return counts


def serve_plan(seed: int, seconds: float, size: Size
               ) -> Tuple[List[str], List[List[Request]]]:
    """Scenes and the rounds of requests of one serve_mixed run.

    The number of rounds follows from ``seconds`` and is fixed, like a
    train workload's step count, so every run does the same work.  Each
    scene gets its popularity share of all render requests as an exact
    count, dealt out over the rounds in turn so that a scene's count in
    any two rounds differs by at most one, and asks for its test views
    equally often (give or take one).  A round's renders arrive grouped
    by scene, most popular first, and the round ends with
    ``SERVE_ROUND[0]`` train jobs of the most popular scene: the reads of
    a round see the state its writes leave to the next.

    The seed picks which test view each render asks for.  The deal and
    the arrival order are fixed: the single worker runs a round's scenes
    in the order their first request arrived, so a seeded order (or a
    seeded deal of the rare scene) changed which scene waited behind
    which, and how often the rare scene forced an eviction, and moved
    render_ms_p50 by 20 % between seeds.
    """
    rng = np.random.default_rng(seed)
    scenes = list(SERVE_SCENES)
    n_train, n_render = SERVE_ROUND
    n_rounds = max(2, round(seconds / size.nominal_round_s))
    counts = _apportion(n_rounds * n_render, list(SERVE_SCENES.values()))
    rounds: List[List[Request]] = [[] for _ in range(n_rounds)]
    i = 0
    for scene, count in zip(scenes, counts):
        for view in rng.permutation(np.arange(count) % size.test_views):
            rounds[i % n_rounds].append(Request("render", scene, int(view)))
            i += 1
    return scenes, [r + [Request("train", scenes[0])] * n_train
                    for r in rounds]


def _send_rounds(service: SceneService, cameras,
                 rounds: List[List[Request]]) -> List[Sent]:
    """Burst load: enqueue a whole round at once, collect it, go on.

    Every request of a round is queued before any result is awaited, so
    the worker sees the round's queue depth and coalesces same-scene
    renders as it would under bursty load from several clients.
    """
    sent = []
    for requests in rounds:
        burst = []
        for request in requests:
            if request.kind == "render":
                job = RenderJob(scene=request.scene,
                                camera=cameras[request.scene][request.view])
            else:
                job = TrainJob(scene=request.scene, n_steps=SERVE_TRAIN_STEPS)
            record = Sent(request)
            try:
                record.handle = service.submit(job)
            except Exception as exc:  # noqa: BLE001 - a refusal counts
                record.error = repr(exc)
            burst.append(record)
        for record in burst:
            if record.handle is None:
                continue
            try:
                record.result = record.handle.result(timeout=120)
            except Exception as exc:  # noqa: BLE001 - any job failure counts
                record.error = repr(exc)
        sent += burst
    return sent


def _setup_service(datasets, config, work: Path) -> Tuple[SceneService, float]:
    """Construct a service and render each scene once; time the lot."""
    start = time.perf_counter()
    service = SceneService(datasets, config, seed=TRAINER_SEED,
                           n_workers=1,
                           checkpoint_dir=work,
                           max_resident_scenes=SERVE_RESIDENT)
    for dataset in datasets:
        service.render(dataset.name).result(timeout=120)
    return service, time.perf_counter() - start


def run_serve(seed: int, seconds: float, size: Size,
              tracer: Optional[spans.Tracer], work: Path) -> Outcome:
    out = Outcome()
    config = config_for("serve_mixed", size)
    scenes, plan = serve_plan(seed, seconds, size)
    start = time.perf_counter()
    datasets = _datasets(scenes, size)
    input_s = time.perf_counter() - start
    by_name = {d.name: d for d in datasets}
    cameras = {d.name: [v.camera for v in d.test_views] for d in datasets}

    setup_times = []
    for rep in range(EXTRA_SETUPS):
        service, setup_s = _setup_service(datasets, config,
                                          work / f"setup-{rep}")
        service.close(save=False)
        setup_times.append(setup_s)
        del service
        gc.collect()
    service, setup_s = _setup_service(datasets, config, work / "main")
    setup_times.append(setup_s)
    try:
        start = time.perf_counter()
        for dataset in datasets:          # warm-up is input generation
            service.train(dataset.name, n_steps=SERVE_WARM_STEPS).result(
                timeout=120)
        warm_s = time.perf_counter() - start

        before = service.stats()
        if tracer is not None:
            tracer.enabled = True
        window_start = time.perf_counter()
        sent = _send_rounds(service, cameras, plan)
        window_s = time.perf_counter() - window_start
        peak_rss_mb = report.peak_rss_mb()
        if tracer is not None:
            tracer.enabled = False
            arena_bytes = float(sum(a.total_bytes for a in tracer.arenas))
        after = service.stats()

        # One more render, compared below with a direct render_view of the
        # same scene state.
        check_scene = scenes[0]
        check_camera = cameras[check_scene][0]
        served = service.render(check_scene, camera=check_camera).result(
            timeout=120)
    finally:
        service.close()

    render_ms, train_ms, exec_ms, queued_ms = [], [], [], []
    squared_error = []      # pooled over every served pixel
    batch_sizes = []
    for record in sent:
        result = record.result
        if result is None:
            continue
        latency = result.service_ms     # submit to done
        queued_ms.append(result.queued_ms)
        if record.request.kind == "render":
            render_ms.append(latency)
            batch_sizes.append(result.batch_size)
            view = by_name[record.request.scene].test_views[record.request.view]
            squared_error.append((result.colors - view.rgb) ** 2)
        else:
            train_ms.append(latency)
            exec_ms.append((result.service_ms - result.queued_ms)
                           / SERVE_TRAIN_STEPS)
            if not np.all(np.isfinite(result.losses)):
                record.error = "non-finite loss"
    failures = [r for r in sent if r.error]
    planned = sum(len(requests) for requests in plan)
    out.attempted = planned + 1
    out.failed = len(failures)
    finished = sum(r.result is not None for r in sent)
    pending = sum(r.handle is not None and not r.handle.done() for r in sent)
    completed = (after["render_jobs"] + after["train_jobs"]
                 - before["render_jobs"] - before["train_jobs"])
    out.check("no job lost",
              len(sent) == planned and pending == 0 and completed == finished,
              f"{len(sent)} of {planned} planned jobs sent in {len(plan)} "
              f"rounds, {pending} pending, {finished} results, "
              f"{completed} completed by the service")
    out.check("train losses finite",
              not any(r.error == "non-finite loss" for r in sent))

    # Direct reference: restore each scene's final state from the
    # service's checkpoints and render it without the service.
    manager = ResidencyManager(config, seed=TRAINER_SEED,
                               checkpoint_dir=work / "main")
    for dataset in datasets:
        manager.add_scene(dataset)
    scene_psnr = []
    overhead = None
    for dataset in datasets:
        trainer = manager.checkout(dataset.name).trainer
        scene_psnr.append(evaluate_model(
            trainer.model, dataset, n_samples=config.n_samples_per_ray,
            white_background=config.white_background,
            occupancy=trainer.occupancy,
            early_termination_tau=config.early_termination_tau,
            policy=trainer.policy).rgb_psnr)
        if dataset.name == check_scene:
            direct = _render(trainer, dataset, config, check_camera)
            diff = float(np.max(np.abs(direct - served.colors)))
            out.check("served render matches direct render_view",
                      diff <= RENDER_ATOL, f"max |diff| {diff:.3g}")
            if tracer is not None:
                overhead = _render_overhead(tracer, trainer, dataset, config,
                                            check_camera)
        manager.release(manager.slot(dataset.name))
        del trainer

    psnr_db = float(np.mean(scene_psnr))
    out.check(f"psnr_db above {size.psnr_floor_db} dB floor",
              psnr_db > size.psnr_floor_db, f"{psnr_db:.3f} dB")
    render_tail, render_pct = report.tail(render_ms)
    step_tail, step_pct = report.tail(exec_ms)
    within = sum(ms <= LATENCY_LIMIT_MS for ms in render_ms)
    out.metrics = {
        "setup_s": report.median(setup_times),
        # Execution time of all the plan's train jobs (fixed work).
        "train_s": sum(exec_ms) * SERVE_TRAIN_STEPS / 1e3,
        "step_ms_p50": report.median(exec_ms),
        "step_ms_tail": step_tail,
        "psnr_db": psnr_db,
        "peak_rss_mb": peak_rss_mb,
        "render_ms_p50": report.median(render_ms),
        "render_ms_tail": render_tail,
        "train_job_ms_p50": report.median(train_ms),
        "goodput_rps": within / window_s,
        "render_psnr_db": mse_to_psnr(float(np.mean(squared_error))),
        "ok_frac": 1.0 - out.failed / out.attempted,
    }
    out.meta.update({
        "scenes": scenes,
        "renders_per_scene": {n: sum(r.request.kind == "render"
                                     and r.request.scene == n for r in sent)
                              for n in scenes},
        "input_s": input_s, "warm_s": warm_s, "window_s": window_s,
        "rounds": len(plan), "renders": len(render_ms),
        "train_jobs": len(train_ms),
        "load": "bursts: each round enqueued at once, then collected",
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "setup_samples": len(setup_times),
        "render_ms_tail_percentile": render_pct,
        "step_ms_tail_percentile": step_pct, "step_samples": len(exec_ms),
        "step_is": "execution time (dequeue to done) of a train job, per step",
        "latency_is": "from each request's submission to its completion",
        "failures": [r.error for r in failures],
        "render_ms": [round(ms, 1) for ms in render_ms],
        "train_job_ms": [round(ms, 1) for ms in train_ms],
        "batch_sizes": batch_sizes,
    })

    if tracer is not None:
        batches = {s.unit for s in tracer.spans if s.unit != "overhead"}
        jobs = finished
        out.layers = layer_metrics(tracer, batches, jobs, config, overhead)
        out.layers.update({
            "service.queue_wait_ms_p50": report.median(queued_ms),
            "service.batch_size_mean": (
                (after["coalesced_jobs"] - before["coalesced_jobs"])
                / max(after["batches"] - before["batches"], 1)),
            "service.coalesced_share": float(np.mean(
                [b > 1 for b in batch_sizes])),
            "service.retries": after["retries"] - before["retries"],
            "service.shed": after["shed"] - before["shed"],
            "residency.evictions": after["evictions"] - before["evictions"],
            "workspace.bytes": arena_bytes,
        })
        out.meta["trace_overhead_is"] = (
            "median ratio of a traced direct render of one served scene, "
            "after the window, to the untraced one right after it")
    return out


def _render(trainer, dataset, config, camera) -> np.ndarray:
    rgb, _ = render_view(trainer.model, camera, dataset.scene_bound,
                         n_samples=config.n_samples_per_ray,
                         white_background=config.white_background,
                         occupancy=trainer.occupancy,
                         early_termination_tau=config.early_termination_tau,
                         policy=trainer.policy)
    return rgb


def _render_overhead(tracer, trainer, dataset, config, camera,
                     pairs: int = 8) -> float:
    """Percent cost of tracing on a direct render: the median ratio of a
    traced render to the untraced one right after it."""
    ratios = []
    tracer.unit = "overhead"
    for _ in range(pairs):
        times = []
        for traced in (True, False):
            tracer.enabled = traced
            start = time.perf_counter()
            _render(trainer, dataset, config, camera)
            times.append(time.perf_counter() - start)
        ratios.append(times[0] / times[1])
    tracer.enabled = False
    tracer.unit = None
    return 100.0 * (report.median(ratios) - 1.0)


# -- per-layer metrics --------------------------------------------------------

def _grid_bytes_per_point(config) -> Dict[Tuple[str, str], float]:
    """Computed grid bytes per point, per (step, branch), from the static
    workload model (not measured)."""
    scale = WorkloadScale.from_config(config, n_iterations=1)
    workload = build_iteration_workload(config, scale=scale, keep_fraction=1.0)
    points = scale.points_per_iteration
    return {(step.step, step.branch): step.grid_bytes / points
            for step in workload.steps
            if step.step in (PipelineStep.GRID_FORWARD,
                             PipelineStep.GRID_BACKWARD)}


def layer_metrics(tracer: spans.Tracer, window: set, units: int, config,
                  overhead_pct: Optional[float]) -> Dict[str, float]:
    """Per-layer metrics of the spans of the ``window`` work units, per
    work unit (``units`` of them)."""
    units = max(units, 1)
    own, inclusive = spans.ms_by_name(tracer.spans, window)
    counters = tracer.totals(window)
    layers = {name: own.get(span, 0.0) / units
              for name, span in _SELF_MS.items()}
    layers["trainer.step_ms"] = inclusive.get("trainer.step", 0.0) / units
    per_point = _grid_bytes_per_point(config)
    for b in BRANCHES:
        points = counters.get(f"grid.points.{b}", 0.0)
        back_points = counters.get(f"grid.backward_points.{b}", 0.0)
        computed = (points * per_point[(PipelineStep.GRID_FORWARD, b)]
                    + back_points * per_point[(PipelineStep.GRID_BACKWARD, b)])
        busy_s = (own.get(f"grid.encode.{b}", 0.0)
                  + own.get(f"grid.backward.{b}", 0.0)) / 1e3
        calls = counters.get(f"grid.backward_calls.{b}", 0.0)
        touched = counters.get(f"grid.touched_rows.{b}", 0.0)
        updates = counters.get(f"grid.scatter_updates.{b}", 0.0)
        layers.update({
            f"grid.points.{b}": points / units,
            f"grid.computed_bytes.{b}": computed / units,
            f"grid.computed_gbps.{b}": computed / busy_s / 1e9 if busy_s else 0.0,
            f"grid.touched_rows.{b}": touched / calls if calls else 0.0,
            f"grid.unique_write_ratio.{b}": touched / updates if updates else 0.0,
        })
    tested = counters.get("occupancy.tested", 0.0)
    requests = counters.get("workspace.requests", 0.0)
    misses = counters.get("workspace.misses", 0.0)
    layers.update({
        "occupancy.keep_fraction": (counters.get("occupancy.kept", 0.0) / tested
                                    if tested else 1.0),
        "workspace.hit_rate": 1.0 - misses / requests if requests else 1.0,
        "workspace.misses": misses,
        "workspace.bytes": 0.0,
        "service.queue_wait_ms_p50": 0.0, "service.batch_size_mean": 0.0,
        "service.coalesced_share": 0.0, "service.retries": 0.0,
        "service.shed": 0.0,
        "residency.evictions": 0.0,
        "io.checkpoint_bytes": counters.get("io.checkpoint_bytes", 0.0),
        "trace.overhead_pct": overhead_pct if overhead_pct is not None else 0.0,
        "trace.spans": sum(s.unit in window for s in tracer.spans) / units,
        "trace.units": float(units),
    })
    return layers
