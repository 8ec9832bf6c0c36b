"""Which entry points the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  ``repro.hardware``,
``repro.eval`` and ``repro.faults`` sit off every frame path and are not
traced; ``repro.datasets`` only runs in set-up.

Span names and the entry points they wrap (see ``tracer.py`` for how):

==========================  =============================================
span                        entry point (patched binding)
==========================  =============================================
``session.feed`` (root)     ``repro.slam.session.SessionRunner.feed``
``session.state``           ``SessionRunner.state``
``session.restore``         ``SessionRunner.restore``
``codec.observe``           ``repro.core.covisibility.FrameCovisibilityDetector.observe``
``codec.keyframe``          ``FrameCovisibilityDetector.compare_with_keyframe``
``mat.track``               ``repro.core.tracking.MovementAdaptiveTracker.track``
``tracker.track``           ``repro.slam.tracker.GaussianPoseTracker.track``
``health.moderate``         ``repro.slam.health.TrackingHealthMonitor.moderate``
``gcm.map_frame``           ``repro.core.mapping.ContributionAwareMapper.map_frame``
``mapper.map_frame``        ``repro.slam.mapper.GaussianMapper.map_frame``
``render.map``              ``repro.slam.mapper.render`` (optimizer loop)
``render.map_extra``        ``repro.slam.mapper.render`` without a cache:
                            the densify seed render and the PSNR render
``render.pose``             ``repro.slam.tracker.render``
``backward.map``            ``repro.slam.mapper.render_backward``
``backward.pose``           ``repro.slam.tracker.render_backward``
``densify``                 ``repro.slam.mapper.densify_from_frame``
``adam.step``               ``repro.gaussians.optimizer.Adam.step``
``client.post`` (root)      ``repro.serve.api.SlamClient.post_frame``
``wire.encode``             ``repro.serve.api.encode_frame``
``server.ingest`` (root)    ``repro.serve.api.SlamServer.ingest_frame``
``wire.decode``             ``repro.serve.api.decode_frame``
``admission.admit``         ``repro.serve.admission.AdmissionController.admit``
``ingest.submit``           ``repro.serve.ingest.AsyncSessionHandle.submit``
``park``                    ``repro.serve.registry.ParkingLot.park``
``resume``                  ``repro.serve.registry.ParkingLot.resume``
==========================  =============================================

``SessionRunner.feed_nowait`` gets no span; its wrapper stamps the
enqueue time that ``ingest.queue_wait_ms`` pairs with the start of the
matching ``feed``.

The per-layer metrics, and the end-to-end metric each should move on
which workload (later changes cite these names), are listed in
``PER_LAYER`` below and in ``README.md``.
"""

from __future__ import annotations

import os

# (name, unit, better): the per-layer metrics every traced run reports.
# A layer a workload does not exercise reports 0.
PER_LAYER = [
    ("session.unattributed_frac", "ratio", "lower"),
    ("session.state_ms", "ms", "lower"),
    ("session.restore_ms", "ms", "lower"),
    ("codec.ms_per_frame", "ms", "lower"),
    ("codec.sad_evals_per_frame", "count", "lower"),
    ("mat.self_ms_per_frame", "ms", "lower"),
    ("mat.coarse_only_frac", "ratio", "higher"),
    ("mat.refine_iters_per_frame", "count", "lower"),
    ("tracker.ms_per_frame", "ms", "lower"),
    ("tracker.iters_per_frame", "count", "lower"),
    ("mapper.self_ms_per_frame", "ms", "lower"),
    ("mapper.iters_per_frame", "count", "lower"),
    ("mapper.extra_renders_per_frame", "count", "lower"),
    ("gcm.skipped_frac", "ratio", "higher"),
    ("map.gaussians_final", "count", "lower"),
    ("map.psnr_db", "dB", "higher"),
    ("render.calls_per_frame", "count", "lower"),
    ("render.ms_per_call", "ms", "lower"),
    ("raster.pairs_per_call", "count", "lower"),
    ("raster.pairs_culled_frac", "ratio", "higher"),
    ("raster.pixels_culled_frac", "ratio", "higher"),
    ("backward.calls_per_frame", "count", "lower"),
    ("backward.ms_per_call", "ms", "lower"),
    ("backward.cache_hit_frac", "ratio", "higher"),
    ("adam.ms_per_frame", "ms", "lower"),
    ("densify.ms_per_frame", "ms", "lower"),
    ("densify.added_per_frame", "count", "lower"),
    ("health.ms_per_frame", "ms", "lower"),
    ("health.fallbacks", "count", "lower"),
    ("wire.encode_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("wire.bytes_per_frame", "bytes", "lower"),
    ("admission.ms", "ms", "lower"),
    ("admission.refused", "count", "lower"),
    ("ingest.submit_ms", "ms", "lower"),
    ("ingest.queue_wait_ms", "ms", "lower"),
    ("ingest.backpressure_waits", "count", "lower"),
    ("park.ms", "ms", "lower"),
    ("resume.ms", "ms", "lower"),
    ("park.per_frame", "count", "lower"),
    ("ckpt.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _label(session):
    # The name the session was begun under: the workload's stream name
    # in-process, the session id behind the server.
    return getattr(session, "_session_sequence", None)


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


def patches(tracer, recorder):
    """The ``(owner, attribute, wrapper)`` list for :meth:`Tracer.installed`.

    ``recorder`` is handed to renders that were called without ``perf=``
    (the mapper's densify-seed and PSNR renders), so the ``raster.*``
    counters cover every render call.
    """
    from repro.core.covisibility import FrameCovisibilityDetector
    from repro.core.mapping import ContributionAwareMapper
    from repro.core.tracking import MovementAdaptiveTracker
    from repro.gaussians.optimizer import Adam
    from repro.serve import api
    from repro.serve.admission import AdmissionController
    from repro.serve.ingest import AsyncSessionHandle
    from repro.serve.registry import ParkingLot
    from repro.slam import health, mapper, tracker
    from repro.slam.session import SessionRunner

    wrap = tracer.wrap

    def feed_frame(args, kwargs):
        session = args[0]
        tracer.dequeued(_label(session))
        return (_label(session), session.next_frame_index)

    original_feed_nowait = SessionRunner.feed_nowait

    def feed_nowait(session, *args, **kwargs):
        # Stamped before the frame is queued: the drain worker may start
        # its feed before this call returns.
        tracer.enqueued(_label(session))
        return original_feed_nowait(session, *args, **kwargs)

    def with_perf(fn):
        def call(*args, **kwargs):
            if kwargs.get("perf") is None:
                kwargs["perf"] = recorder
            return fn(*args, **kwargs)

        return call

    mapper_render = mapper.render
    map_render = wrap("render.map", with_perf(mapper_render))
    map_extra_render = wrap("render.map_extra", with_perf(mapper_render))

    def mapper_render_site(*args, **kwargs):
        # Optimizer-loop renders reuse the mapper's ForwardCache; the
        # densify seed render and the PSNR-only render pass none.
        if kwargs.get("cache") is not None:
            return map_render(*args, **kwargs)
        return map_extra_render(*args, **kwargs)

    return [
        (SessionRunner, "feed", wrap("session.feed", SessionRunner.feed, frame=feed_frame)),
        (SessionRunner, "feed_nowait", feed_nowait),
        (SessionRunner, "state", wrap("session.state", SessionRunner.state)),
        (SessionRunner, "restore", wrap("session.restore", SessionRunner.restore)),
        (
            FrameCovisibilityDetector,
            "observe",
            wrap("codec.observe", FrameCovisibilityDetector.observe),
        ),
        (
            FrameCovisibilityDetector,
            "compare_with_keyframe",
            wrap("codec.keyframe", FrameCovisibilityDetector.compare_with_keyframe),
        ),
        (
            MovementAdaptiveTracker,
            "track",
            wrap(
                "mat.track",
                MovementAdaptiveTracker.track,
                info=lambda a, k, r: {
                    "coarse_only": bool(r.used_coarse_only),
                    "iterations": int(r.refine_iterations),
                },
            ),
        ),
        (
            tracker.GaussianPoseTracker,
            "track",
            wrap(
                "tracker.track",
                tracker.GaussianPoseTracker.track,
                info=lambda a, k, r: {"iterations": int(r.iterations_run)},
            ),
        ),
        (
            health.TrackingHealthMonitor,
            "moderate",
            wrap(
                "health.moderate",
                health.TrackingHealthMonitor.moderate,
                info=lambda a, k, r: {"fallbacks": int(r.fallbacks_used)},
            ),
        ),
        (
            ContributionAwareMapper,
            "map_frame",
            wrap(
                "gcm.map_frame",
                ContributionAwareMapper.map_frame,
                info=lambda a, k, r: {
                    "skipped": int(r.gaussians_skipped),
                    "considered": len(a[1]),
                },
            ),
        ),
        (
            mapper.GaussianMapper,
            "map_frame",
            wrap(
                "mapper.map_frame",
                mapper.GaussianMapper.map_frame,
                info=lambda a, k, r: {"iterations": int(r.iterations_run)},
            ),
        ),
        (mapper, "render", mapper_render_site),
        (tracker, "render", wrap("render.pose", with_perf(tracker.render))),
        (mapper, "render_backward", wrap("backward.map", mapper.render_backward)),
        (tracker, "render_backward", wrap("backward.pose", tracker.render_backward)),
        (
            mapper,
            "densify_from_frame",
            wrap(
                "densify",
                mapper.densify_from_frame,
                info=lambda a, k, r: {"added": int(r[1].num_added)},
            ),
        ),
        (Adam, "step", wrap("adam.step", Adam.step)),
        (
            api.SlamClient,
            "post_frame",
            wrap(
                "client.post",
                api.SlamClient.post_frame,
                frame=lambda a, k: (a[1], a[2].index),
            ),
        ),
        (
            api,
            "encode_frame",
            wrap("wire.encode", api.encode_frame, info=lambda a, k, r: {"bytes": len(r)}),
        ),
        (
            api.SlamServer,
            "ingest_frame",
            wrap(
                "server.ingest",
                api.SlamServer.ingest_frame,
                info=lambda a, k, r: {"frame": (a[1], r["index"])},
            ),
        ),
        (api, "decode_frame", wrap("wire.decode", api.decode_frame)),
        (
            AdmissionController,
            "admit",
            wrap("admission.admit", AdmissionController.admit),
        ),
        (
            AsyncSessionHandle,
            "submit",
            wrap("ingest.submit", AsyncSessionHandle.submit),
        ),
        (
            ParkingLot,
            "park",
            wrap("park", ParkingLot.park, info=lambda a, k, r: {"bytes": _dir_bytes(r)}),
        ),
        (ParkingLot, "resume", wrap("resume", ParkingLot.resume)),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, counters: dict, frames: int, extra: dict) -> dict:
    """Per-layer metrics from the spans and counters of one traced phase.

    ``frames`` is the number of frames the traced phase completed;
    ``extra`` supplies the values the trace cannot see
    (``map.gaussians_final``, ``map.psnr_db``, ``trace.overhead_frac``).
    """
    by_name: dict = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(*names):
        return [span for name in names for span in by_name.get(name, ())]

    def total_ms(*names):
        return 1e3 * sum(span.duration for span in spans(*names))

    def self_ms(*names):
        return 1e3 * sum(span.self_time for span in spans(*names))

    def mean_ms(*names):
        # Per successful call: a refused admit or the registry's resume
        # probe for a never-parked session ends in an exception.
        done = [span for span in spans(*names) if "error" not in (span.info or {})]
        return _ratio(1e3 * sum(span.duration for span in done), len(done))

    def info_sum(name, key):
        return sum((span.info or {}).get(key, 0) for span in spans(name))

    def counter(name):
        return float(counters.get(name, 0))

    per_frame = lambda value: _ratio(value, frames)  # noqa: E731
    feeds = spans("session.feed")
    renders = ("render.map", "render.map_extra", "render.pose")
    backwards = ("backward.map", "backward.pose")
    pairs_total = counter("raster.pairs_total")
    pairs_culled = counter("raster.pairs_culled")
    mat = spans("mat.track")
    considered = info_sum("gcm.map_frame", "considered")
    cache_uses = counter("raster.backward_cache_hits") + counter("raster.backward_cache_builds")
    parks = spans("park")
    encodes = spans("wire.encode")

    values = {
        "session.unattributed_frac": _ratio(
            sum(span.self_time for span in feeds), sum(span.duration for span in feeds)
        ),
        "session.state_ms": mean_ms("session.state"),
        "session.restore_ms": mean_ms("session.restore"),
        "codec.ms_per_frame": per_frame(total_ms("codec.observe", "codec.keyframe")),
        "codec.sad_evals_per_frame": per_frame(counter("codec.sad_evaluations")),
        "mat.self_ms_per_frame": per_frame(self_ms("mat.track")),
        "mat.coarse_only_frac": _ratio(info_sum("mat.track", "coarse_only"), len(mat)),
        "mat.refine_iters_per_frame": per_frame(info_sum("mat.track", "iterations")),
        "tracker.ms_per_frame": per_frame(total_ms("tracker.track")),
        "tracker.iters_per_frame": per_frame(info_sum("tracker.track", "iterations")),
        "mapper.self_ms_per_frame": per_frame(self_ms("mapper.map_frame", "gcm.map_frame")),
        "mapper.iters_per_frame": per_frame(info_sum("mapper.map_frame", "iterations")),
        "mapper.extra_renders_per_frame": per_frame(len(spans("render.map_extra"))),
        "gcm.skipped_frac": _ratio(info_sum("gcm.map_frame", "skipped"), considered),
        "render.calls_per_frame": per_frame(len(spans(*renders))),
        "render.ms_per_call": mean_ms(*renders),
        "raster.pairs_per_call": _ratio(pairs_total - pairs_culled, len(spans(*renders))),
        "raster.pairs_culled_frac": _ratio(pairs_culled, pairs_total),
        "raster.pixels_culled_frac": _ratio(
            counter("raster.pixels_culled"), counter("raster.pixels_total")
        ),
        "backward.calls_per_frame": per_frame(len(spans(*backwards))),
        "backward.ms_per_call": mean_ms(*backwards),
        "backward.cache_hit_frac": _ratio(counter("raster.backward_cache_hits"), cache_uses),
        "adam.ms_per_frame": per_frame(total_ms("adam.step")),
        "densify.ms_per_frame": per_frame(total_ms("densify")),
        "densify.added_per_frame": per_frame(info_sum("densify", "added")),
        "health.ms_per_frame": per_frame(total_ms("health.moderate")),
        "health.fallbacks": info_sum("health.moderate", "fallbacks"),
        "wire.encode_ms": mean_ms("wire.encode"),
        "wire.decode_ms": mean_ms("wire.decode"),
        "wire.bytes_per_frame": _ratio(info_sum("wire.encode", "bytes"), len(encodes)),
        "admission.ms": mean_ms("admission.admit"),
        "admission.refused": sum(
            1 for span in spans("admission.admit") if "error" in (span.info or {})
        ),
        "ingest.submit_ms": mean_ms("ingest.submit"),
        "ingest.queue_wait_ms": 1e3 * _ratio(sum(tracer.queue_waits), len(tracer.queue_waits)),
        "ingest.backpressure_waits": counter("serve.backpressure_waits"),
        "park.ms": mean_ms("park"),
        "resume.ms": mean_ms("resume"),
        "park.per_frame": per_frame(len(parks)),
        "ckpt.bytes": _ratio(info_sum("park", "bytes"), len(parks)),
    }
    values.update(extra)
    return {
        name: {"value": float(values[name]), "unit": unit} for name, unit, _better in PER_LAYER
    }
