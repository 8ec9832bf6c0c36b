"""The SLAM evaluation service: a bounded, concurrent run store.

Running the NumPy SLAM systems is the expensive part of every experiment.
Earlier revisions cached runs with an unbounded process-wide
``functools.lru_cache`` and executed strictly sequentially; this module
replaces that with :class:`SlamService`:

* **Key-addressed**: every run is identified by a :class:`RunKey` — the
  one (algorithm, sequence, configuration) tuple shared by the service,
  the benchmarks and the tests, so no call site re-derives cache keys.
* **Bounded**: completed results live in an LRU store capped at
  ``max_entries``; production workloads can stream thousands of
  configurations without the cache footprint growing without bound.
* **Concurrent**: ``run_many([...], workers=N)`` executes independent
  runs on a thread pool.  Each worker records into its own
  :class:`~repro.perf.PerfRecorder`, merged into the service recorder
  under the store lock, and dataset frame rendering is
  order-deterministic (see :mod:`repro.datasets.sequences`), so
  concurrent execution returns bit-identical results to sequential.
* **Fault-tolerant**: every run feeds its frames one at a time through
  :meth:`~repro.slam.session.SessionRunner.retry_frame`, so a transient
  failure (an injected fault from the key's plan, a flaky source read)
  rolls back just the failed frame and retries it under the service's
  :class:`RetryPolicy`; the recovered run is bit-identical to an
  uninterrupted one.

:func:`repro.eval.runner.run_slam` remains as a thin compatibility shim
over the process-default service.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import RetryPolicy, RunManyError
from repro.perf import PerfRecorder, global_recorder
from repro.serve.registry import LruMap
from repro.slam.results import SlamResult

__all__ = [
    "KNOWN_ALGORITHMS",
    "RetryPolicy",
    "RunKey",
    "SESSION_OPTIONS",
    "SlamService",
    "build_session",
    "configure_default_service",
    "default_service",
]

KNOWN_ALGORITHMS = (
    "splatam",
    "gaussian-slam",
    "orb",
    "droid",
    "ags",
    "droid-splatam",
)


@dataclasses.dataclass(frozen=True)
class RunKey:
    """The canonical (algorithm, sequence, configuration) run identity.

    Every layer that caches, schedules or compares SLAM runs — the
    service store, the benchmarks, the experiment functions and the
    tests — builds this one dataclass instead of re-deriving ad-hoc key
    tuples per call site.

    The defaults are also :func:`repro.eval.runner.run_slam`'s and
    :func:`build_session`'s.
    """

    algorithm: str
    sequence: str
    num_frames: int = 10
    tracking_iterations: int = 20
    mapping_iterations: int = 5
    iter_t: int = 4
    thresh_m: float = 0.5
    thresh_n: int | None = None
    enable_mat: bool = True
    enable_gcm: bool = True
    # Adversarial stream scenario applied to the input sequence (a name
    # from repro.datasets.scenarios.SCENARIOS), or None for the clean
    # stream.  "clean" and None produce identical runs but distinct keys.
    scenario: str | None = None
    # Whether the tracking-health monitor's fallback ladder is armed.
    # Disabling it is the ablation arm of the robustness grid.
    fallbacks: bool = True
    # Deterministic fault plan injected into the run (a name from
    # repro.faults.FAULT_PLANS), or None for a fault-free run.  Faulted
    # frames are rolled back and retried one at a time.
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in KNOWN_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm '{self.algorithm}'; expected one of {KNOWN_ALGORITHMS}"
            )
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if self.tracking_iterations < 0 or self.mapping_iterations < 0:
            raise ValueError(
                "iteration counts must be >= 0, got "
                f"tracking={self.tracking_iterations} mapping={self.mapping_iterations}"
            )
        if self.scenario is not None:
            # Imported lazily: key construction must stay cheap and the
            # datasets package heavier than this module.  Validation is
            # still eager — a typo fails at key build, not mid-grid.
            from repro.datasets.scenarios import available_scenarios

            if self.scenario not in available_scenarios():
                raise ValueError(
                    f"unknown scenario '{self.scenario}'; "
                    f"expected one of {available_scenarios()}"
                )
        if self.faults is not None:
            from repro.faults import available_fault_plans

            if self.faults not in available_fault_plans():
                raise ValueError(
                    f"unknown fault plan '{self.faults}'; "
                    f"expected one of {available_fault_plans()}"
                )

    @classmethod
    def from_settings(cls, algorithm: str, sequence: str, settings, **overrides) -> "RunKey":
        """Build the key for one run of an :class:`EvalSettings` experiment.

        ``settings.num_frames`` sizes the run (the quantity experiments
        previously re-derived at every call site); iteration counts keep
        the ``run_slam`` defaults unless overridden, matching the
        historical experiment configuration.
        """
        return cls(algorithm=algorithm, sequence=sequence, num_frames=settings.num_frames, **overrides)

    def slug(self) -> str:
        """A filesystem-safe name for checkpoints / reports."""
        parts = [
            self.algorithm,
            self.sequence,
            f"f{self.num_frames}",
            f"t{self.tracking_iterations}",
            f"m{self.mapping_iterations}",
            f"i{self.iter_t}",
            f"tm{self.thresh_m:g}",
            f"tn{self.thresh_n if self.thresh_n is not None else 'auto'}",
            f"mat{int(self.enable_mat)}",
            f"gcm{int(self.enable_gcm)}",
        ]
        if self.scenario is not None:
            parts.append(f"sc-{self.scenario}")
        if not self.fallbacks:
            parts.append("nofb")
        if self.faults is not None:
            parts.append(f"fl-{self.faults}")
        return "-".join(parts).replace("/", "_")


def build_session(
    algorithm: str,
    intrinsics,
    tracking_iterations: int = RunKey.tracking_iterations,
    mapping_iterations: int = RunKey.mapping_iterations,
    iter_t: int = RunKey.iter_t,
    thresh_m: float = RunKey.thresh_m,
    thresh_n: int | None = RunKey.thresh_n,
    enable_mat: bool = RunKey.enable_mat,
    enable_gcm: bool = RunKey.enable_gcm,
    fallbacks: bool = RunKey.fallbacks,
    perf: PerfRecorder | None = None,
):
    """Instantiate one configured :class:`SlamSession` for ``algorithm``.

    The single system-construction path shared by the service executor
    (via :func:`_build_system`) and the serving tier
    (:func:`repro.serve.api.default_session_factory` builds registry
    session factories from it) — both layers configuring a system the
    same way is what makes a session parked by one resumable by the
    other.  The defaults are :class:`RunKey`'s.
    """
    if algorithm not in KNOWN_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm '{algorithm}'; expected one of {KNOWN_ALGORITHMS}"
        )
    # Imported here: the SLAM systems import the perf subsystem, and the
    # eval layer is the composition root — keeping the import local avoids
    # a hard dependency for callers that only build keys.
    from repro.core import AGSConfig, AgsSlam
    from repro.slam import (
        DroidLiteSlam,
        GaussianSlam,
        GaussianSlamConfig,
        HealthConfig,
        OrbLiteSlam,
        SplaTam,
        SplaTamConfig,
    )

    health = HealthConfig(enabled=fallbacks)

    if algorithm == "splatam":
        return SplaTam(
            intrinsics,
            SplaTamConfig(
                tracking_iterations=tracking_iterations,
                mapping_iterations=mapping_iterations,
                health=health,
            ),
            perf=perf,
        )
    if algorithm == "gaussian-slam":
        return GaussianSlam(
            intrinsics,
            GaussianSlamConfig(
                tracking_iterations=tracking_iterations,
                mapping_iterations=mapping_iterations,
                health=health,
            ),
            perf=perf,
        )
    if algorithm == "orb":
        return OrbLiteSlam(intrinsics, perf=perf)
    if algorithm == "droid":
        return DroidLiteSlam(intrinsics, perf=perf)
    if algorithm == "ags":
        config = AGSConfig(
            iter_t=iter_t,
            thresh_m=thresh_m,
            thresh_n=thresh_n,
            baseline_tracking_iterations=tracking_iterations,
            enable_movement_adaptive_tracking=enable_mat,
            enable_contribution_mapping=enable_gcm,
        )
    elif algorithm == "droid-splatam":
        # Direct integration of the coarse tracker with SplaTAM: MAT that
        # never refines (thresh_t below any possible covisibility) and GCM
        # off, so every frame keeps the coarse pose and maps with
        # SplaTAM's mapper and keyframe policy.
        config = AGSConfig(
            thresh_t=-1.0,
            iter_t=0,
            baseline_tracking_iterations=tracking_iterations,
            enable_contribution_mapping=False,
        )
    else:  # pragma: no cover - validated above
        raise AssertionError(f"unhandled algorithm '{algorithm}'")
    return AgsSlam(
        intrinsics,
        config,
        mapping_iterations=mapping_iterations,
        health_config=health,
        perf=perf,
    )


# build_session's configuration keywords — each one a RunKey field too.
SESSION_OPTIONS = tuple(
    name
    for name in inspect.signature(build_session).parameters
    if name not in ("algorithm", "intrinsics", "perf")
)


def _build_system(key: RunKey, perf: PerfRecorder):
    """Instantiate the system + sequence for ``key``.

    Returns ``(system, sequence, finish)`` where ``finish(result)``
    applies any key-specific post-processing (currently the
    droid-splatam algorithm rename).
    """
    from repro.datasets import load_sequence
    from repro.datasets.scenarios import apply_scenario

    sequence = apply_scenario(
        load_sequence(key.sequence, num_frames=key.num_frames), key.scenario
    )
    system = build_session(
        key.algorithm,
        sequence.intrinsics,
        perf=perf,
        **{name: getattr(key, name) for name in SESSION_OPTIONS},
    )
    # The hardware simulators read the 3DGS systems' workload traces.
    from repro.slam import SplaTam

    if isinstance(system, SplaTam):
        system.collect_trace = True

    if key.algorithm == "droid-splatam":

        def finish(result: SlamResult) -> SlamResult:
            result.algorithm = "droid-splatam"
            return result

    else:

        def finish(result: SlamResult) -> SlamResult:
            return result

    return system, sequence, finish


def _execute_run(
    key: RunKey, perf: PerfRecorder, policy: RetryPolicy, on_retry=None
) -> SlamResult:
    """Run one SLAM configuration, recording into ``perf``.

    The system is built once and armed with the key's fault plan (if
    any); each frame — its source read included, so flaky reads are
    retried too — goes through ``retry_frame`` under ``policy``.  The
    feed loop is exactly :meth:`SessionRunner.run`'s, so a fault-free
    run is bit-identical to ``system.run(sequence)``.
    """
    with perf.section(f"eval/{key.algorithm}/{key.sequence}"):
        system, sequence, finish = _build_system(key, perf)
        total = min(key.num_frames, len(sequence))
        if key.faults is not None:
            from repro.faults import FaultInjector, get_fault_plan

            injector = FaultInjector(get_fault_plan(key.faults))
            injector.arm(system, total)
            sequence = injector.wrap_source(sequence)
        system.begin(getattr(sequence, "name", "stream"))
        for index in range(total):
            system.retry_frame(
                lambda: system.feed(sequence[index], index), policy, on_retry
            )
        return finish(system.finalize())


class SlamService:
    """Bounded, key-addressed, concurrency-capable SLAM run store.

    Args:
        max_entries: LRU budget of retained :class:`SlamResult` objects.
            Results beyond the budget are evicted least-recently-used —
            the production-scale replacement for the former unbounded
            ``lru_cache(maxsize=None)``.
        perf: recorder uncached runs record into (default: the
            process-wide :func:`repro.perf.global_recorder`).  Several
            service instances may safely share one recorder — e.g. the
            global default alongside direct ``run_slam`` calls —
            because :meth:`PerfRecorder.merge` serializes on the
            receiving recorder, so concurrent merges from different
            services cannot interleave and drop updates.
        retry: the per-frame :class:`RetryPolicy` for transient
            failures, or ``None`` for the default policy.  Each retry is
            counted as ``service.retries``.
    """

    def __init__(
        self,
        max_entries: int = 128,
        perf: PerfRecorder | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        # The bounded-LRU mechanics live in repro.serve.registry.LruMap —
        # one eviction implementation shared with the serving tier's
        # SessionRegistry (which parks instead of dropping).
        self._store: LruMap = LruMap(max_entries)
        self.perf = perf or global_recorder()
        self.retry = retry
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # Store management
    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """LRU budget of retained results (shrinking trims on commit)."""
        return self._store.budget

    @max_entries.setter
    def max_entries(self, value: int) -> None:
        with self._lock:
            self.evictions += self._store.trim(value)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: RunKey) -> bool:
        with self._lock:
            return key in self._store

    def clear(self) -> None:
        """Drop every retained run."""
        with self._lock:
            self._store.clear()

    def _get(self, key: RunKey) -> SlamResult | None:
        result = self._store.get(key)
        if result is not None:
            self.hits += 1
        return result

    def _put(self, key: RunKey, result: SlamResult) -> None:
        self.evictions += self._store.put(key, result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, key: RunKey, recorder: PerfRecorder) -> SlamResult:
        def on_retry() -> None:
            recorder.count("service.retries")
            with self._lock:
                self.retries += 1

        return _execute_run(key, recorder, self.retry or RetryPolicy(), on_retry)

    def run(self, key: RunKey) -> SlamResult:
        """Return the result for ``key``, executing it on a miss.

        Thread-safe: every execution records into a private
        :class:`PerfRecorder` merged into the service recorder under the
        store lock, so concurrent ``run`` calls never interleave on one
        recorder's section stack.
        """
        with self._lock:
            result = self._get(key)
            if result is None:
                self.misses += 1
        if result is not None:
            return result
        recorder = PerfRecorder()
        try:
            result = self._execute(key, recorder)
        except BaseException:
            # Failed runs still surface their perf story (retry counters,
            # partial sections) before the failure propagates.
            with self._lock:
                self.perf.merge(recorder)
            raise
        with self._lock:
            # A concurrent caller may have landed the same key first; keep
            # the stored instance so repeated lookups stay identical.
            existing = self._store.get(key)
            if existing is not None:
                result = existing
            else:
                self._put(key, result)
            self.perf.merge(recorder)
        return result

    def run_many(
        self, keys, workers: int = 1, return_exceptions: bool = False
    ) -> list[SlamResult]:
        """Execute several run keys, optionally on a worker pool.

        Duplicate keys are executed once, each through :meth:`run` — on
        the caller's thread with ``workers <= 1``, on a pool of
        ``workers`` threads otherwise.  Concurrent runs record into
        private recorders merged into the service recorder, so results
        are bit-identical to sequential execution.  Results are returned
        directly (not re-fetched through the store), so a batch larger
        than ``max_entries`` still executes every run exactly once —
        eviction only limits what is *retained*.

        Failures are isolated per key: one run raising (after its
        retries) never poisons the batch — every surviving key still
        executes, completes and is stored.  Afterwards the failures are
        reported together as :class:`repro.errors.RunManyError` (mapping
        each failed key to its exception), or — with
        ``return_exceptions=True`` — returned in-place in the result
        list instead of raised.

        Returns the results in the order of ``keys``.
        """
        keys = list(keys)
        unique = list(dict.fromkeys(keys))

        def attempt(key: RunKey):
            try:
                return self.run(key)
            except Exception as exc:  # isolated per key, reported below
                return exc

        if workers <= 1:
            outcomes = [attempt(key) for key in unique]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(attempt, unique))
        by_key = dict(zip(unique, outcomes))
        failures = {key: out for key, out in by_key.items() if isinstance(out, Exception)}
        if failures and not return_exceptions:
            raise RunManyError(failures)
        return [by_key[key] for key in keys]


_DEFAULT_LOCK = threading.Lock()
_DEFAULT_SERVICE = SlamService()


def default_service() -> SlamService:
    """The process-wide service instance ``run_slam`` delegates to."""
    with _DEFAULT_LOCK:
        return _DEFAULT_SERVICE


def configure_default_service(max_entries: int | None = None) -> SlamService:
    """Adjust the process-default service's result budget.

    Atomic under concurrency: the module lock serializes configuration
    against :func:`default_service` lookups, so a racing ``run_slam``
    sees either the old or the fully new configuration — never a
    half-configured service (the budget shrink and the trim it implies
    commit together under the service's store lock).
    """
    with _DEFAULT_LOCK:
        service = _DEFAULT_SERVICE
        if max_entries is not None:
            service.max_entries = max_entries
        return service
