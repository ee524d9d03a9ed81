"""The DES engine-fidelity contract: vectorized ≡ scalar reference.

The vectorized :class:`MicroserviceSimulator` must be bit-identical to
the retained :class:`ReferenceSimulator` — traces, IntervalMetrics,
counters, and sweep-cell payload bytes — across applications, seeds, and
arrival processes.  ``benchmarks/des_gate.py`` enforces the same
contract (plus the ≥3x speedup floor) in CI; these tests are the
randomized, shrinkable side of it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.experiments import ExperimentSpec
from repro.experiments.runner import _run_unit_worker
from repro.sim.des import (
    DESEngine,
    FastEventQueue,
    MicroserviceSimulator,
    MMPPArrivals,
    PoissonArrivals,
    ReferenceSimulator,
    SimConfig,
    mmpp_times,
    poisson_times,
    spawn_streams,
)
from repro.sim.des.events import EventKind
from repro.sim.des.variates import (
    BLOCK,
    BlockExp,
    BlockGamma,
    BlockNormal,
    BlockUniform,
    ScalarExp,
    ScalarGamma,
    ScalarNormal,
    ScalarUniform,
)
from repro.sweeps import (
    SweepGrid,
    SweepStore,
    grid_summary_json,
    run_grid,
)


def run_both(app_name, seed, arrivals, rate, alloc_scale, **cfg_overrides):
    """One (reference, vectorized) simulation pair on identical inputs."""
    app = build_app(app_name)
    alloc = app.generous_allocation(rate).scale(alloc_scale)
    cfg = SimConfig(arrivals=arrivals, trace=True, **cfg_overrides)
    sims = []
    for cls in (ReferenceSimulator, MicroserviceSimulator):
        sim = cls(app, alloc, rate, config=cfg, seed=seed)
        metrics = sim.run(2.0, warmup=0.5)
        sims.append((sim, metrics))
    return sims


def span_tuples(sim):
    return [
        (s.request_id, s.service, s.start, s.end, s.cpu_time)
        for s in sim.traces.spans
    ]


class TestVariateStreams:
    """Block pre-draws serve the scalar draw sequence bit for bit."""

    @pytest.mark.parametrize(
        "scalar_cls,block_cls,args",
        [
            (ScalarExp, BlockExp, ()),
            (ScalarUniform, BlockUniform, ()),
            (ScalarNormal, BlockNormal, ()),
            (ScalarGamma, BlockGamma, (4.0,)),
        ],
    )
    def test_block_equals_scalar_across_refill(self, scalar_cls, block_cls, args):
        core_a, _ = spawn_streams(99, 0)
        core_b, _ = spawn_streams(99, 0)
        scalar = scalar_cls(core_a[0], *args)
        block = block_cls(core_b[0], *args)
        n = BLOCK + 100  # cross one refill boundary
        for i in range(n):
            assert scalar.next() == block.next(), f"draw {i} diverged"

    def test_spawn_streams_deterministic_and_independent(self):
        core_a, bg_a = spawn_streams(7, 2)
        core_b, bg_b = spawn_streams(7, 2)
        assert len(core_a) == 5 and len(bg_a) == 2
        for ga, gb in zip(core_a + bg_a, core_b + bg_b):
            assert ga.standard_normal() == gb.standard_normal()
        # Different purposes see different streams.
        core_c, _ = spawn_streams(7, 2)
        draws = {float(g.standard_normal()) for g in core_c}
        assert len(draws) == 5

    def test_gamma_shape_validated(self):
        core, _ = spawn_streams(0, 0)
        with pytest.raises(ValueError):
            BlockGamma(core[0], 0.0)
        with pytest.raises(ValueError):
            ScalarGamma(core[0], -1.0)


class TestPrecomputedSchedules:
    """Schedule precompute consumes the arrival stream in scalar order."""

    @pytest.mark.parametrize("rate", [10.0, 87.5, 400.0])
    def test_poisson_times_match_sequential_gaps(self, rate):
        horizon = 3.0
        gen_a = spawn_streams(11, 0)[0][0]
        gen_b = spawn_streams(11, 0)[0][0]
        times = poisson_times(BlockExp(gen_a), rate, horizon)
        scalar = PoissonArrivals(rate, gen_b)
        expected = [scalar.next_gap()]
        while expected[-1] <= horizon:
            t = expected[-1] + scalar.next_gap()
            if t > horizon:
                break
            expected.append(t)
        assert times == expected

    @pytest.mark.parametrize("rate", [25.0, 120.0])
    def test_mmpp_times_match_sequential_gaps(self, rate):
        horizon = 3.0
        gen_a = spawn_streams(23, 0)[0][0]
        gen_b = spawn_streams(23, 0)[0][0]
        times = mmpp_times(BlockExp(gen_a), rate, horizon)
        scalar = MMPPArrivals(rate, gen_b)
        expected = [scalar.next_gap()]
        while expected[-1] <= horizon:
            t = expected[-1] + scalar.next_gap()
            if t > horizon:
                break
            expected.append(t)
        assert times == expected


class TestFastEventQueue:
    def test_orders_by_time_then_sequence(self):
        q = FastEventQueue()
        q.push(2.0, EventKind.ARRIVAL, payload="late")
        q.push(1.0, EventKind.ARRIVAL, payload="early")
        q.push(1.0, EventKind.ARRIVAL, payload="tied-second")
        assert q.pop()[3] == "early"
        assert q.pop()[3] == "tied-second"
        assert q.now == 1.0
        assert q.peek_time() == 2.0

    def test_rejects_past_and_clamps_jitter(self):
        q = FastEventQueue()
        q.push(1.0, EventKind.ARRIVAL)
        q.pop()
        with pytest.raises(ValueError):
            q.push(0.5, EventKind.ARRIVAL)
        q.push(1.0 - 1e-12, EventKind.ARRIVAL)  # numeric jitter: clamped
        assert q.pop()[0] == 1.0


class TestBitIdentity:
    """The core contract, randomized: vectorized ≡ reference."""

    @settings(max_examples=12, deadline=None)
    @given(
        app_name=st.sampled_from(
            ["sockshop", "trainticket", "hotelreservation"]
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        arrivals=st.sampled_from(["poisson", "mmpp"]),
        rate=st.floats(min_value=20.0, max_value=150.0),
        alloc_scale=st.floats(min_value=0.25, max_value=2.0),
    )
    def test_traces_and_metrics_identical(
        self, app_name, seed, arrivals, rate, alloc_scale
    ):
        (ref, m_ref), (vec, m_vec) = run_both(
            app_name, seed, arrivals, rate, alloc_scale
        )
        assert m_ref == m_vec
        assert ref.window.started == vec.window.started
        assert ref.window.completed == vec.window.completed
        assert ref.in_flight == vec.in_flight
        assert span_tuples(ref) == span_tuples(vec)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        demand_cv=st.sampled_from([0.0, 0.5, 1.0]),
        wait_jitter=st.sampled_from([0.0, 0.1]),
        background=st.booleans(),
    )
    def test_identity_across_config_degrees(
        self, seed, demand_cv, wait_jitter, background
    ):
        # Degenerate configs exercise the no-draw paths (deterministic
        # demand, jitter-free waits, no background bursts).
        (ref, m_ref), (vec, m_vec) = run_both(
            "sockshop",
            seed,
            "mmpp",
            80.0,
            1.0,
            demand_cv=demand_cv,
            wait_jitter=wait_jitter,
            background=background,
        )
        assert m_ref == m_vec
        assert span_tuples(ref) == span_tuples(vec)

    def test_cross_mode_differs_from_other_seed(self):
        # Sanity: identity is not vacuous (different seeds diverge).
        (_, m_a), _ = run_both("sockshop", 1, "mmpp", 80.0, 1.0)
        (_, m_b), _ = run_both("sockshop", 2, "mmpp", 80.0, 1.0)
        assert m_a != m_b


class _Drift:
    """Mixin forcing the non-epoch-bumping re-arm paths.

    Once per job, a live CPU_DONE whose server would exhaust its quota
    within ``DRIFT`` seconds gets ``DRIFT`` added to the job's remaining
    work (the numerical-drift branch re-arms without bumping the epoch)
    and ``QUOTA_DRIFT`` added to the quota (so the earlier, still-live
    quota timer pops first and takes the non-throttling branch).  The
    vectorized mode parked that timer when it armed the CPU_DONE; only
    the flush in ``_resched`` puts it back in the heap.  Both modes apply
    the identical perturbation to identical state.
    """

    DRIFT = 2e-3
    QUOTA_DRIFT = 5e-4

    def _init_streams(self, core, background):
        super()._init_streams(core, background)
        self.drifted: set[int] = set()
        self.live_flushes = 0
        self.live_quota_pops: list[tuple[float, str, bool]] = []

    def _on_cpu_done(self, service, job_id, epoch):
        server = self.servers[service]
        if (
            epoch == server.epoch
            and job_id in server.jobs
            and job_id not in self.drifted
        ):
            n = len(server.jobs)
            elapsed = self.queue.now - server.last_advance
            if 0.0 < (server.quota_left - n * elapsed) / n < self.DRIFT:
                self.drifted.add(job_id)
                server.jobs[job_id].remaining += self.DRIFT
                server.quota_left += self.QUOTA_DRIFT
        super()._on_cpu_done(service, job_id, epoch)

    def _resched(self, server):
        parked = server.parked_quota
        if parked is not None and parked[4] == server.epoch:
            self.live_flushes += 1
        super()._resched(server)

    def _on_quota_exhaust(self, service, epoch):
        server = self.servers[service]
        live = epoch == server.epoch
        super()._on_quota_exhaust(service, epoch)
        if live:
            self.live_quota_pops.append(
                (self.queue.now, service, server.throttled)
            )


class _DriftReference(_Drift, ReferenceSimulator):
    pass


class _DriftVectorized(_Drift, MicroserviceSimulator):
    pass


class TestParkedQuotaTimer:
    """The deferred QUOTA_EXHAUST is flushed with its original key."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_live_parked_timer_flushed_on_drift(self, seed):
        app = build_app("sockshop")
        alloc = app.generous_allocation(150.0).scale(0.12)
        cfg = SimConfig(arrivals="poisson", trace=True)
        runs = []
        for cls in (_DriftReference, _DriftVectorized):
            sim = cls(app, alloc, 150.0, config=cfg, seed=seed)
            runs.append((sim, sim.run(1.5, warmup=0.3)))
        (ref, m_ref), (vec, m_vec) = runs
        assert ref.drifted == vec.drifted and ref.drifted
        assert vec.live_flushes > 0
        # Some flushed timers pop live without throttling.
        assert any(not throttled for _, _, throttled in ref.live_quota_pops)
        assert vec.live_quota_pops == ref.live_quota_pops
        assert m_ref == m_vec
        assert span_tuples(ref) == span_tuples(vec)
        assert {n: s.period_samples for n, s in ref.servers.items()} == {
            n: s.period_samples for n, s in vec.servers.items()
        }


class TestEventCount:
    """``events`` counts heap pops; the vectorized mode pops far fewer."""

    def test_des_cells_shape_cuts_events(self):
        # The des_cells benchmark cell shape: Poisson arrivals, 2.0 s
        # measured after 0.5 s of warmup, at each app's benchmark rate.
        for app_name, rps in (("sockshop", 150.0), ("hotelreservation", 200.0)):
            app = build_app(app_name)
            alloc = app.generous_allocation(rps)
            engines = [
                DESEngine(
                    app,
                    config=SimConfig(arrivals="poisson"),
                    sim_seconds=2.0,
                    warmup_seconds=0.5,
                    seed=7,
                    mode=mode,
                )
                for mode in ("reference", "vectorized")
            ]
            ref, vec = engines
            assert ref.observe(alloc, rps) == vec.observe(alloc, rps)
            assert vec.last_started == ref.last_started > 0
            assert 0 < vec.last_events <= 0.75 * ref.last_events
            # Counting is deterministic: a same-seed rerun pops the same.
            again = DESEngine(
                app,
                config=SimConfig(arrivals="poisson"),
                sim_seconds=2.0,
                warmup_seconds=0.5,
                seed=7,
            )
            again.observe(alloc, rps)
            assert again.last_events == vec.last_events

    @pytest.mark.parametrize("app_name,rps", [("sockshop", 150.0),
                                              ("hotelreservation", 200.0)])
    def test_des_cells_payload_bytes_identical(self, app_name, rps):
        def payload(mode):
            spec = ExperimentSpec.from_dict({
                "app": app_name,
                "workload": {"kind": "constant", "params": {"rps": rps}},
                "n_steps": 2,
                "seed": 7,
                "engine": {"kind": "des", "params": {
                    "sim_seconds": 2.0, "warmup_seconds": 0.5, "mode": mode,
                    "config": {"arrivals": "poisson"}}},
            })
            return json.dumps(_run_unit_worker(spec.to_dict(), 0), sort_keys=True)

        assert payload("reference") == payload("vectorized")


class TestEngineModes:
    def test_engine_mode_selection(self):
        app = build_app("sockshop")
        assert DESEngine(app).mode == "vectorized"
        assert DESEngine(app, mode="reference").mode == "reference"
        with pytest.raises(ValueError, match="mode"):
            DESEngine(app, mode="fast")

    def test_engine_payload_bytes_identical(self):
        # The whole sweep-cell payload — through the scalar worker — is
        # byte-identical between engine modes.
        def payload(mode):
            spec = ExperimentSpec(
                app="sockshop",
                workload=90.0,
                n_steps=2,
                seed=5,
                engine={
                    "kind": "des",
                    "params": {
                        "sim_seconds": 1.5,
                        "warmup_seconds": 0.5,
                        "mode": mode,
                    },
                },
            )
            return _run_unit_worker(spec.to_dict(), 0)

        assert json.dumps(payload("reference"), sort_keys=True) == json.dumps(
            payload("vectorized"), sort_keys=True
        )

    def test_observe_equal_metrics_per_call(self):
        app = build_app("trainticket")
        alloc = app.generous_allocation(60.0)
        vec = DESEngine(app, sim_seconds=1.5, warmup_seconds=0.5, seed=2)
        ref = DESEngine(
            app, sim_seconds=1.5, warmup_seconds=0.5, seed=2, mode="reference"
        )
        for _ in range(3):  # per-call seed derivation matches too
            assert vec.observe(alloc, 60.0) == ref.observe(alloc, 60.0)
            assert vec.last_completed == ref.last_completed
            assert vec.last_started == ref.last_started


def des_grid() -> SweepGrid:
    return SweepGrid(
        name="des_resume",
        base=ExperimentSpec(
            app="sockshop",
            workload=70.0,
            n_steps=2,
            seed=0,
            engine={
                "kind": "des",
                "params": {"sim_seconds": 1.0, "warmup_seconds": 0.25},
            },
        ).to_dict(),
        axes=(
            {"name": "workload", "path": "workload", "values": [70.0, 110.0]},
            {"name": "seed", "path": "seed", "values": [0, 1]},
        ),
    )


class TestDESSweepResume:
    def test_killed_des_sweep_resumes_byte_identical(self, tmp_path):
        """Kill a DES sweep mid-flight; the resume completes the grid with
        the exact bytes an uninterrupted run produces."""
        grid = des_grid()
        uninterrupted = run_grid(grid)

        class Killed(RuntimeError):
            pass

        store = SweepStore(tmp_path)

        def die_after_first_chunk(progress):
            if progress.chunk >= 1:
                raise Killed()

        with pytest.raises(Killed):
            run_grid(
                grid, store=store, chunk_size=1,
                on_progress=die_after_first_chunk,
            )
        assert 0 < len(store) < 4  # partial progress persisted

        resumed = run_grid(grid, store=store, chunk_size=1)
        assert resumed.report.cache_hits >= 1
        assert grid_summary_json(resumed) == grid_summary_json(uninterrupted)
        assert [a.to_json() for a in resumed.artifacts] == [
            a.to_json() for a in uninterrupted.artifacts
        ]
