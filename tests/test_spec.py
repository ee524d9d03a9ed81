"""AppSpec / ServiceSpec / Stage / RequestClass validation and helpers."""

import pytest

from repro.apps.spec import AppSpec, RequestClass, ServiceSpec, Stage


def svc(name="s", **kw):
    defaults = dict(cpu_demand=0.001, latency_floor=0.01)
    defaults.update(kw)
    return ServiceSpec(name=name, **defaults)


class TestServiceSpec:
    def test_valid(self):
        s = svc(tier="db", language="mysql", burstiness=2.0)
        assert s.tier == "db"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_demand": -1.0},
            {"latency_floor": 0.0},
            {"burstiness": 0.0},
            {"baseline_cores": -0.1},
            {"tier": "weird"},
            {"memory_mb": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            svc(**kwargs)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            ServiceSpec(name="", cpu_demand=0.001, latency_floor=0.01)


class TestStage:
    def test_seq(self):
        st = Stage.seq("a", 2.0)
        assert st.parallel == (("a", 2.0),)

    def test_fanout_mixed(self):
        st = Stage.fanout("a", ("b", 0.5))
        assert st.parallel == (("a", 1.0), ("b", 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Stage(())

    def test_nonpositive_visits(self):
        with pytest.raises(ValueError):
            Stage((("a", 0.0),))


class TestRequestClass:
    def test_visits_aggregation(self):
        rc = RequestClass(
            name="r",
            weight=1.0,
            stages=(Stage.seq("a"), Stage.fanout("a", ("b", 0.5))),
        )
        assert rc.visits() == {"a": 2.0, "b": 0.5}

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            RequestClass(name="r", weight=0.0, stages=(Stage.seq("a"),))

    def test_needs_stages(self):
        with pytest.raises(ValueError):
            RequestClass(name="r", weight=0.5, stages=())


class TestAppSpec:
    def make(self, **kw):
        defaults = dict(
            name="app",
            services=(svc("a"), svc("b")),
            request_classes=(
                RequestClass(
                    name="r", weight=1.0, stages=(Stage.seq("a"), Stage.seq("b"))
                ),
            ),
            slo=0.1,
        )
        defaults.update(kw)
        return AppSpec(**defaults)

    def test_valid(self):
        app = self.make()
        assert app.n_services == 2

    def test_duplicate_services(self):
        with pytest.raises(ValueError):
            self.make(services=(svc("a"), svc("a")))

    def test_unknown_service_in_plan(self):
        with pytest.raises(ValueError):
            self.make(
                request_classes=(
                    RequestClass(name="r", weight=1.0, stages=(Stage.seq("zzz"),)),
                )
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            self.make(
                request_classes=(
                    RequestClass(name="r", weight=0.5, stages=(Stage.seq("a"),)),
                )
            )

    def test_visit_rates(self, tiny_app):
        rates = tiny_app.visit_rates
        # front: 1 visit in both classes
        assert rates["front"] == pytest.approx(1.0)
        # db: 1 visit read (0.7) + 2 visits write (0.3)
        assert rates["db"] == pytest.approx(0.7 * 1 + 0.3 * 2)
        # cache: 0.8 visits in read only
        assert rates["cache"] == pytest.approx(0.7 * 0.8)

    def test_uniform_allocation(self, tiny_app):
        a = tiny_app.uniform_allocation(0.5)
        assert a.total() == pytest.approx(0.5 * 4)

    def test_generous_allocation_headroom(self, tiny_app):
        small = tiny_app.generous_allocation(100.0, headroom=1.5)
        large = tiny_app.generous_allocation(100.0, headroom=3.0)
        assert large.total() > small.total()
        assert all(large[n] >= 0.2 for n in large)

    def test_service_lookup(self, tiny_app):
        assert tiny_app.service("front").tier == "frontend"
        with pytest.raises(KeyError):
            tiny_app.service("zzz")
