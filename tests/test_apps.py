"""The three prototype applications match the paper's descriptions."""

import pytest

from repro.apps import CALIBRATIONS, app_names, build_app
from repro.sim import AnalyticalEngine


class TestRegistry:
    def test_names(self):
        assert app_names() == ("hotelreservation", "sockshop", "trainticket")

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            build_app("nope")

    def test_scale_overrides(self):
        base = build_app("sockshop")
        double = build_app("sockshop", demand_scale=CALIBRATIONS["sockshop"].demand_scale * 2)
        assert double.service("frontend").cpu_demand == pytest.approx(
            2 * base.service("frontend").cpu_demand
        )


class TestPaperDimensions:
    """Service counts and SLOs straight from §2.1."""

    @pytest.mark.parametrize(
        "name,count,slo",
        [
            ("sockshop", 13, 0.250),
            ("trainticket", 41, 0.900),
            ("hotelreservation", 18, 0.050),
        ],
    )
    def test_counts_and_slos(self, name, count, slo):
        app = build_app(name)
        assert app.n_services == count
        assert app.slo == pytest.approx(slo)

    def test_probe_services_exist(self):
        tt = build_app("trainticket")
        for name in ("seat", "basic", "ticketinfo"):
            tt.service(name)
        ss = build_app("sockshop")
        for name in ("carts", "orders", "frontend"):
            ss.service(name)
        hr = build_app("hotelreservation")
        for name in ("frontend", "search"):
            hr.service(name)

    @pytest.mark.parametrize("name", ["sockshop", "trainticket", "hotelreservation"])
    def test_every_service_is_reachable(self, name):
        """No dead services: every service appears in some request plan."""
        app = build_app(name)
        rates = app.visit_rates
        unused = [svc for svc, v in rates.items() if v <= 0]
        assert unused == []

    @pytest.mark.parametrize("name", ["sockshop", "trainticket", "hotelreservation"])
    def test_frontend_on_every_path(self, name):
        app = build_app(name)
        entry = {"sockshop": "frontend", "trainticket": "gateway",
                 "hotelreservation": "frontend"}[name]
        for rc in app.request_classes:
            first_stage_services = [s for s, _ in rc.stages[0].parallel]
            assert first_stage_services == [entry]


class TestCalibration:
    """The fitted scales put the optima near the paper's totals."""

    @pytest.mark.parametrize("name", ["sockshop", "trainticket", "hotelreservation"])
    def test_bottleneck_total_near_target(self, name):
        cal = CALIBRATIONS[name]
        app = build_app(name)
        engine = AnalyticalEngine(app)
        total = engine.bottleneck_allocation(cal.reference_workload).total()
        assert total == pytest.approx(cal.target_optimum_total, rel=0.05)

    @pytest.mark.parametrize("name", ["sockshop", "trainticket", "hotelreservation"])
    def test_generous_allocation_satisfies_slo(self, name):
        cal = CALIBRATIONS[name]
        app = build_app(name)
        engine = AnalyticalEngine(app)
        gen = app.generous_allocation(cal.reference_workload)
        lat = engine.noiseless_latency(gen, cal.reference_workload)
        assert lat < 0.8 * app.slo

    def test_fig8_probe_utilizations(self):
        """seat/basic/ticketinfo bottleneck utilizations span ~15-25%."""
        app = build_app("trainticket")
        engine = AnalyticalEngine(app)
        wl = 200.0
        b = engine.bottleneck_allocation(wl)
        mean = engine._mean_concurrency(wl)
        utils = {}
        for name in ("seat", "basic", "ticketinfo"):
            i = app.service_names.index(name)
            utils[name] = mean[i] / b[name]
        assert 0.10 < utils["seat"] < 0.20
        assert 0.15 < utils["basic"] < 0.25
        assert 0.20 < utils["ticketinfo"] < 0.30
        assert utils["seat"] < utils["basic"] < utils["ticketinfo"]
