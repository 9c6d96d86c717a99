"""End-to-end preset flows through the Session API and report rendering."""

import pytest

from repro.api import PRESET_NAMES, FlowSpec, Session
from repro.flow import render_industrial, render_table2, render_table3
from repro.ir import Circuit


def _circuit():
    c = Circuit("demo")
    sel = c.input("sel", 2)
    S, R = c.input("S"), c.input("R")
    d = [c.input(f"d{i}", 8) for i in range(3)]
    case_part = c.case_(sel, [(0, d[0]), (1, d[1]), (2, d[0])], d[1])
    inner = c.mux(d[1], d[0], c.or_(S, R))
    c.output("y", c.xor(case_part, c.mux(d[2], inner, S)))
    return c.module


def _run(module, flow, **kwargs):
    """One preset over a private clone (sessions optimize in place)."""
    return Session(module.clone()).run(flow, **kwargs)


class TestRunFlow:
    def test_none_optimizer_measures_original(self):
        result = _run(_circuit(), "none")
        assert result.optimized_area == result.original_area
        assert result.reduction_vs_original == 0.0

    def test_all_optimizers_run_and_reduce(self):
        m = _circuit()
        areas = {opt: _run(m, opt).optimized_area for opt in PRESET_NAMES}
        assert areas["yosys"] <= areas["none"]
        assert areas["smartly"] <= areas["yosys"]
        assert areas["smartly"] <= areas["smartly-sat"]
        assert areas["smartly"] <= areas["smartly-rebuild"]

    def test_flow_does_not_mutate_input(self):
        """Suite jobs optimize private clones: the caller's module stays
        untouched."""
        m = _circuit()
        before = m.stats()
        report = Session().run_suite({"demo": m}, ("smartly",))["demo"][
            "smartly"]
        assert report.optimized_area < report.original_area
        assert m.stats() == before

    def test_equivalence_check_option(self):
        result = _run(_circuit(), "smartly", check=True)
        assert result.equivalence_checked

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            _run(_circuit(), FlowSpec.preset("magic"))

    def test_pass_stats_recorded(self):
        result = _run(_circuit(), "smartly")
        assert result.pass_stats
        assert result.runtime_s >= 0


class TestReports:
    def _results(self):
        m = _circuit()
        per = {
            opt: _run(m, opt)
            for opt in ("yosys", "smartly-sat", "smartly-rebuild", "smartly")
        }
        return {"wb_conmax": per}

    def test_table2_renders(self):
        text = render_table2(self._results())
        assert "wb_conmax" in text
        assert "Paper" in text and "27.79" in text
        assert "Average" in text

    def test_table3_renders(self):
        text = render_table3(self._results())
        assert "SAT" in text and "Rebuild" in text and "Full" in text
        assert "19.05" in text  # wb_conmax paper SAT column

    def test_industrial_renders(self):
        m = _circuit()
        results = {"ind_x": {opt: _run(m, opt) for opt in ("yosys", "smartly")}}
        text = render_industrial(results)
        assert "47.20" in text and "ind_x" in text
