"""Headline-shape tests: the paper's qualitative results must hold.

These tests assert the *shape* of every result the paper reports (who wins,
by roughly what factor, where the crossovers are) rather than the absolute
MareNostrum III numbers, which a simulation cannot match.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.usecase1 import (
    imbalance_trace,
    scenario_timelines,
    simulator_average_response,
    simulator_pils_run_time,
    simulator_stream,
)
from repro.experiments.usecase2 import run_usecase2
from repro.experiments.tables import (
    render_average_response_figure,
    render_response_figure,
    render_run_time_figure,
    render_table1,
)


@pytest.fixture(scope="module")
def nest_pils():
    return simulator_pils_run_time("NEST")


@pytest.fixture(scope="module")
def neuron_pils():
    return simulator_pils_run_time("CoreNeuron")


@pytest.fixture(scope="module")
def uc2():
    return run_usecase2()


class TestFigure4And9_TotalRunTime:
    def test_drom_never_loses(self, nest_pils, neuron_pils):
        for comparison in nest_pils + neuron_pils:
            assert comparison.total_run_time_gain >= -0.005, comparison.workload

    def test_gains_in_paper_ballpark(self, nest_pils):
        """Roughly 6 % gains for Pils Conf. 2/3, near-parity for Conf. 1."""
        by_conf = {
            (c.simulator_config, c.analytics_config): c.total_run_time_gain
            for c in nest_pils
        }
        for sim_conf in ("Conf. 1", "Conf. 2"):
            assert 0.02 <= by_conf[(sim_conf, "Conf. 2")] <= 0.15
            assert 0.02 <= by_conf[(sim_conf, "Conf. 3")] <= 0.15
            assert -0.01 <= by_conf[(sim_conf, "Conf. 1")] <= 0.06

    def test_coreneuron_results_similar_to_nest(self, nest_pils, neuron_pils):
        """The paper: 'Results are very similar to NEST workloads'."""
        nest_gains = np.array([c.total_run_time_gain for c in nest_pils])
        neuron_gains = np.array([c.total_run_time_gain for c in neuron_pils])
        assert np.allclose(nest_gains, neuron_gains, atol=0.04)


class TestFigure5_Imbalance:
    def test_orphan_chunks_go_to_a_few_threads(self):
        trace = imbalance_trace()
        # Figure 5: the removed thread's data is computed by the first 4
        # threads, the others show idle time.
        assert len(trace.overloaded_threads) == 4
        assert len(trace.underloaded_threads) == 11
        assert all(u < 1.0 for t, u in trace.shrunk_utilisation.items()
                   if t in trace.underloaded_threads)
        assert trace.mask_changes >= 2
        assert "NEST" in trace.rendering


class TestFigure6And10_ResponseTimes:
    def test_analytics_response_collapses(self, nest_pils, neuron_pils):
        """Pils response time decreases by ~90 % (paper: up to 96 %)."""
        for comparison in nest_pils + neuron_pils:
            assert comparison.analytics_response_reduction >= 0.80

    def test_simulator_penalty_is_small(self, nest_pils, neuron_pils):
        """The simulator's response time grows only a few percent (paper: up
        to 4.2 % with Pils, 6.7 % worst case)."""
        for comparison in nest_pils + neuron_pils:
            assert comparison.simulator_response_change <= 0.09


class TestFigure7And11_Stream:
    def test_total_run_time_always_better_with_stream(self):
        """Memory-bound + compute-bound co-location always wins (paper: NEST
        1.84 % average, CoreNeuron up to 8 %)."""
        for simulator in ("NEST", "CoreNeuron"):
            for comparison in simulator_stream(simulator):
                assert 0.0 < comparison.total_run_time_gain <= 0.12
                assert comparison.analytics_response_reduction >= 0.85
                assert comparison.simulator_response_change <= 0.07


class TestFigure8And12_AverageResponse:
    def test_average_response_gain_range(self):
        """The paper: gains between 37 % and 48 % (NEST), ~46.5 % (CoreNeuron)."""
        for simulator in ("NEST", "CoreNeuron"):
            for comparison in simulator_average_response(simulator):
                assert 0.30 <= comparison.average_response_gain <= 0.55


class TestFigures13To15_UseCase2:
    def test_total_run_time_improves(self, uc2):
        assert uc2.total_run_time_gain > 0.0

    def test_high_priority_job_starts_immediately(self, uc2):
        waits = uc2.wait_times()
        assert waits["drom"][uc2.coreneuron_label] == 0.0
        assert waits["serial"][uc2.coreneuron_label] > 0.0

    def test_average_response_improves(self, uc2):
        assert uc2.average_response_gain > 0.0

    def test_ipc_comparable_between_scenarios(self, uc2):
        """Figure 14: the histograms of the two scenarios are comparable; the
        DROM run shows slightly *higher* IPC (better locality at 8 threads)."""
        for job, (serial_ipc, drom_ipc) in uc2.ipc_comparison().items():
            assert drom_ipc == pytest.approx(serial_ipc, rel=0.20), job
            assert drom_ipc >= serial_ipc * 0.98

    def test_coreneuron_expands_when_nest_ends(self, uc2):
        assert uc2.coreneuron_expanded()

    def test_ipc_histograms_have_mass(self, uc2):
        hists = uc2.ipc_histograms("drom")
        assert all(h.sum() > 0 for h in hists.values())

    def test_cycles_rendering_produced(self, uc2):
        text = uc2.cycles_rendering("drom")
        assert uc2.nest_label in text and uc2.coreneuron_label in text


class TestFigure3_Timelines:
    def test_serial_and_drom_orderings(self):
        timelines = scenario_timelines()
        serial, drom = timelines["serial"], timelines["drom"]
        nest_serial = serial.job_intervals["NEST Conf. 1"]
        pils_serial = serial.job_intervals["Pils Conf. 2"]
        # Serial: the analytics runs strictly after the simulation.
        assert pils_serial[0] >= nest_serial[1] - 1e-6
        nest_drom = drom.job_intervals["NEST Conf. 1"]
        pils_drom = drom.job_intervals["Pils Conf. 2"]
        # DROM: the analytics overlaps the simulation.
        assert pils_drom[0] < nest_drom[1]


class TestRenderings:
    def test_table1_rendering(self):
        text = render_table1()
        assert "NEST" in text and "2 x 16" in text

    def test_figure_renderings(self, nest_pils):
        assert "DROM gain" in render_run_time_figure(nest_pils)
        assert "Ana resp reduction" in render_response_figure(nest_pils)
        assert "Gain" in render_average_response_figure(nest_pils)
