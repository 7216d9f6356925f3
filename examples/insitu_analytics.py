#!/usr/bin/env python
"""Use case 1 — In-situ analytics next to a running neuro-simulation.

Reproduces the paper's first use case on the simulated two-node MN3
partition: a NEST simulation owns both nodes when a small Pils analytics job
is submitted.  The Serial scenario queues the analytics until the simulation
finishes; the DROM scenario shrinks the simulation and runs the analytics
immediately.

Run with::

    python examples/insitu_analytics.py [pils-config]

where ``pils-config`` is ``"Conf. 1"``, ``"Conf. 2"`` (default) or ``"Conf. 3"``.
"""

import sys

from repro.campaign import InSituWorkloadRef, run_scenario_pair
from repro.metrics.collect import relative_improvement
from repro.metrics.paraver import ParaverView


def main(pils_config: str = "Conf. 2") -> None:
    results = run_scenario_pair(InSituWorkloadRef("NEST", "Conf. 1", "Pils", pils_config))
    serial, drom = results["serial"], results["drom"]
    workload = drom.workload
    print(f"workload: {workload.name}\n")

    print(f"{'':24s}{'Serial':>12s}{'DROM':>12s}")
    print(f"{'total run time (s)':24s}{serial.metrics.total_run_time:12.0f}"
          f"{drom.metrics.total_run_time:12.0f}")
    for label in workload.job_labels():
        print(f"{label + ' response (s)':24s}"
              f"{serial.metrics.response_times()[label]:12.0f}"
              f"{drom.metrics.response_times()[label]:12.0f}")
    print(f"{'average response (s)':24s}{serial.metrics.average_response_time:12.0f}"
          f"{drom.metrics.average_response_time:12.0f}")

    total_gain = relative_improvement(
        serial.metrics.total_run_time, drom.metrics.total_run_time
    )
    response_gain = relative_improvement(
        serial.metrics.average_response_time, drom.metrics.average_response_time
    )
    print(f"\nDROM total run time gain:      {100 * total_gain:+.1f} %")
    print(f"DROM average response gain:    {100 * response_gain:+.1f} %")

    print("\nDROM scenario: CPUs used by each job over time "
          "(one column = 100 s, darker = wider):")
    view = ParaverView(drom.tracer, bin_seconds=100.0)
    print(view.render_job_widths(list(workload.job_labels())))

    changes = drom.tracer.mask_changes("NEST Conf. 1")
    print(f"\nNEST observed {len(changes)} DROM mask changes "
          f"(shrink when the analytics started, expansion when it finished).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "Conf. 2")
