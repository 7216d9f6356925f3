#!/usr/bin/env python
"""Use case 2 — A high-priority job arrives while a simulation is running.

Reproduces the paper's second use case: a long NEST simulation occupies both
nodes when a high-priority CoreNeuron job is submitted.  Without DROM the new
job waits in the queue; with DROM the node CPUs are equipartitioned (one
socket per job), the high-priority job starts immediately, and it expands to
the full nodes when NEST finishes.

Run with::

    python examples/high_priority_job.py
"""

from repro.experiments.usecase2 import run_usecase2


def main() -> None:
    result = run_usecase2()

    print("Use case 2: NEST Conf. 1 + high-priority CoreNeuron Conf. 1\n")
    print(f"Serial total run time: {result.serial_total_run_time:8.0f} s")
    print(f"DROM   total run time: {result.drom_total_run_time:8.0f} s"
          f"   (gain {100 * result.total_run_time_gain:+.1f} %)")
    print(f"Serial average response: {result.serial_average_response:6.0f} s")
    print(f"DROM   average response: {result.drom_average_response:6.0f} s"
          f"   (gain {100 * result.average_response_gain:+.1f} %)\n")

    waits = result.wait_times()
    print("high-priority job wait time:")
    print(f"  Serial: {waits['serial'][result.coreneuron_label]:.0f} s")
    print(f"  DROM:   {waits['drom'][result.coreneuron_label]:.0f} s (starts immediately)\n")

    print("Mean IPC per job (the two scenarios should be comparable, Figure 14):")
    for job, (serial_ipc, drom_ipc) in result.ipc_comparison().items():
        print(f"  {job:24s} Serial {serial_ipc:.2f}   DROM {drom_ipc:.2f}")

    print(f"\nCoreNeuron expanded to the full nodes after NEST ended: "
          f"{result.coreneuron_expanded()}\n")

    print("Serial scenario timeline (thread count per job, one column = 200 s):")
    print(result.cycles_rendering("serial"))
    print("\nDROM scenario timeline:")
    print(result.cycles_rendering("drom"))


if __name__ == "__main__":
    main()
