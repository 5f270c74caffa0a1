"""Set-up probe: a fresh interpreter imports mpiga, builds one workload's
topology and runs its warm-up solve, then exits.

run.py times this script from start to exit for ``setup_s``:

    python3 perfbench/setup_probe.py nitsche-solve
"""

import sys

import env


def main(name):
    env.pin_blas_threads()
    env.import_mpiga()
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.warm_up(workload.build_topology())


if __name__ == "__main__":
    main(sys.argv[1])
