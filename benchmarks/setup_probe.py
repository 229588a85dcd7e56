"""Fresh-interpreter set-up of one workload: import wfalloc, build the inputs.

run.py times this whole process for ``setup_s``:
    PYTHONPATH=src python3 benchmarks/setup_probe.py <workload> <seed> <size>
"""

import sys


def main(argv):
    import workloads

    name, seed, size = argv
    workloads.WORKLOADS[name](workloads.SIZES[size], int(seed)).build()


if __name__ == "__main__":
    main(sys.argv[1:])
