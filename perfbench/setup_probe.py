"""Set-up probe: a fresh interpreter imports the program and runs one spec.

    python3 perfbench/setup_probe.py explicit-flow

``run.py`` times this whole process to report ``setup_s``.
"""

import sys

import harness


def main(workload_name: str) -> None:
    harness.use_source_tree()
    from draw import POOLS
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    spec = next(spec for spec in POOLS[workload.name] if spec.key == workload.setup_key)
    workload.run_spec(spec, spec.g_text(), harness.Tracer(False))


if __name__ == "__main__":
    main(sys.argv[1])
