"""Time one cold set-up of a workload in a fresh interpreter.

Prints the seconds from just before `import sedwitness` to the end of the
workload's one-time set-up (for example `build_vprime(8)` on `readout`),
then the speed scale of the Python probe kernel measured right after it
(see speed.py). Run by run.py several times per run; `setup_s` is the
median of their products.

    python3 perfbench/setup_probe.py readout
"""

import sys
from time import perf_counter

import source


def main(workload: str) -> int:
    source.pin_blas_threads()
    if not (source.SRC / "sedwitness" / "__init__.py").is_file():
        return 2
    sys.path.insert(0, str(source.SRC))
    t0 = perf_counter()
    import sedwitness  # noqa: F401  (the import is what is timed)
    import workloads

    wl = workloads.WORKLOADS[workload](source.OUT_DIR, 0)
    wl.setup()
    elapsed = perf_counter() - t0
    import speed

    print(repr(elapsed), repr(speed.reference_scale("python")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
