#!/usr/bin/env python3
"""One cold set-up of a workload in a fresh process.

    python3 perfbench/cold_setup.py WORKLOAD SEED SCRATCH_DIR

Imports the package from ``src/``, builds the workload's inputs from the seed
(``make_dilation`` and plant construction included) and prints
``time.perf_counter()`` at the end of that set-up.  ``run.py`` starts this
several times and takes each set-up as that reading minus its own clock
just before the start, so the interpreter's start-up counts too.
"""

import sys
from pathlib import Path
from time import perf_counter

from run import _import_package


def main(argv=None) -> int:
    workload, seed, scratch = argv if argv is not None else sys.argv[1:]
    _import_package()
    import workloads

    wl = workloads.make(workload, Path(__file__).resolve().parent.parent, Path(scratch))
    wl.setup(int(seed))
    print(repr(perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
