"""The SIMD dispatch targets that numpy finds on this CPU.

    python tools/dispatch_targets.py           # print them on one line
    python tools/dispatch_targets.py --none    # exit 1 if any is found

The printed line, its targets separated by spaces, is a value of
NPY_DISABLE_CPU_FEATURES that holds numpy's dispatch to its baseline.
With that value set, --none checks that it took effect: it prints the
targets numpy still finds and exits 1 if there are any, so that a run
meant for the baseline cannot silently run at the default level.
"""

import sys

from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                           __cpu_features__)


def found():
    """The dispatch targets numpy found on this CPU, in its order."""
    return [x for x in __cpu_dispatch__ if __cpu_features__[x]]


def main(argv):
    if argv not in ([], ["--none"]):
        print(__doc__, file=sys.stderr)
        return 2
    targets = found()
    if not argv:
        print(" ".join(targets))
        return 0
    print("dispatch targets still found:", targets)
    return 1 if targets else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
