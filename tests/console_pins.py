"""Pinned counts of `irredtest run`, each command line written once.

An entry is (the arguments after `run`, (N, k) or (N, k, outcome), exit
code).  tests/test_cli.py runs EXTENSION_PINS and PINS in process; this file
runs every list, CI_ONLY_PINS too, through a console command:

    python tests/console_pins.py irredtest
    PYTHONPATH=src python tests/console_pins.py python -m irredtest.cli
"""

import json
import subprocess
import sys

# taken when extension elements were coordinate tuples, not indices
EXTENSION_PINS = [
    # GF(16) on log and Zech tables
    (["--field", "2^4:1,1,0,0,1", "--poly", "x1*x2 + {0,1}*x3^3 + {1,1}", "-n", "3",
      "--exact"], (4096, 288, None), 0),
    # GF(7^4) is above TABLE_CAP, so these two run on schoolbook arithmetic
    (["--field", "7^4:1,1,0,0,1", "--poly", "x1^3+{0,1}", "-n", "1", "--exact"],
     (2401, 3, None), 0),
    (["--field", "7^4:1,1,0,0,1", "--poly", "x1*x2+{0,1}*x1^3+{1,1}", "-n", "2",
      "-N", "3000", "--seed", "2"], (3000, 3, None), 0),
    (["--field", "3^2:1,0,1", "--poly", "(x1 + {0,1}*x2)*(x2 + x3 + 1)", "-n", "3",
      "--seed", "5"], (3889, 802, "LikelyReducible"), 3),
]

PINS = [
    # a sampled verdict at the compat plan, from lane-packed Philox batches
    # that must match the one-stream-per-point counts
    (["--poly", "x1*x2 + x3", "-q", "7", "-n", "3", "--compat-s258", "--seed", "1"],
     (28373, 4056), 0),
    # over GF(2147483659) about half the words are rejected, so some points
    # draw past their batched blocks into the stream's own refill
    (["--poly", "x1^1073741829*x2^1073741829 - 1", "-q", "2147483659", "-n", "2",
      "-N", "2000", "--seed", "1"], (2000, 1007), 0),
    # points of 10 coordinates take 3 blocks each: a batch is one lane-packed
    # call with a lane per (stream, block)
    (["--fixture", "singular", "-q", "3", "--ext-bound", "2", "-N", "300", "--seed", "1"],
     (300, 118), 0),
    (["--poly", "x1*x2*x3*x4*x5*x6*x7*x8*x9*x10 + x1 + 2", "-q", "3", "-n", "10",
      "-N", "3000", "--seed", "4"], (3000, 1041), 0),
    # the trap fixture's stream draws its coefficients in bulk, through three
    # lane-packed refills of 32, 64 and 218 blocks
    (["--fixture", "trap", "-q", "7", "--fixture-seed", "3", "--exact"], (2401, 605), 0),
    # the largest trap domain, 13^4 points, through the fixture's value table
    (["--fixture", "trap", "-q", "13", "--fixture-seed", "3", "--exact"], (28561, 2165), 0),
    # sampled trap verdicts at the compat plans: mod 7 the trap is caught as
    # reducible (exit 3), mod 11 it is kept (exit 0)
    (["--fixture", "trap", "-q", "7", "--fixture-seed", "3", "--compat-s258", "--seed", "5"],
     (647, 161), 3),
    (["--fixture", "trap", "-q", "11", "--fixture-seed", "3", "--compat-s258",
      "--seed", "5"], (634, 62), 0),
    # the parser merges meeting terms and drops zero sums, within a product
    # and across a sum, over F_7 and over GF(9)
    (["--poly", "(x1 + 1)*(x1 - 1) - x1^2 + 1", "-q", "7", "-n", "1", "--exact"],
     (7, 7), 0),
    (["--poly", "0*x1*(x2 + 1) + (x1 - x1)*x2 + x2*(x1 + {0,1})", "--field", "3^2:1,0,1",
      "-n", "2", "--exact"], (81, 17), 0),
    # every GF(2) cubic form through the lane-packed singular probe
    (["--fixture", "singular", "-q", "2", "--ext-bound", "4", "--exact"], (1024, 688), 0),
    # every GF(3) conic through the GF(9) stage, on log and Zech tables
    (["--fixture", "singular", "-q", "3", "-d", "2", "--ext-bound", "2", "--exact"],
     (729, 261), 0),
    # GF(2^10), the largest field with tables, built when the field is made
    (["--field", "2^10:1,0,0,1,0,0,0,0,0,0,1", "--poly", "x1^3 + {0,1}*x1 + 1", "-n", "1",
      "--exact"], (1024, 3), 0),
    # over GF(6148914691236517223) about a third of the 64-bit draws are
    # rejected, so each point's batch holds the blocks its rejections expect
    (["--poly", "x1^3074457345618258611*x2^3074457345618258611 - 1",
      "-q", "6148914691236517223", "-n", "2", "-N", "2000", "--seed", "1"], (2000, 973), 0),
    # odd-p cubics through a GF(25) stage: each point sums f's value first and
    # a partial only where every sum so far is zero
    (["--fixture", "singular", "-q", "5", "-d", "3", "--ext-bound", "2", "-N", "60",
      "--seed", "1"], (60, 19), 0),
    # points of 64 coordinates take 16 blocks each: the batches are philox4x32
    # calls of 4,096, 4,096 and 1,408 lanes
    (["--poly", "x1*x2 + x64", "-q", "7", "-n", "64", "-N", "600", "--seed", "1"],
     (600, 96), 0),
    # cubics at the default bound (3-1)^2 = 4: stage tables over GF(3), GF(9),
    # GF(27) and GF(81), built column by column
    (["--fixture", "singular", "-q", "3", "-N", "20", "--seed", "1"], (20, 10), 0),
]

_TERM_10000 = "*".join(f"x{i}" for i in range(1, 10001)) + " + 1"

# seconds each through the console script, so run only here, with a 60 s timeout
CI_ONLY_PINS = [
    # a term in 10,000 variables: parsing is linear in the text, and the
    # evaluator takes one Horner level per variable
    (["--poly", _TERM_10000, "-q", "7", "-n", "10000", "-N", "50", "--seed", "1"], (50, 0), 0),
    # the same term over GF(4), through the same generated Horner code
    (["--poly", _TERM_10000, "--field", "2^2:1,1,1", "-n", "10000", "-N", "50", "--seed", "1"],
     (50, 0), 0),
    # every GF(3) cubic form through the value-first tuple probe
    (["--fixture", "singular", "-q", "3", "--ext-bound", "2", "--exact"], (59049, 25065), 0),
    # matrix_rank over a table-backed extension at every point of GF(8)^5
    (["--fixture", "curve", "--field", "2^3:1,1,0,1", "--exact"], (32768, 386), 0),
]


def check(argv, want, code, status, out):
    """Assert that a run's exit status and JSON report match its pin; a
    planned run (neither -N nor --exact) also reports its plan."""
    report = json.loads(out)
    got = (report["N"], report["k"], report.get("outcome"))[: len(want)]
    assert (got, status) == (want, code), f"got {got}, exit {status}"
    planned = not {"-N", "--exact"} & set(argv)
    assert "elapsed" in report and (not planned or {"p1", "threshold_k"} <= report.keys())


def main(command):
    failed = 0
    for pins, timeout in ((EXTENSION_PINS + PINS, None), (CI_ONLY_PINS, 60)):
        for argv, want, code in pins:
            shown = " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv)
            proc = subprocess.run(
                [*command, "run", *argv], capture_output=True, text=True, timeout=timeout
            )
            try:
                check(argv, want, code, proc.returncode, proc.stdout)
            except (AssertionError, ValueError, KeyError) as exc:
                failed += 1
                print(f"FAIL run {shown}: {exc}\n{proc.stderr}", end="")
            else:
                print(f"ok   run {shown}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/console_pins.py <command...>")
    sys.exit(main(sys.argv[1:]))
