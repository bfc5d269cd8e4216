"""Cold Weingarten builds, each in a fresh child process under a time budget.

``cold_grid`` times ``weingarten_table(p, n)`` for p <= 5 on both sides of
n = p; ``reach_p`` finds the largest p whose cold ``weingarten_table(p, p)``
finishes within the budget.  A child that outlives the budget is killed; a
child is also refused more than 2 GiB of address space, so a large p fails
instead of exhausting the machine.
"""

from __future__ import annotations

from .procs import run_child

BUDGET_S = 15.0
GRID = tuple((p, n) for p in range(2, 6) for n in range(2, p + 1))
REACH_MAX_P = 10

_BUILD = (
    "import resource, sys, time\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from halfcomm.haar import weingarten_table\n"
    "p, n = int(sys.argv[1]), int(sys.argv[2])\n"
    "start = time.perf_counter()\n"
    "weingarten_table(p, n, p_max=p)\n"
    "print(time.perf_counter() - start)\n"
)


def cold_build(p, n, budget=BUDGET_S):
    """Seconds for a cold build inside the child, or None if it did not finish."""
    res = run_child(["-c", _BUILD, str(p), str(n)], timeout=budget)
    return float(res.stdout) if res.exit_code == 0 and not res.timed_out else None


def cold_grid(budget=BUDGET_S):
    return {cell: cold_build(*cell, budget=budget) for cell in GRID}


def reach_p(grid, budget=BUDGET_S, max_p=REACH_MAX_P):
    """Largest p <= max_p such that every cold (q, q) build, q <= p, finished."""
    reached = 0
    for p in range(1, max_p + 1):
        seconds = grid[(p, p)] if (p, p) in grid else cold_build(p, p, budget)
        if seconds is None:
            break
        reached = p
    return reached
