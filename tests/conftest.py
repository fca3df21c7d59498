import time

import hypothesis
import pytest

from cfv.solver import sat_solve

hypothesis.settings.register_profile(
    "cfv", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("cfv")


@pytest.fixture
def second_call_past_deadline():
    """A solve_fn whose second call, the completeness query of
    solver.solve_bounded, gets a deadline that has already passed; and the
    list of formulas it was called on."""
    calls = []

    def solve(formula, deadline=None, stats=None):
        calls.append(formula)
        if len(calls) == 2:
            deadline = time.monotonic() - 1
        return sat_solve(formula, deadline=deadline, stats=stats)

    return solve, calls
