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
    """A stand-in for sat_solve whose second call, the completeness query of
    solver.solve_bounded, moves the formula's deadline into the past; and
    the list of formulas it was called on. Install it over a module's
    sat_solve with monkeypatch."""
    calls = []

    def solve(formula, stats=None):
        calls.append(formula)
        if len(calls) == 2:
            formula.builder.deadline = time.monotonic() - 1
        return sat_solve(formula, stats=stats)

    return solve, calls
