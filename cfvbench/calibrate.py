"""A fixed pure-Python reference task that samples the host's current speed.

On a shared host the speed available to one process drifts by a quarter and
more over minutes, and both cfv and any pure-Python loop slow down together.
The benchmark times this task before and after every measured block, and
scales the block's time by NOMINAL_S over the mean of the samples taken near
the block. Times are thus reported in seconds of a host on which the task
takes NOMINAL_S.

The task does not touch cfv, so a change to cfv moves the scaled times by as
much as it moves the raw ones. It tokenizes and evaluates a fixed, seeded
program of assignments with a recursive-descent parser: interpreter dispatch,
string slicing, small objects and dict lookups, as in cfv's own frontend.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REPS = 10
# About what REPS repetitions took on the 2-vCPU host the benchmark was tuned on.
NOMINAL_S = 0.2
# Share of a block's time spent sampling after it. A long block spans many
# of the host's changes of speed, and one sample would catch only one.
DUTY = 0.1
EXPECTED = 6397381  # reference_task()'s result; a different value is a broken task


def _program(lines: int = 3000) -> str:
    rng = random.Random(12345)
    return "\n".join(
        f"v{rng.randrange(200)} = (v{rng.randrange(200)} + {rng.randrange(1000)})"
        f" * v{rng.randrange(200)} - {rng.randrange(50)};"
        for _ in range(lines)
    )


PROGRAM = _program()


def _tokens(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            tokens.append(c)
            i += 1
    return tokens


def reference_task() -> int:
    """Evaluate PROGRAM in 16-bit arithmetic; unset variables read as 1."""
    toks = _tokens(PROGRAM)
    env: dict[str, int] = {}
    pos = 0

    def atom() -> int:
        nonlocal pos
        t = toks[pos]
        pos += 1
        if t == "(":
            v = expr()
            pos += 1  # ")"
            return v
        return env.get(t, 1) if t[0] == "v" else int(t)

    def term() -> int:
        nonlocal pos
        v = atom()
        while toks[pos] == "*":
            pos += 1
            v = (v * atom()) & 0xFFFF
        return v

    def expr() -> int:
        nonlocal pos
        v = term()
        while toks[pos] in "+-":
            op = toks[pos]
            pos += 1
            w = term()
            v = (v + w if op == "+" else v - w) & 0xFFFF
        return v

    while pos < len(toks):
        name = toks[pos]
        pos += 2  # name "="
        env[name] = expr()
        pos += 1  # ";"
    return sum(env.values())


def reference_s() -> float:
    """Seconds REPS runs of the task take now."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(REPS):
        result = reference_task()
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference task gave {result}, expected {EXPECTED}")
    return elapsed


class HostSpeed:
    """Samples of the reference task's time, taken between measured blocks."""

    def __init__(self) -> None:
        reference_task()  # the first call runs cold; keep it out of the samples
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self.sample()

    def sample(self, after_s: float = 0.0) -> None:
        """Time the task once, or more often after a block of after_s seconds."""
        for _ in range(max(1, round(DUTY * after_s / NOMINAL_S))):
            start = time.perf_counter()
            seconds = reference_s()
            self.samples.append((start, time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """Factor for the block that ran from start to end.

        It averages the samples within one block length either side of the
        block, which always holds the two that flank it. The host's speed
        changes within seconds, so a short block is best matched by the
        samples right next to it; a long block spans many such changes, and
        is matched better by a mean over a span as long as itself.
        """
        reach = end - start
        near = [s for a, b, s in self.samples if b >= start - reach and a <= end + reach]
        return NOMINAL_S / statistics.fmean(near)
