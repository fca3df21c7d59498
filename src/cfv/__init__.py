"""cfv: change-focused formal verification for a small C subset.

Given two snapshots of a codebase and its regression tests, the toolkit
classifies function-level changes, proves or refutes the equivalence of
modified functions with a bounded bit-level encoding, selects the regression
tests that reach the functions that really changed, generalizes their inputs
to nondeterministic symbols, and bounded-model-checks the result, all inside
a wall-clock budget suitable for CI.

The library entry points (`run_pipeline`, `check_equivalence`, `verify_test`,
the snapshot loaders) run on the caller's stack and recurse once per nesting
level: an input nested near `minic.parser.MAX_NESTING` needs the deep stack
`cli.main` gives each command, and under Python's default limit can raise
RecursionError.
"""

__version__ = "0.1.0"
