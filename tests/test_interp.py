import pytest

from cfv.interp import InterpreterError, run_function
from cfv.snapshot import snapshot_from_sources

from oracles import AssertFailResult, OutOfFuelResult, PassResult, interpret_concrete


def snap(src: str, width: int = 8):
    return snapshot_from_sources({"t.c": src}, "t", width)


def run_test_fn(src: str, width: int = 8, fuel: int = 1_000_000):
    s = snap(src, width)
    body = next(f for f in s.functions.values() if f.name.startswith("test_"))
    return interpret_concrete(body, s, fuel)


class TestBasics:
    def test_arith_assert_passes(self):
        assert isinstance(run_test_fn("void test_a(){assert(1 + 1 == 2);}"), PassResult)

    def test_assert_false_fails_at_its_span(self):
        result = run_test_fn("void test_a(){\n    assert(false);\n}")
        assert isinstance(result, AssertFailResult)
        assert result.span.line == 2

    def test_infinite_loop_runs_out_of_fuel(self):
        result = run_test_fn("void test_a(){while (true) {} assert(true);}", fuel=10_000)
        assert isinstance(result, OutOfFuelResult)

    def test_nondet_rejected_without_values(self):
        with pytest.raises(InterpreterError):
            run_test_fn("void test_a(){int x = nondet_int(); assert(x == x);}")

    def test_assume_false_halts_as_pass(self):
        assert isinstance(
            run_test_fn("void test_a(){assume(false); assert(false);}"), PassResult
        )


class TestSemantics:
    def test_twos_complement_wrap(self):
        s = snap("int f(int x){return x + 1;}")
        out = run_function(s, s.functions["f"], [255])
        assert out.ret == 0

    def test_signed_comparison(self):
        s = snap("bool f(int x){return x < 0;}", width=4)
        assert run_function(s, s.functions["f"], [8]).ret is True  # 8 is -8
        assert run_function(s, s.functions["f"], [7]).ret is False

    def test_arithmetic_right_shift(self):
        s = snap("int f(int x){return x >> 1;}", width=4)
        assert run_function(s, s.functions["f"], [0b1000]).ret == 0b1100

    def test_shift_amount_masked(self):
        s = snap("int f(int x){return x << 9;}")
        assert run_function(s, s.functions["f"], [1]).ret == 2

    def test_short_circuit_skips_side_effects(self):
        src = """
        int hits = 0;
        bool bump(){hits = hits + 1; return true;}
        void test_a(){
            bool r = false && bump();
            assert(!r);
            assert(hits == 0);
            r = true || bump();
            assert(r);
            assert(hits == 0);
        }
        """
        assert isinstance(run_test_fn(src), PassResult)

    def test_out_of_bounds_read_is_a_violation(self):
        src = """
        int buf[2];
        void test_a(){int x = buf[5]; assert(x == x);}
        """
        result = run_test_fn(src)
        assert isinstance(result, AssertFailResult)

    def test_negative_index_is_a_violation(self):
        src = """
        int buf[2];
        void test_a(){buf[0 - 1] = 3; assert(true);}
        """
        assert isinstance(run_test_fn(src), AssertFailResult)

    def test_uninitialized_locals_are_zero(self):
        src = "void test_a(){int x; bool b; assert(x == 0); assert(!b);}"
        assert isinstance(run_test_fn(src), PassResult)

    def test_global_initializers_apply(self):
        src = """
        int g = 250;
        int arr[3];
        void test_a(){assert(g == 250); assert(arr[2] == 0);}
        """
        assert isinstance(run_test_fn(src), PassResult)

    def test_recursion_bottoms_out_with_fuel(self):
        src = """
        int down(int n){if (n <= 0) { return 0; } return down(n - 1);}
        void test_a(){assert(down(10) == 0);}
        """
        assert isinstance(run_test_fn(src), PassResult)

    def test_runaway_recursion_is_out_of_fuel(self):
        src = """
        int spin(int n){return spin(n + 1);}
        void test_a(){assert(spin(0) == 0);}
        """
        assert isinstance(run_test_fn(src), OutOfFuelResult)

    def test_trace_records_assignments(self):
        s = snap("int g; int f(int x){g = x + 1; int y = g * 2; return y;}")
        out = run_function(s, s.functions["f"], [3], record_trace=True)
        names = [name for _, name, _ in out.trace]
        assert names == ["g", "y"]
        assert out.ret == 8
