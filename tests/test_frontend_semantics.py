"""End-to-end language semantics: compile MiniC, run it, compare with C.

Every case runs through the *naive* pipeline (no optimization) so it tests
the front end and interpreter, and the full ``vpo`` pipeline so it also
tests that optimization preserves semantics.
"""

import pytest

from repro.pipeline import compile_and_run

CONFIGS = ("naive", "vpo")


def run_both(source, entry, args, arrays=None, machine="alpha"):
    results = []
    for config in CONFIGS:
        value, _sim = compile_and_run(
            source, entry, args, machine, config, arrays=arrays
        )
        results.append(value)
    assert results[0] == results[1], "optimization changed the result"
    return results[0]


class TestArithmetic:
    def test_basic_ops(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2; }"
        assert run_both(src, "f", [9, 4]) == (13 * 5) // 2

    def test_division_truncates_toward_zero(self):
        src = "int f(int a, int b) { return a / b; }"
        assert run_both(src, "f", [-7, 2]) == -3
        assert run_both(src, "f", [7, -2]) == -3

    def test_remainder_sign_follows_dividend(self):
        src = "int f(int a, int b) { return a % b; }"
        assert run_both(src, "f", [-7, 2]) == -1
        assert run_both(src, "f", [7, -2]) == 1

    def test_unsigned_division(self):
        src = (
            "long f(unsigned long a, unsigned long b) { return a / b; }"
        )
        assert run_both(src, "f", [100, 7]) == 14

    def test_shifts(self):
        src = "int f(int a) { return (a << 3) + (a >> 1); }"
        assert run_both(src, "f", [5]) == 40 + 2

    def test_arithmetic_right_shift_of_negative(self):
        src = "int f(int a) { return a >> 2; }"
        assert run_both(src, "f", [-8]) == -2

    def test_logical_shift_for_unsigned(self):
        src = "long f(unsigned long a) { return a >> 1; }"
        _64 = (1 << 63)
        # High bit set: logical shift gives a large positive number.
        assert run_both(src, "f", [_64]) == _64 >> 1

    def test_bitwise_ops(self):
        src = "int f(int a, int b) { return (a & b) | (a ^ b); }"
        assert run_both(src, "f", [0b1100, 0b1010]) == 0b1110

    def test_unary_minus_and_not(self):
        src = "int f(int a) { return -a + ~a; }"
        assert run_both(src, "f", [5]) == -5 + ~5

    def test_logical_not(self):
        src = "int f(int a) { return !a + !!a; }"
        assert run_both(src, "f", [0]) == 1
        assert run_both(src, "f", [17]) == 1


class TestControlFlow:
    def test_if_else_chain(self):
        src = """
        int sign(int x) {
            if (x > 0) return 1;
            else if (x < 0) return -1;
            return 0;
        }
        """
        assert run_both(src, "sign", [42]) == 1
        assert run_both(src, "sign", [-3]) == -1
        assert run_both(src, "sign", [0]) == 0

    def test_while_loop(self):
        src = """
        int f(int n) {
            int s;
            s = 0;
            while (n > 0) { s += n; n--; }
            return s;
        }
        """
        assert run_both(src, "f", [10]) == 55
        assert run_both(src, "f", [0]) == 0

    def test_do_while_runs_once(self):
        src = """
        int f(int n) {
            int c;
            c = 0;
            do { c++; n--; } while (n > 0);
            return c;
        }
        """
        assert run_both(src, "f", [0]) == 1

    def test_for_with_break_continue(self):
        src = """
        int f(int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++) {
                if (i == 7) break;
                if (i % 2) continue;
                s += i;
            }
            return s;
        }
        """
        assert run_both(src, "f", [100]) == 0 + 2 + 4 + 6

    def test_short_circuit_and(self):
        src = """
        int g;
        int bump(int v) { g = g + 1; return v; }
        int f(int a) { return bump(a) && bump(0) && bump(1) ? 10 : g; }
        """
        # a = 0: bump called once -> g = 1.
        assert run_both(src, "f", [0]) == 1

    def test_short_circuit_or(self):
        src = """
        int g;
        int bump(int v) { g = g + 1; return v; }
        int f(int a) { bump(a) || bump(0) || bump(2); return g; }
        """
        assert run_both(src, "f", [5]) == 1
        assert run_both(src, "f", [0]) == 3

    def test_conditional_operator(self):
        src = "int f(int a, int b) { return a > b ? a - b : b - a; }"
        assert run_both(src, "f", [3, 9]) == 6

    def test_nested_loops(self):
        src = """
        int f(int n) {
            int i, j, s;
            s = 0;
            for (i = 0; i < n; i++)
                for (j = 0; j < i; j++)
                    s += i * j;
            return s;
        }
        """
        expected = sum(i * j for i in range(6) for j in range(i))
        assert run_both(src, "f", [6]) == expected


class TestMemoryAndPointers:
    def test_array_read_write(self):
        src = """
        int f(int *a, int n) {
            int i, s;
            for (i = 0; i < n; i++) a[i] = i * i;
            s = 0;
            for (i = 0; i < n; i++) s += a[i];
            return s;
        }
        """
        arrays = [("a", 4, [0] * 10)]
        assert run_both(src, "f", ["a", 10], arrays) == sum(
            i * i for i in range(10)
        )

    def test_narrow_types_signed_load(self):
        src = "int f(short *p) { return p[0] + p[1]; }"
        arrays = [("p", 2, [-5, 300])]
        assert run_both(src, "f", ["p"], arrays) == 295

    def test_narrow_types_unsigned_load(self):
        src = "int f(unsigned char *p) { return p[0] + p[1]; }"
        arrays = [("p", 1, [250, 250])]
        assert run_both(src, "f", ["p"], arrays) == 500

    def test_narrow_store_truncates(self):
        src = """
        int f(unsigned char *p) { p[0] = 300; return p[0]; }
        """
        arrays = [("p", 1, [0])]
        assert run_both(src, "f", ["p"], arrays) == 300 & 0xFF

    def test_pointer_deref_and_arith(self):
        src = """
        int f(int *p, int n) {
            int s;
            s = 0;
            while (n--) { s += *p; p++; }
            return s;
        }
        """
        arrays = [("p", 4, [1, 2, 3, 4])]
        assert run_both(src, "f", ["p", 4], arrays) == 10

    def test_address_of_local(self):
        src = """
        void set(int *p, int v) { *p = v; }
        int f() { int x; x = 1; set(&x, 41); return x + 1; }
        """
        assert run_both(src, "f", []) == 42

    def test_local_array(self):
        src = """
        int f(int n) {
            int buf[8];
            int i, s;
            for (i = 0; i < 8; i++) buf[i] = i + n;
            s = 0;
            for (i = 0; i < 8; i++) s += buf[i];
            return s;
        }
        """
        assert run_both(src, "f", [10]) == sum(i + 10 for i in range(8))

    def test_global_variable(self):
        src = """
        int counter;
        void tick() { counter += 1; }
        int f(int n) {
            int i;
            counter = 0;
            for (i = 0; i < n; i++) tick();
            return counter;
        }
        """
        assert run_both(src, "f", [9]) == 9

    def test_global_array(self):
        src = """
        short table[16];
        int f(int n) {
            int i, s;
            for (i = 0; i < n; i++) table[i] = i * 3;
            s = 0;
            for (i = 0; i < n; i++) s += table[i];
            return s;
        }
        """
        assert run_both(src, "f", [16]) == sum(3 * i for i in range(16))

    def test_pointer_difference(self):
        src = "long f(short *a, short *b) { return b - a; }"
        arrays = [("a", 2, [0] * 8)]
        value, sim = compile_and_run(
            "long f(short *a, long off) { return (a + off) - a; }",
            "f", ["a", 5], arrays=arrays,
        )
        assert value == 5

    def test_incdec_on_memory(self):
        src = """
        int f(int *p) { p[0]++; ++p[0]; p[0]--; return p[0]; }
        """
        arrays = [("p", 4, [10])]
        assert run_both(src, "f", ["p"], arrays) == 11

    def test_postfix_value_semantics(self):
        src = """
        int f() {
            int i, a;
            i = 5;
            a = i++;
            a = a * 10 + i++;
            return a * 10 + i;
        }
        """
        assert run_both(src, "f", []) == (5 * 10 + 6) * 10 + 7


class TestConversions:
    def test_cast_to_unsigned_char(self):
        src = "int f(int a) { return (unsigned char) a; }"
        assert run_both(src, "f", [300]) == 44
        assert run_both(src, "f", [-1]) == 255

    def test_cast_to_signed_char(self):
        src = "int f(int a) { return (char) a; }"
        assert run_both(src, "f", [200]) == 200 - 256

    def test_cast_to_short(self):
        src = "int f(int a) { return (short) a; }"
        assert run_both(src, "f", [0x18000]) == -0x8000

    def test_store_then_reload_narrow(self):
        src = """
        int f(short *p, int v) { p[0] = v; return p[0]; }
        """
        arrays = [("p", 2, [0])]
        assert run_both(src, "f", ["p", 0x12345], arrays) == 0x2345

    def test_sizeof_values(self):
        src = (
            "long f() { return sizeof(char) + sizeof(short) * 10 "
            "+ sizeof(int) * 100 + sizeof(long) * 1000 "
            "+ sizeof(int*) * 10000; }"
        )
        assert run_both(src, "f", []) == 1 + 20 + 400 + 8000 + 80000

    def test_sizeof_on_32bit_machine(self):
        src = "long f() { return sizeof(long) + sizeof(int*); }"
        value, _ = compile_and_run(src, "f", [], machine="m88100")
        assert value == 8


class TestRecursionAndCalls:
    def test_fibonacci(self):
        src = """
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        """
        assert run_both(src, "fib", [12]) == 144

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n-1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n-1); }
        """
        # Forward declarations are not supported; write without them.
        src = """
        int helper(int n, int parity) {
            if (n == 0) return parity;
            return helper(n - 1, 1 - parity);
        }
        int is_even(int n) { return helper(n, 1); }
        """
        assert run_both(src, "is_even", [10]) == 1
        assert run_both(src, "is_even", [7]) == 0

    def test_void_function_call(self):
        src = """
        int g;
        void set(int v) { g = v; }
        int f() { set(33); return g; }
        """
        assert run_both(src, "f", []) == 33
