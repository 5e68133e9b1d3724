import math

import pytest
from hypothesis import given, settings, strategies as st

from symchar.errors import NotAUnit
from symchar.modring import (
    crt,
    factorize,
    mod_inverse,
    solve_bilinear_brute,
    solve_bilinear_congruence,
)


def check_solution(a, b, d, n, sol):
    g = math.gcd(n, d)
    assert (a * sol.j + b * sol.k + d * sol.j * sol.k) % n == g % n
    assert 0 <= sol.j < n and 0 <= sol.k < n


def test_mod_inverse():
    assert mod_inverse(5, 12) == 5
    assert mod_inverse(3, 7) == 5
    for a in range(1, 30):
        for n in range(2, 30):
            if math.gcd(a, n) == 1:
                assert (a * mod_inverse(a, n)) % n == 1


def test_mod_inverse_nonunit():
    with pytest.raises(NotAUnit):
        mod_inverse(4, 12)
    with pytest.raises(NotAUnit):
        mod_inverse(0, 5)


def test_factorize():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_crt():
    assert crt([1, 2], [3, 5]) == 7
    assert crt([0], [4]) == 0
    assert crt([2, 3, 2], [3, 4, 5]) == 47


def test_known_solutions():
    # both linear coefficients zero: the bilinear term alone carries the value
    sol = solve_bilinear_congruence(0, 0, 3, 9)
    assert (sol.j, sol.k) == (1, 1)
    # unit first coefficient: k = 0 and j = a^-1 * gcd
    sol = solve_bilinear_congruence(7, 0, 5, 12)
    assert (sol.j, sol.k) == (7, 0)
    check_solution(7, 0, 5, 12, sol)


def test_brute_is_lex_smallest():
    sol = solve_bilinear_brute(7, 0, 5, 12)
    check_solution(7, 0, 5, 12, sol)
    g = math.gcd(12, 5)
    for j in range(12):
        for k in range(12):
            if (j, k) == (sol.j, sol.k):
                return
            assert (7 * j + 5 * j * k) % 12 != g


def test_brute_small_sweep():
    for n in range(2, 10):
        for d in range(1, n + 1):
            sol = solve_bilinear_brute(1, 1, d, n)
            check_solution(1, 1, d, n, sol)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=59),
    st.integers(min_value=0, max_value=59),
    st.integers(min_value=1, max_value=59),
)
def test_crt_solver_always_exact(n, a, b, d):
    sol = solve_bilinear_congruence(a % n, b % n, d, n)
    check_solution(a % n, b % n, d, n, sol)
    assert sol.method == "crt"


def test_crt_matches_brute_existence():
    # the two methods may pick different pairs, but both must satisfy the
    # congruence, for every (a, b) over a composite sharing factors with d
    n, d = 24, 8
    for a in range(n):
        for b in range(n):
            fast = solve_bilinear_congruence(a, b, d, n)
            slow = solve_bilinear_brute(a, b, d, n)
            check_solution(a, b, d, n, fast)
            check_solution(a, b, d, n, slow)


def test_prime_power_descent():
    # v_p positive for a, b and d at once forces the cancellation branch
    sol = solve_bilinear_congruence(6, 10, 2, 16)
    check_solution(6, 10, 2, 16, sol)
    sol = solve_bilinear_congruence(3, 6, 3, 27)
    check_solution(3, 6, 3, 27, sol)
