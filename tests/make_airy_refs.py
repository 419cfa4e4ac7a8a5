"""Print the frozen decaying-branch references of test_wkb_core.

    python3 tests/make_airy_refs.py

Evaluates y1m = Ai'/Ai, its companion y2m and their a-derivatives d1m,
d2m (the formulas of `wkb_core._near_field` with w = 0) with mpmath at 50
digits, at the float64 value of each point, and prints them to 30
significant digits as the FORBIDDEN_KERNEL_REF literal.  Needs mpmath
(1.3.0 was used); neither the library nor the tests import it.  Not
collected by pytest (no test_ prefix).
"""

import mpmath as mp

# five points in [3.5, 5], where a Maclaurin-summed Ai cancels about five
# digits, and three spread over the rest of [0, ASYM_RADIUS)
POINTS = (1.0, 3.6, 4.1, 4.39, 4.47, 4.95, 6.5, 8.9)


def decaying_branch(x):
    """(y1m, y2m, d1m, d2m) at the float x."""
    a = mp.mpf(x)
    y1 = mp.airyai(a, derivative=1) / mp.airyai(a)
    d1 = a - y1 * y1
    y2 = (8 * a * a * d1 - 4 * a * y1 - 3) / 30
    d2 = (2 * a * d1 - y1) / 3 - 2 * y1 * y2
    return y1, y2, d1, d2


def main():
    mp.mp.dps = 50
    print("FORBIDDEN_KERNEL_REF = {")
    for x in POINTS:
        rows = [mp.nstr(v, 30, min_fixed=-3, max_fixed=1)
                for v in decaying_branch(x)]
        print("    %r: (%s,\n        %s)," % (x, ", ".join(rows[:2]),
                                         ", ".join(rows[2:])))
    print("}")


if __name__ == "__main__":
    main()
