"""Print the frozen Airy-kernel references of test_wkb_core.

    python3 tests/make_airy_refs.py

Evaluates, with mpmath at 50 digits at the float64 value of each point,
and prints to 30 significant digits:

* FORBIDDEN_KERNEL_REF: y1m = Ai'/Ai, its companion y2m (the formulas of
  `wkb_core._near_field` with w = 0) and their a-derivatives d1m, d2m;
* ALLOWED_KERNEL_REF: u, w, h2, g2 (the formulas of `wkb_core._near_field`
  for the modulus ratio u + i*w = (Ai' + i*Bi')/(Ai + i*Bi), i.e.
  u = (Ai*Ai' + Bi*Bi')/M^2 and w = 1/(pi*M^2) with M^2 = Ai^2 + Bi^2) and
  their a-derivatives du, dw, dh2, dg2.

The tests check the value columns; the a-derivative columns are printed
too, so the frozen tables in test_wkb_core are this script's output.

Needs mpmath (1.3.0 was used); neither the library nor the tests import
it.  Not collected by pytest (no test_ prefix).
"""

import mpmath as mp

# five points in [3.5, 5], where a Maclaurin-summed Ai cancels about five
# digits, and three spread over the rest of [0, ASYM_RADIUS)
FORBIDDEN_POINTS = (1.0, 3.6, 4.1, 4.39, 4.47, 4.95, 6.5, 8.9)
# the window [-9.25, -8.75] around ASYM_RADIUS, where the modulus series
# takes over from the checkpoint step, and four points inside it
ALLOWED_POINTS = (-9.25, -9.2, -9.1, -9.0, -8.9, -8.75, -7.3, -4.5, -2.2, -0.6)


def near_field(a, u, w):
    """`wkb_core._near_field`'s (u, w, h2, g2), then (du, dw, dh2, dg2)."""
    du = a - u * u + w * w
    dw = -2 * u * w
    h2 = (8 * a * a * du - 4 * a * u - 3) / 30
    g2 = (8 * a * a * dw - 4 * a * w) / 30
    dh2 = (2 * a * du - u) / 3 - 2 * (u * h2 - w * g2)
    dg2 = (2 * a * dw - w) / 3 - 2 * (u * g2 + w * h2)
    return u, w, h2, g2, du, dw, dh2, dg2


def decaying_branch(x):
    """(y1m, y2m, d1m, d2m) at the float x."""
    a = mp.mpf(x)
    y1, _, y2, _, d1, _, d2, _ = near_field(
        a, mp.airyai(a, derivative=1) / mp.airyai(a), mp.mpf(0))
    return y1, y2, d1, d2


def modulus_branch(x):
    """(u, w, h2, g2, du, dw, dh2, dg2) at the float x <= 0."""
    a = mp.mpf(x)
    ai, dai = mp.airyai(a), mp.airyai(a, derivative=1)
    bi, dbi = mp.airybi(a), mp.airybi(a, derivative=1)
    m2 = ai * ai + bi * bi
    return near_field(a, (ai * dai + bi * dbi) / m2, 1 / (mp.pi * m2))


def literal(name, points, fn):
    """The dict literal of fn at points, two values to a line."""
    print("%s = {" % name)
    for x in points:
        rows = [mp.nstr(v, 30, min_fixed=-3, max_fixed=1) for v in fn(x)]
        pairs = [", ".join(rows[i:i + 2]) for i in range(0, len(rows), 2)]
        print("    %r: (%s)," % (x, ",\n        ".join(pairs)))
    print("}")


def main():
    mp.mp.dps = 50
    literal("FORBIDDEN_KERNEL_REF", FORBIDDEN_POINTS, decaying_branch)
    literal("ALLOWED_KERNEL_REF", ALLOWED_POINTS, modulus_branch)


if __name__ == "__main__":
    main()
