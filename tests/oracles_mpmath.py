"""Regenerate the small-x and near-a reserve oracles in ``oracles.py`` with mpmath.

Run from the repository root:

    python tests/oracles_mpmath.py

and paste the printed block into ``oracles.py``.  Nothing here imports the
package: ``a`` is the bracketed root of a(1 - ln a) = mu, and H, H' and K are
evaluated from their defining formulas at 70 working digits,

    H(x)  = -x (1-a) ln(x/a) / ((x-a) ln a)  =  x R(x),
    H'(x) = -(1-a) (x - a - a ln(x/a)) / ((x-a)^2 ln a),
    K(x)  = integral of H over [0, x]
          = x^2 * integral over w in [0, inf) of R(x e^-w) e^-2w.

Each x is the decimal value, not the double nearest it; the two differ by
less than 2**-53 relatively, far inside the tests' 1e-12.  The substitution
t = x e^-w keeps every quadrature node at full relative
precision (tanh-sinh on [0, x] itself places the nodes next to t = 0 with
absolute precision only), and factoring out x^2 leaves an integrand of size
O(ln x), so mpmath's absolute error target is also a relative one.  Each
value is recomputed at 90 digits and must agree to 45; K must also agree
with the dilogarithm form a h(a) (ln z (z + ln(1-z)) + Li2(z) - z), z = x/a,
evaluated at enough digits to absorb its cancellation.  So the 40 printed
digits are stable.  The script is not named ``test_*`` and so is never
collected by pytest.
"""

import mpmath as mp

MU = "0.5"
SMALL_X = ("1e-300", "1e-100", "1e-38", "1e-17", "1e-15", "1e-10", "1e-5")
# K is quoted only where its true value is a normal double (>= 2**-1022).
NORMAL_MIN = mp.mpf(2) ** -1022
# H' just outside the old series cut of its (u - log1p(u))/u^2 factor, where
# the direct form cancelled, at three means.
NEAR_A_MU = ("0.5", "0.05", "2e-8")
NEAR_A_OFFSETS = ("1.1e-3", "2e-3", "1e-2")


def model(mu):
    """The root a of a(1 - ln a) = mu, h(a) = -(1-a)/ln a and R(t) = H(t)/t."""
    a = mp.findroot(lambda t: t * (1 - mp.log(t)) - mu, (mu / 1000, 1 - mp.mpf("1e-6")), solver="anderson")
    scale = -(1 - a) / mp.log(a)
    return a, scale, lambda t: scale * mp.log(t / a) / (t - a)


def reserve_values(x, mu):
    a, scale, ratio = model(mu)
    h = x * ratio(x)
    hp = scale * (x - a - a * mp.log(x / a)) / (x - a) ** 2
    k = x * x * mp.quad(lambda w: ratio(x * mp.exp(-w)) * mp.exp(-2 * w), [0, mp.inf])
    return h, hp, k


def dilog_integral(x, mu):
    # both brackets cancel to O(z^2): carry twice the digits of z on top
    with mp.workdps(mp.mp.dps + 2 * int(-mp.log10(x)) + 20):
        a, scale, _ = model(mu)
        z = x / a
        return scale * a * (mp.log(z) * (z + mp.log1p(-z)) + mp.polylog(2, z) - z)


def stable_values(x_text):
    out = []
    for dps in (70, 90):
        with mp.workdps(dps):
            out.append(reserve_values(mp.mpf(x_text), mp.mpf(MU)))
    with mp.workdps(70):
        x, mu = mp.mpf(x_text), mp.mpf(MU)
        for lo, hi in zip(*out):
            assert abs(lo - hi) <= mp.mpf(10) ** -45 * abs(hi), (x_text, lo, hi)
        k_dilog = dilog_integral(x, mu)
        assert abs(out[1][2] - k_dilog) <= mp.mpf(10) ** -45 * k_dilog, (x_text, k_dilog)
        # the closed-form H' must be the derivative of H (mp.diff steps past 0 below this)
        if x > mp.mpf("1e-20"):
            _, _, ratio = model(mu)
            fd = mp.diff(lambda t: t * ratio(t), x)
            assert abs(fd - out[0][1]) <= mp.mpf(10) ** -30 * abs(fd), (x_text, fd)
    return out[1]


def near_a_points(mu_text):
    """The doubles nearest a (1 +- d), d in NEAR_A_OFFSETS, with H' at each.

    mu is the double nearest ``mu_text``, as the package sees it, and H' is
    taken at the double x itself, so the value is exact for that input.
    """
    rows = []
    for sign in (-1, 1):
        for d in NEAR_A_OFFSETS:
            with mp.workdps(70):
                a = model(mp.mpf(float(mu_text)))[0]
                x = float(a * (1 + sign * mp.mpf(d)))
            values = []
            for dps in (70, 90):
                with mp.workdps(dps):
                    a, scale, ratio = model(mp.mpf(float(mu_text)))
                    xm = mp.mpf(x)
                    values.append(scale * (xm - a - a * mp.log(xm / a)) / (xm - a) ** 2)
                    if dps == 70:
                        fd = mp.diff(lambda t: t * ratio(t), xm)
                        assert abs(fd - values[0]) <= mp.mpf(10) ** -30 * fd, (mu_text, x)
            with mp.workdps(70):
                assert abs(values[0] - values[1]) <= mp.mpf(10) ** -45 * values[1]
            rows.append((x, values[1]))
    return sorted(rows)


def main():
    rows = {x: stable_values(x) for x in SMALL_X}
    for name, col in (("H", 0), ("HPRIME", 1), ("K", 2)):
        print(f"{name}_SMALL_X_MU_05 = {{")
        for x in SMALL_X:
            value = rows[x][col]
            if col == 2 and value < NORMAL_MIN:
                continue
            print(f"    {x}: {mp.nstr(value, 40, min_fixed=1, max_fixed=0)},")
        print("}")
    print("HPRIME_NEAR_A = {")
    for mu_text in NEAR_A_MU:
        for x, value in near_a_points(mu_text):
            print(f"    ({mu_text}, {x!r}): {mp.nstr(value, 40, min_fixed=1, max_fixed=0)},")
    print("}")


if __name__ == "__main__":
    main()
