"""Verdicts with measured power: a broken witness must fail the check that
guards it.

This is mutation testing (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) applied to ``verify``'s verdicts.
Each mutant replaces the constants that ``verify`` solves for, through
``cli.solve_a``, so the production code carries no switch for it.  These are
the rows of the upper half, ``lp_upper_bound``:

==================================  ==============================
mutant                              lp_upper_bound, at every mu
==================================  ==============================
none                                passes
claimed g x (1 + 1e-9)              fails
claimed g x (1 - 1e-9)              fails
constants of a (1 + 1e-9), true g   fails
==================================  ==============================

at mu in {0.99, 0.5, 1e-3, 1e-9, 1e-30}.  The stored LP on 50 cells that
the check used before passed all three mutants at all five mu: its bound
was 0.07% (mu = 0.99) to 3.3 g (mu = 1e-30) above g.  The bound on
the finest grid is within 1.2e-16 relative of 2a - a^2, so the check's
1e-12 band fails a g off by 1e-9 either way, and the bound of an a off by
1e-9 lies above the true g by about 1e-9 (2 - 2a)/(2 - a) relative
(2.5e-10 at mu = 0.99).
"""

import dataclasses

import pytest

from maxmin_auction import cli
from maxmin_auction.constants import constants_from_a

MUS = ["0.99", "0.5", "1e-3", "1e-9", "1e-30"]
EPS = 1e-9
MUTANTS = {
    "none": lambda c: c,
    "g high": lambda c: dataclasses.replace(c, revenue_guarantee=c.revenue_guarantee * (1.0 + EPS)),
    "g low": lambda c: dataclasses.replace(c, revenue_guarantee=c.revenue_guarantee * (1.0 - EPS)),
    "a high": lambda c: dataclasses.replace(
        constants_from_a(c.mu, c.a * (1.0 + EPS)), revenue_guarantee=c.revenue_guarantee
    ),
}


def verdicts(mu: str) -> dict[str, bool]:
    report = cli.run_verification(float(mu), 7, n_samples=2000)
    return {ch["name"]: ch["passed"] for ch in report["checks"]}


@pytest.mark.parametrize("mutant", list(MUTANTS))
@pytest.mark.parametrize("mu", MUS)
def test_lp_upper_bound_fails_every_mutant(monkeypatch, mu, mutant):
    solve = cli.solve_a
    monkeypatch.setattr(cli, "solve_a", lambda m: MUTANTS[mutant](solve(m)))
    assert verdicts(mu)["lp_upper_bound"] is (mutant == "none")
