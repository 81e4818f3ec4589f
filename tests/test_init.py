import numpy as np
import pytest

from microreserve.claims import Triangle, censor
from microreserve.credibility import (
    age_to_ultimate,
    build_init_tables,
    initial_reserves,
    initialise_claim,
    link_ratios,
)
from microreserve.errors import FactorError, InitError

from conftest import build_claim, build_dataset


def triangle_from_rows(rows, valuation=None):
    """rows: list of per-period lists, NaN-padded to the full width."""
    n = len(rows)
    width = max(len(r) for r in rows)
    vals = np.full((n, width), np.nan)
    for i, r in enumerate(rows):
        vals[i, : len(r)] = r
    return Triangle(
        aps=list(range(1, n + 1)),
        valuation=valuation or (n + width - 1) - (width - 1) + width - 1,
        values=vals,
    )


class TestAgeToUltimate:
    def test_hand_computed_three_by_three(self):
        # Oracle: f1 = 326/210, f2 = 165/150; newest period compounds both.
        tri = triangle_from_rows(
            [[100.0, 150.0, 165.0], [110.0, 176.0], [120.0]], valuation=3
        )
        factors = link_ratios(tri)
        assert factors[0] == pytest.approx(326.0 / 210.0)
        assert factors[1] == pytest.approx(1.1)
        pi = age_to_ultimate(tri)
        assert pi[3] == pytest.approx(326.0 / 210.0 * 1.1)
        assert pi[3] == pytest.approx(1.7076, abs=1e-4)
        assert pi[2] == pytest.approx(1.1)

    def test_fully_developed_period(self):
        tri = triangle_from_rows([[100.0, 150.0, 165.0], [110.0, 176.0], [120.0]], valuation=3)
        pi = age_to_ultimate(tri)
        assert pi[1] == 1.0

    def test_zero_column_errors(self):
        tri = triangle_from_rows([[0.0, 150.0], [0.0]], valuation=2)
        with pytest.raises(FactorError, match="column 1"):
            age_to_ultimate(tri)


def two_ap_fixture(*extra):
    """AP 1 fully developed; AP 2's settled claims are quick small settlers.

    ``extra`` claims join the four.
    """
    claims = [
        # AP 1: one slow large claim and one quick small one, both settled.
        build_claim(
            "s1",
            1,
            [(1.5, "Ma", 0.0, 100.0), (1.9, "P", 20.0, 80.0), (3.5, "PMa", 100.0, 0.0)],
        ),
        build_claim("s2", 1, [(1.4, "P", 8.0, 2.0), (2.5, "PMa", 10.0, 0.0)]),
        # AP 2: a quick small settler plus a large claim still open at 4.
        build_claim("s3", 2, [(2.4, "P", 9.0, 3.0), (3.5, "PMa", 12.0, 0.0)]),
        build_claim(
            "s4",
            2,
            [(2.5, "Ma", 0.0, 150.0), (4.5, "P", 30.0, 120.0), (9.5, "PMa", 150.0, 0.0)],
        ),
    ]
    return build_dataset(claims + list(extra), max_t=10)


class TestInitTables:
    def test_single_ap_reduces_to_plain_mean(self):
        claims = [
            build_claim("m1", 1, [(1.5, "P", 30.0, 30.0), (2.5, "PMa", 60.0, 0.0)]),
            build_claim("m2", 1, [(1.4, "P", 20.0, 20.0), (2.5, "PMa", 40.0, 0.0)]),
        ]
        data = build_dataset(claims, max_t=3)
        tables = build_init_tables(data)
        assert tables.credibility[1] == pytest.approx(1.0)
        assert tables.pi_ppci[1] == pytest.approx(1.0)
        assert tables.adj_mean_ultimate[1] == pytest.approx(50.0)
        assert tables.overall_adj_mean == pytest.approx(50.0)

    def test_mix_adjustment_raises_recent_period_mean(self):
        # Oracle: manual PPCI computation on the 4-claim fixture. At the
        # valuation only the quick settler of AP 2 is closed, so its raw
        # mean understates; the PPCI age-to-ultimate must push it up.
        data = two_ap_fixture()
        tables = build_init_tables(censor(data, 4))
        assert tables.settled_counts == {1: 2, 2: 1}
        assert tables.mean_ultimate[2] == pytest.approx(12.0)
        assert tables.pi_ppci[2] > 1.0
        assert tables.adj_mean_ultimate[2] > tables.mean_ultimate[2]

    def test_ppci_zero_over_zero(self):
        # Oracle: AP 2 has nothing notified at dev 1, so its PPCI cell there
        # is 0/0 = 0 and still enters the first factor: (15 + 8) / (10 + 0).
        # Read as missing, that factor would be 15 / 10.
        claims = [
            build_claim("t1", 1, [(0.5, "P", 10.0, 5.0), (1.5, "PMa", 15.0, 0.0)]),
            build_claim("t2", 2, [(2.5, "PMa", 8.0, 0.0)]),
            build_claim("t3", 3, [(2.5, "PMa", 6.0, 0.0)]),
        ]
        tables = build_init_tables(build_dataset(claims, max_t=3))
        assert tables.pi_ppci[3] == pytest.approx(2.3)

    def test_no_settled_claims_errors(self):
        claims = [build_claim("o1", 1, [(1.5, "Ma", 0.0, 10.0), (2.5, "P", 3.0, 7.0)])]
        data = build_dataset(claims, max_t=3)
        with pytest.raises(InitError):
            build_init_tables(data)


class TestInitialiseClaim:
    @pytest.fixture
    def tables(self):
        return build_init_tables(censor(two_ap_fixture(), 4))

    def test_full_credibility_uses_period_mean(self, tables):
        forced = {**tables.credibility, 1: 1.0}
        t = type(tables)(**{**vars(tables), "credibility": forced})
        ul0, _ = initialise_claim(1, 0.0, t, k=2.0)
        assert ul0 == pytest.approx(t.adj_mean_ultimate[1])

    def test_zero_credibility_uses_overall_mean(self, tables):
        ul0, ocl0 = initialise_claim(99, 0.0, tables, k=2.0)
        assert ul0 == pytest.approx(tables.overall_adj_mean)
        assert ocl0 == pytest.approx(tables.overall_adj_mean)

    def test_fallback_when_paid_exceeds_mean(self, tables):
        _, ocl0 = initialise_claim(1, 1e9, tables, k=2.0)
        assert ocl0 == pytest.approx(tables.overall_adj_mean / 4.0)
        assert ocl0 > 0

    def test_convex_combination_bounds(self, tables):
        for ap in (1, 2):
            ul0, _ = initialise_claim(ap, 0.0, tables, k=2.0)
            lo = min(tables.adj_mean_ultimate[ap], tables.overall_adj_mean)
            hi = max(tables.adj_mean_ultimate[ap], tables.overall_adj_mean)
            assert lo - 1e-9 <= ul0 <= hi + 1e-9

    def test_monotone_credibility_across_periods(self):
        # Older periods have fewer remaining development factors, so
        # their credibility is at least that of younger periods.
        from microreserve.simulator import preset, simulate_portfolio, with_seed
        import dataclasses

        from microreserve.claims import censor, discretize

        sim = dataclasses.replace(
            with_seed(preset("complexity1"), 9),
            n_accident_periods=12,
            mean_claims_per_period=60.0,
        )
        data = censor(discretize(simulate_portfolio(sim)), 12)
        tables = build_init_tables(data)
        aps = sorted(tables.credibility)
        z = [tables.credibility[i] for i in aps]
        assert all(a >= b - 1e-9 for a, b in zip(z, z[1:]))
        assert all(0.0 < v <= 1.0 for v in z)


class TestInitialReserves:
    def test_each_claim_starts_from_initialise_claim(self):
        # Beside the fixture's claims: accident period 3 has no claim settled
        # by period 4, so z1 gets zero credibility, and b1 has paid more at
        # notification than any mean, so it takes the overall mean / k^2.
        z1 = build_claim("z1", 3, [(3.5, "Ma", 0.0, 40.0), (6.5, "PMa", 40.0, 0.0)])
        b1 = build_claim("b1", 1, [(1.5, "P", 500.0, 10.0), (8.5, "PMa", 510.0, 0.0)])
        view = censor(two_ap_fixture(z1, b1), 4)
        tables = build_init_tables(view)
        reserves = initial_reserves(view, tables, 3.0)
        assert sorted(reserves) == ["b1", "s1", "s2", "s3", "s4", "z1"]
        for c in view.claims:
            _, ocl0 = initialise_claim(c.accident_period, c.dev_records[0].cum_paid, tables, 3.0)
            assert reserves[c.claim_no] == ocl0
        assert 3 not in tables.credibility
        assert reserves["z1"] == pytest.approx(tables.overall_adj_mean)
        assert reserves["b1"] == tables.overall_adj_mean / 9.0
