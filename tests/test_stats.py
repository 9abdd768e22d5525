import math

import pytest

from ellnum.arith import FactorSieve, loglog
from ellnum.search import bk_count
from ellnum.stats import (
    admissibility_profile,
    admissible_recip_sum,
    moments,
    pi_e,
    standardized_distribution,
)

# float.hex of every float field of the four reports on table_a, recorded
# from the per-value loops that the array passes replaced: moments
# (mean_omega, m2, m4, ratio2, ratio2_alt, ratio4); the 20 distribution
# bins (left, right, mass) then ks_stat; admissibility (epsilon, threshold,
# inadmissible_recip_sum) at epsilon 0.008; reciprocal sums (a, b, epsilon,
# total, admissible, inadmissible, mertens_reference) on [x^0.25, x^0.95).
# Compared with ==, they pin the summation order: a pairwise np.sum moves
# the last bits of m2, m4 and the reciprocal sums.
STATS_HEX = {
    1_000: {
        "moments": ('0x1.258e901886e5fp+1', '0x1.d96f0d9853470p+6', '0x1.d86ff1129faa7p+7',
                    '0x1.7548621aa19b1p-2', '0x1.f5b127b11abbfp-5', '0x1.817aa2da983e5p-2'),
        "distribution": (
            '-0x1.577ca60ccdfc8p-1', '-0x1.203e2e84ead75p-1', '0x1.1a0f544fb66b5p-3',
            '-0x1.203e2e84ead75p-1', '-0x1.d1ff6dfa0f642p-2', '0x0.0p+0',
            '-0x1.d1ff6dfa0f642p-2', '-0x1.63827eea4919cp-2', '0x0.0p+0',
            '-0x1.63827eea4919cp-2', '-0x1.ea0b1fb5059eap-3', '0x0.0p+0',
            '-0x1.ea0b1fb5059eap-3', '-0x1.0d1141957909cp-3', '0x0.0p+0',
            '-0x1.0d1141957909cp-3', '-0x1.80bb1baf63a80p-6', '0x0.0p+0',
            '-0x1.80bb1baf63a80p-6', '0x1.59c4f55340400p-4', '0x1.ea89f6cd69c5cp-2',
            '0x1.59c4f55340400p-4', '0x1.89dc58c92cb4cp-3', '0x0.0p+0',
            '0x1.89dc58c92cb4cp-3', '0x1.336b1b745ca4cp-2', '0x0.0p+0',
            '0x1.336b1b745ca4cp-2', '0x1.a1e80a8422ef4p-2', '0x0.0p+0',
            '0x1.a1e80a8422ef4p-2', '0x1.08327cc9f49cep-1', '0x0.0p+0',
            '0x1.08327cc9f49cep-1', '0x1.3f70f451d7c20p-1', '0x0.0p+0',
            '0x1.3f70f451d7c20p-1', '0x1.76af6bd9bae74p-1', '0x0.0p+0',
            '0x1.76af6bd9bae74p-1', '0x1.adede3619e0c8p-1', '0x1.5760932963a40p-2',
            '0x1.adede3619e0c8p-1', '0x1.e52c5ae98131ap-1', '0x0.0p+0',
            '0x1.e52c5ae98131ap-1', '0x1.0e356938b22b7p+0', '0x0.0p+0',
            '0x1.0e356938b22b7p+0', '0x1.29d4a4fca3be1p+0', '0x0.0p+0',
            '0x1.29d4a4fca3be1p+0', '0x1.4573e0c09550ap+0', '0x0.0p+0',
            '0x1.4573e0c09550ap+0', '0x1.61131c8486e34p+0', '0x0.0p+0',
            '0x1.61131c8486e34p+0', '0x1.7cb258487875ep+0', '0x1.886e5f0abb04ap-5',
            '0x1.86c14a7bda05ep-2',
        ),
        "admissibility": ('0x1.0624dd2f1a9fcp-7', '0x1.eacc8af78a5c8p+0', '0x1.66931abecf939p+0'),
        "recip": ('0x1.0000000000000p-2', '0x1.e666666666666p-1', '0x1.0624dd2f1a9fcp-7', '0x1.168530567409fp+0',
                  '0x1.739696727df33p-1', '0x1.72e79474d4417p-2', '0x1.55c2a141bd925p+0'),
    },
    10_000: {
        "moments": ('0x1.5453633b3488cp+1', '0x1.0a07e1802a039p+10', '0x1.3f3b790790df1p+11',
                    '0x1.8f5263c7366bap-2', '0x1.889cfc8566dcdp-5', '0x1.afa125f084a02p-2'),
        "distribution": (
            '-0x1.a34ff6a1cc10dp-1', '-0x1.5e974e12b89edp-1', '0x1.14d8cecd22306p-4',
            '-0x1.5e974e12b89edp-1', '-0x1.19dea583a52cdp-1', '0x0.0p+0',
            '-0x1.19dea583a52cdp-1', '-0x1.aa4bf9e92375ap-2', '0x0.0p+0',
            '-0x1.aa4bf9e92375ap-2', '-0x1.20daa8cafc91ap-2', '0x0.0p+0',
            '-0x1.20daa8cafc91ap-2', '-0x1.2ed2af59ab5b4p-3', '0x1.6d3cdf7a946e1p-2',
            '-0x1.2ed2af59ab5b4p-3', '-0x1.bf00d1d5d9340p-7', '0x0.0p+0',
            '-0x1.bf00d1d5d9340p-7', '0x1.ede52a3de0698p-4', '0x0.0p+0',
            '0x1.ede52a3de0698p-4', '0x1.04ea9bad9efe6p-2', '0x0.0p+0',
            '0x1.04ea9bad9efe6p-2', '0x1.8e5beccbc5e26p-2', '0x0.0p+0',
            '0x1.8e5beccbc5e26p-2', '0x1.0be69ef4f6633p-1', '0x0.0p+0',
            '0x1.0be69ef4f6633p-1', '0x1.509f478409d53p-1', '0x1.b9f453633b349p-2',
            '0x1.509f478409d53p-1', '0x1.9557f0131d473p-1', '0x0.0p+0',
            '0x1.9557f0131d473p-1', '0x1.da1098a230b93p-1', '0x0.0p+0',
            '0x1.da1098a230b93p-1', '0x1.0f64a098a215ap+0', '0x0.0p+0',
            '0x1.0f64a098a215ap+0', '0x1.31c0f4e02bceap+0', '0x1.19d9a4460bacap-3',
            '0x1.31c0f4e02bceap+0', '0x1.541d4927b587ap+0', '0x0.0p+0',
            '0x1.541d4927b587ap+0', '0x1.76799d6f3f40ap+0', '0x0.0p+0',
            '0x1.76799d6f3f40ap+0', '0x1.98d5f1b6c8f9ap+0', '0x0.0p+0',
            '0x1.98d5f1b6c8f9ap+0', '0x1.bb3245fe52b2ap+0', '0x0.0p+0',
            '0x1.bb3245fe52b2ap+0', '0x1.dd8e9a45dc6b9p+0', '0x1.aaf1d2f87ebfdp-8',
            '0x1.7e9a6c47bb342p-2',
        ),
        "admissibility": ('0x1.0624dd2f1a9fcp-7', '0x1.19ed9f99cfd7ap+1', '0x1.098dc2793c572p+1'),
        "recip": ('0x1.0000000000000p-2', '0x1.e666666666666p-1', '0x1.0624dd2f1a9fcp-7', '0x1.3a9128505ece4p+0',
                  '0x1.6549efbae71bcp-2', '0x1.c27d58c34a0ffp-1', '0x1.55c2a141bd925p+0'),
    },
    100_000: {
        "moments": ('0x1.77756aafca9dep+1', '0x1.4311bc21c9f60p+13', '0x1.d9fe769894684p+14',
                    '0x1.c3adad7b3cc27p-2', '0x1.5a9996e63a17ep-5', '0x1.0f34c31a28762p-1'),
        "distribution": (
            '-0x1.d8cbea5072cbap-1', '-0x1.86e941443e8e9p-1', '0x1.9e4149b21d181p-5',
            '-0x1.86e941443e8e9p-1', '-0x1.350698380a518p-1', '0x0.0p+0',
            '-0x1.350698380a518p-1', '-0x1.c647de57ac28cp-2', '0x0.0p+0',
            '-0x1.c647de57ac28cp-2', '-0x1.22828c3f43aeap-2', '0x0.0p+0',
            '-0x1.22828c3f43aeap-2', '-0x1.faf4e89b6cd20p-4', '0x1.11bffe4aaeeffp-2',
            '-0x1.faf4e89b6cd20p-4', '0x1.2840bf8c6a2e0p-5', '0x0.0p+0',
            '0x1.2840bf8c6a2e0p-5', '0x1.919ad413eb7f8p-3', '0x0.0p+0',
            '0x1.919ad413eb7f8p-3', '0x1.6c92bc225e3a0p-2', '0x1.a9772dab6328ep-2',
            '0x1.6c92bc225e3a0p-2', '0x1.082c071d635a2p-1', '0x0.0p+0',
            '0x1.082c071d635a2p-1', '0x1.5a0eb02997972p-1', '0x0.0p+0',
            '0x1.5a0eb02997972p-1', '0x1.abf15935cbd44p-1', '0x0.0p+0',
            '0x1.abf15935cbd44p-1', '0x1.fdd4024200116p-1', '0x1.dae6076b981dbp-3',
            '0x1.fdd4024200116p-1', '0x1.27db55a71a273p+0', '0x0.0p+0',
            '0x1.27db55a71a273p+0', '0x1.50ccaa2d3445bp+0', '0x0.0p+0',
            '0x1.50ccaa2d3445bp+0', '0x1.79bdfeb34e645p+0', '0x0.0p+0',
            '0x1.79bdfeb34e645p+0', '0x1.a2af53396882dp+0', '0x1.190296cedc503p-5',
            '0x1.a2af53396882dp+0', '0x1.cba0a7bf82a15p+0', '0x0.0p+0',
            '0x1.cba0a7bf82a15p+0', '0x1.f491fc459cbffp+0', '0x0.0p+0',
            '0x1.f491fc459cbffp+0', '0x1.0ec1a865db6f4p+1', '0x0.0p+0',
            '0x1.0ec1a865db6f4p+1', '0x1.233a52a8e87e7p+1', '0x1.b551100aad3aap-12',
            '0x1.59db85cd64896p-2',
        ),
        "admissibility": ('0x1.0624dd2f1a9fcp-7', '0x1.36431878651c9p+1', '0x1.1268dcc3c8dc1p+1'),
        "recip": ('0x1.0000000000000p-2', '0x1.e666666666666p-1', '0x1.0624dd2f1a9fcp-7', '0x1.395ff81e49150p+0',
                  '0x1.fdf3139137c93p-2', '0x1.73c66673f6490p-1', '0x1.55c2a141bd925p+0'),
    },
}


class TestMoments:
    def test_hand_computation_at_16(self, curve_a, table_a5k):
        # good primes <= 16 are 2, 3, 5, 7, 11, 13 with point counts
        # 5, 7, 8, 9, 17, 16: every one a prime power, so omega = 1
        rep = moments(table_a5k, 16)
        assert rep.n_good == 6 and rep.pi_x == 6
        assert rep.mean_omega == 1.0
        llx = loglog(16)
        assert rep.m2 == pytest.approx(6 * (1 - llx) ** 2, rel=1e-12)
        assert rep.m4 == pytest.approx(6 * (1 - llx) ** 4, rel=1e-12)

    def test_frozen_goldens_at_1000(self, table_a5k):
        rep = moments(table_a5k, 1000)
        assert rep.pi_x == 168
        assert rep.n_good == 167
        assert rep.mean_omega == pytest.approx(2.2934131736526946, rel=1e-12)
        assert rep.m2 == pytest.approx(118.35845029838833, rel=1e-9)
        assert rep.m4 == pytest.approx(236.21863611411138, rel=1e-9)

    def test_matches_direct_resummation_oracle(self, table_a5k):
        # independent factorization (sympy) and a separate accumulation order
        from sympy import primefactors

        x = 1000
        llx = loglog(x)
        ps, nps = table_a5k.upto(x)
        ws = [len(primefactors(int(v))) for v in nps]
        m2 = math.fsum((w - llx) ** 2 for w in ws)
        m4 = math.fsum((w - llx) ** 4 for w in ws)
        rep = moments(table_a5k, x)
        assert rep.m2 == pytest.approx(m2, rel=1e-12)
        assert rep.m4 == pytest.approx(m4, rel=1e-12)
        assert rep.m4 >= 0

    def test_ratio_definitions(self, table_a5k):
        rep = moments(table_a5k, 1000)
        llx = loglog(1000)
        assert rep.ratio2 == pytest.approx(rep.m2 / (rep.pi_x * llx), rel=1e-12)
        assert rep.ratio2_alt == pytest.approx(rep.m2 / (1000 * llx), rel=1e-12)
        assert rep.ratio4 == pytest.approx(rep.m4 / (rep.pi_x * llx * llx), rel=1e-12)

    def test_x_above_table_limit_rejected(self, table_a5k):
        with pytest.raises(ValueError):
            moments(table_a5k, 100_000)

    def test_x_below_guard_rejected(self, table_a5k):
        with pytest.raises(ValueError):
            moments(table_a5k, 10)


class TestStandardizedDistribution:
    def test_mass_sums_to_one(self, table_a5k):
        rep = standardized_distribution(table_a5k, 5000, 20)
        assert sum(m for _, _, m in rep.bins) == pytest.approx(1.0, abs=1e-9)

    def test_single_bin_gets_everything(self, table_a5k):
        rep = standardized_distribution(table_a5k, 5000, 1)
        assert len(rep.bins) == 1
        assert rep.bins[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_bins_validated(self, table_a5k):
        with pytest.raises(ValueError):
            standardized_distribution(table_a5k, 5000, 0)

    def test_ks_statistic_range_and_regression(self, table_a):
        rep = standardized_distribution(table_a, 100_000, 20)
        assert 0.0 <= rep.ks_stat <= 1.0
        assert rep.ks_stat == pytest.approx(0.3377514750110405, abs=1e-9)

    def test_csv_shape(self, table_a5k):
        lines = standardized_distribution(table_a5k, 5000, 4).csv_lines()
        assert lines[0] == "bin_left,bin_right,mass"
        assert len(lines) == 5


class TestAdmissibility:
    def test_partition_counts(self, table_a5k):
        prof = admissibility_profile(table_a5k, 5000, 0.008)
        ps, _ = table_a5k.upto(5000)
        assert prof.admissible_count + prof.inadmissible_count == len(ps)

    def test_epsilon_near_one_makes_everything_admissible(self, table_a5k):
        prof = admissibility_profile(table_a5k, 5000, 0.999999)
        assert prof.inadmissible_count == 0
        assert prof.inadmissible_recip_sum == 0.0

    def test_admissible_fraction_above_half_at_1e5(self, table_a):
        prof = admissibility_profile(table_a, 100_000, 0.008)
        frac = prof.admissible_count / (prof.admissible_count + prof.inadmissible_count)
        assert frac > 0.5
        assert (prof.admissible_count, prof.inadmissible_count) == (6542, 3049)

    def test_inadmissible_recip_sum_stabilizes(self, table_a):
        # the trend check behind the convergence of the inadmissible series
        lo = admissibility_profile(table_a, 10_000, 0.008).inadmissible_recip_sum
        hi = admissibility_profile(table_a, 100_000, 0.008).inadmissible_recip_sum
        assert 0 <= hi - lo < 0.5

    def test_epsilon_validated(self, table_a5k):
        with pytest.raises(ValueError):
            admissibility_profile(table_a5k, 5000, 0.0)


class TestRecipSums:
    def test_partition_identity_is_exact(self, table_a5k):
        rep = admissible_recip_sum(table_a5k, 10**8, 1 / 8, 1 / 4, 0.008)
        assert rep.total_sum == pytest.approx(
            rep.admissible_sum + rep.inadmissible_sum, rel=1e-12
        )

    def test_band_values_at_1e8(self, table_a5k):
        rep = admissible_recip_sum(table_a5k, 10**8, 1 / 8, 1 / 4, 0.008)
        # good primes in [10, 100): every prime but the bad 37
        direct = sum(
            1 / p for p in (11, 13, 17, 19, 23, 29, 31, 41, 43, 47, 53,
                            59, 61, 67, 71, 73, 79, 83, 89, 97)
        )
        assert rep.total_sum == pytest.approx(direct, rel=1e-12)
        assert rep.mertens_reference == pytest.approx(math.log(2), rel=1e-12)
        assert not rep.empty_range

    def test_epsilon_near_one_equals_unrestricted(self, table_a5k):
        rep = admissible_recip_sum(table_a5k, 10**8, 1 / 8, 1 / 4, 0.999999)
        assert rep.admissible_sum == rep.total_sum
        assert rep.inadmissible_sum == 0.0

    def test_degenerate_range_rejected(self, table_a5k):
        with pytest.raises(ValueError):
            admissible_recip_sum(table_a5k, 10**8, 1 / 4, 1 / 4, 0.008)
        with pytest.raises(ValueError):
            admissible_recip_sum(table_a5k, 10**8, 1 / 2, 1 / 4, 0.008)

    def test_empty_range_flagged(self, table_a5k):
        rep = admissible_recip_sum(table_a5k, 10**8, 0.01, 0.02, 0.008)
        assert rep.empty_range
        assert rep.total_sum == 0.0

    def test_range_beyond_table_rejected(self, table_a5k):
        with pytest.raises(ValueError):
            admissible_recip_sum(table_a5k, 10**8, 1 / 8, 1 / 2, 0.008)


class TestPiE:
    def test_all_good_primes_at_d1(self, table_a5k):
        assert pi_e(table_a5k, 50, 1) == 14

    def test_even_counts_match_direct_scan(self, table_a5k):
        direct = sum(1 for p, n in table_a5k if p <= 50 and n % 2 == 0)
        assert pi_e(table_a5k, 50, 2) == direct

    def test_non_squarefree_rejected(self, table_a5k):
        with pytest.raises(ValueError):
            pi_e(table_a5k, 100, 4)
        with pytest.raises(ValueError):
            pi_e(table_a5k, 100, 0)

    def test_monotone_along_divisibility(self, table_a):
        ds = [1, 2, 3, 5, 6, 10, 15, 30]
        vals = {d: pi_e(table_a, 10_000, d) for d in ds}
        for d in ds:
            for dd in ds:
                if dd % d == 0:
                    assert vals[dd] <= vals[d], (d, dd)


def _hex(*values):
    return tuple(float(v).hex() for v in values)


class TestBitReproducible:
    @pytest.mark.parametrize("x", sorted(STATS_HEX))
    def test_float_fields_match_recorded_hex(self, table_a, x):
        want = STATS_HEX[x]
        m = moments(table_a, x)
        assert _hex(m.mean_omega, m.m2, m.m4, m.ratio2, m.ratio2_alt, m.ratio4) == want["moments"]
        d = standardized_distribution(table_a, x, 20)
        assert _hex(*(v for b in d.bins for v in b), d.ks_stat) == want["distribution"]
        a = admissibility_profile(table_a, x, 0.008)
        assert _hex(a.epsilon, a.threshold, a.inadmissible_recip_sum) == want["admissibility"]
        r = admissible_recip_sum(table_a, x, 0.25, 0.95, 0.008)
        got = _hex(r.a, r.b, r.epsilon, r.total_sum, r.admissible_sum, r.inadmissible_sum, r.mertens_reference)
        assert got == want["recip"]

    def test_no_per_value_factorization(self, curve_a, table_a, monkeypatch):
        # omega(N_p) comes from one omega_table per pass, never the factor sieve
        calls = []
        real = FactorSieve.factorize
        monkeypatch.setattr(FactorSieve, "factorize", lambda self, n: calls.append(n) or real(self, n))
        moments(table_a, 100_000)
        standardized_distribution(table_a, 100_000, 20)
        admissibility_profile(table_a, 100_000, 0.008)
        admissible_recip_sum(table_a, 100_000, 0.25, 0.95, 0.008)
        bk_count(curve_a, 2, 100_000, table=table_a)
        assert calls == []
