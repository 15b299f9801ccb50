import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrec.metrics import auc, evaluate_rankings, mrr, ndcg_at


# --- brute-force references, deliberately written from scratch -------------

def auc_by_pair_enumeration(scores, labels):
    pairs = [(p, n) for p, yp in zip(scores, labels) if yp == 1
             for n, yn in zip(scores, labels) if yn == 0]
    if not pairs:
        return None
    total = 0.0
    for p, n in pairs:
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / len(pairs)


def full_sort_order(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def mrr_by_full_sort(scores, labels):
    order = full_sort_order(scores)
    recip, n_pos = 0.0, 0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            recip += 1.0 / rank
            n_pos += 1
    return recip / n_pos if n_pos else None


def ndcg_by_full_sort(scores, labels, k):
    order = full_sort_order(scores)
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    dcg = 0.0
    for rank, i in enumerate(order[:k], start=1):
        if labels[i] == 1:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, n_pos) + 1))
    return dcg / ideal


def has_tie_by_pairs(scores):
    return any(scores[i] == scores[j] for i in range(len(scores)) for j in range(i))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_middle_positive(self):
        assert auc([0.9, 0.8, 0.1], [0, 1, 0]) == 0.5

    def test_all_tied_scores(self):
        assert auc([0.4, 0.4], [1, 0]) == 0.5

    def test_invalid_impressions_return_none(self):
        assert auc([0.5, 0.6], [1, 1]) is None
        assert auc([0.5, 0.6], [0, 0]) is None


class TestMrr:
    def test_positive_at_rank_two(self):
        assert mrr([0.9, 0.5], [0, 1]) == 0.5

    def test_positive_first(self):
        assert mrr([0.9, 0.5], [1, 0]) == 1.0

    def test_two_positives_ranks_one_and_four(self):
        scores = [0.9, 0.7, 0.6, 0.5]
        labels = [1, 0, 0, 1]
        assert mrr(scores, labels) == (1.0 + 0.25) / 2.0

    def test_tie_keeps_input_order(self):
        # equal scores: the earlier positive keeps the earlier rank
        assert mrr([0.5, 0.5], [0, 1]) == 0.5
        assert mrr([0.5, 0.5], [1, 0]) == 1.0


class TestNdcg:
    def test_positive_at_rank_two_k5(self):
        got = ndcg_at([0.9, 0.5], [0, 1], 5)
        assert math.isclose(got, 1.0 / math.log2(3.0), rel_tol=1e-12)

    def test_positive_first_is_one(self):
        assert ndcg_at([0.9, 0.5], [1, 0], 5) == 1.0

    def test_positive_outside_cutoff_is_zero(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        labels = [0, 0, 0, 0, 0, 1]
        assert ndcg_at(scores, labels, 5) == 0.0


class TestOracleEquivalence:
    def test_exact_match_on_randomized_impressions(self):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            scores = [float(s) for s in rng.random(n)]
            if rng.random() < 0.2:  # force some ties
                scores[0] = scores[-1]
            labels = [int(y) for y in rng.integers(0, 2, size=n)]
            assert auc(scores, labels) == auc_by_pair_enumeration(scores, labels)
            assert mrr(scores, labels) == mrr_by_full_sort(scores, labels)
            for k in (5, 10):
                assert ndcg_at(scores, labels, k) == ndcg_by_full_sort(scores, labels, k)
            checked += 1
        assert checked == 1000

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        transforms = [lambda s: 2.0 * s + 0.5, np.expm1, np.arctan]
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = [float(s) for s in rng.random(n)]
            labels = [int(y) for y in rng.integers(0, 2, size=n)]
            base = (auc(scores, labels), mrr(scores, labels),
                    ndcg_at(scores, labels, 5), ndcg_at(scores, labels, 10))
            for f in transforms:
                mapped = [float(f(s)) for s in scores]
                assert (auc(mapped, labels), mrr(mapped, labels),
                        ndcg_at(mapped, labels, 5), ndcg_at(mapped, labels, 10)) == base

    def test_ranges(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = [float(s) for s in rng.random(n)]
            labels = [int(y) for y in rng.integers(0, 2, size=n)]
            for value in (auc(scores, labels), mrr(scores, labels),
                          ndcg_at(scores, labels, 5), ndcg_at(scores, labels, 10)):
                if value is not None:
                    assert 0.0 <= value <= 1.0


class TestEvaluateRankings:
    def test_exclusion_counting(self):
        rankings = [
            ([0.9, 0.1], [1, 0]),
            ([0.9, 0.1], [1, 1]),   # no negative: excluded
            ([0.2, 0.3], [0, 0]),   # no positive: excluded
        ]
        report = evaluate_rankings(rankings)
        assert report.n_impressions == 1
        assert report.n_excluded == 2
        assert report.auc == 1.0

    def test_tie_flagging(self):
        report = evaluate_rankings([([0.5, 0.5], [1, 0])])
        assert report.n_tie_impressions == 1

    def test_global_auc_option(self):
        rankings = [([0.9, 0.1], [1, 0]), ([0.8, 0.2], [0, 1])]
        report = evaluate_rankings(rankings, include_global_auc=True)
        pooled = auc_by_pair_enumeration([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 1])
        assert report.global_auc == pooled

    def test_means_are_exactly_rounded(self):
        # Before Python 3.12 the builtin sum() adds left to right; on this seed's
        # impressions that differs from the exactly rounded sum in every metric.
        rng = np.random.default_rng(0)
        rankings = []
        for _ in range(300):
            n = int(rng.integers(2, 12))
            rankings.append((rng.random(n).tolist(), rng.integers(0, 2, n).tolist()))
        valid = [r for r in rankings if auc_by_pair_enumeration(*r) is not None]
        report = evaluate_rankings(rankings)
        assert report.n_impressions == len(valid) == 258
        for got, ref in [(report.auc, auc_by_pair_enumeration), (report.mrr, mrr_by_full_sort),
                         (report.ndcg5, lambda s, y: ndcg_by_full_sort(s, y, 5)),
                         (report.ndcg10, lambda s, y: ndcg_by_full_sort(s, y, 10))]:
            assert got == math.fsum(ref(*r) for r in valid) / len(valid)

    def test_json_fields(self):
        report = evaluate_rankings([([0.9, 0.1], [1, 0])])
        payload = json.loads(report.to_json())
        for key in ("auc", "mrr", "ndcg5", "ndcg10", "n_impressions", "n_excluded"):
            assert key in payload


@st.composite
def tie_heavy_rankings(draw):
    """Impressions whose scores share 1 to 4 levels, 0.0 and -0.0 among them."""
    levels = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300]), min_size=1, max_size=4))
    rankings = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 40))
        scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                      | st.just([1] * n) | st.just([0] * n))
        rankings.append((scores, labels))
    return rankings


class TestTieHeavyOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_rankings())
    def test_every_metric_matches_brute_force_bit_for_bit(self, rankings):
        valid = []
        for scores, labels in rankings:
            assert auc(scores, labels) == auc_by_pair_enumeration(scores, labels)
            assert mrr(scores, labels) == mrr_by_full_sort(scores, labels)
            for k in (5, 10):
                assert ndcg_at(scores, labels, k) == ndcg_by_full_sort(scores, labels, k)
            if auc_by_pair_enumeration(scores, labels) is not None:
                valid.append((scores, labels))
        report = evaluate_rankings(rankings, include_global_auc=True)
        assert report.n_impressions == len(valid)
        assert report.n_excluded == len(rankings) - len(valid)
        assert report.n_tie_impressions == sum(has_tie_by_pairs(scores) for scores, _ in valid)
        pooled = auc_by_pair_enumeration([s for scores, _ in rankings for s in scores],
                                         [y for _, labels in rankings for y in labels])
        assert report.global_auc == pooled
        if valid:
            assert report.auc == math.fsum(auc_by_pair_enumeration(*r) for r in valid) / len(valid)
            assert report.mrr == math.fsum(mrr_by_full_sort(*r) for r in valid) / len(valid)
            assert report.ndcg5 == math.fsum(ndcg_by_full_sort(*r, 5) for r in valid) / len(valid)
            assert report.ndcg10 == math.fsum(ndcg_by_full_sort(*r, 10) for r in valid) / len(valid)

    def test_million_pooled_candidates_on_known_tie_levels(self):
        # Level j (score j / 1000) holds pos[j] positives and neg[j] negatives,
        # dealt out in a shuffled order; the exact AUC follows from the counts.
        rng = np.random.default_rng(11)
        pos = rng.integers(0, 100, size=1000)
        neg = rng.integers(0, 1900, size=1000)
        neg[-1] += 1_000_000 - int(pos.sum() + neg.sum())
        wins, neg_below = Fraction(0), 0
        for p, n in zip(pos.tolist(), neg.tolist()):
            wins += p * neg_below + Fraction(p * n, 2)
            neg_below += n
        exact = wins / (int(pos.sum()) * neg_below)
        levels = np.repeat(np.arange(1000), pos + neg)
        labels = np.concatenate([np.repeat([1, 0], [p, n]) for p, n in zip(pos, neg)])
        shuffle = rng.permutation(levels.size)
        scores, labels = (levels[shuffle] / 1000).tolist(), labels[shuffle].tolist()
        assert len(scores) == 1_000_000
        assert auc(scores, labels) == float(exact)
