"""Statistical tests for multi-step speculative sampling (Theorems 4.2/4.3).

These tests construct token trees with *known* LLM and SSM distributions and
check, over many trials:

* Theorem 4.2 — the token emitted at a node follows exactly the LLM's
  distribution, regardless of what the SSMs proposed;
* Theorem 4.3 — MSS rejects speculation less often than naive sampling.
"""

import numpy as np
import pytest

from repro.model.sampling import SamplingConfig
from repro.tree.masks import linearize
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput
from repro.verify.naive import verify_naive_sampling
from repro.verify.stochastic import (
    _normalized_residual,
    verify_stochastic,
)
from tests.conftest import total_variation_distance

VOCAB = 6
SAMPLING = SamplingConfig()  # temperature 1, no filtering


def output_with_distribution(tree: TokenTree, p_llm: np.ndarray):
    """TreeDecodeOutput whose every node has next-token distribution p_llm."""
    lin = linearize(tree)
    log_p = np.log(np.clip(p_llm, 1e-300, None))
    logits = np.tile(log_p, (len(tree), 1))
    return TreeDecodeOutput(lin=lin, logits=logits, prefix_len=0)


def empirical_first_token(build_tree, p_llm, n_trials, seed=0):
    """Frequency of the first emitted token over repeated verification."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(VOCAB)
    for _ in range(n_trials):
        tree = build_tree(rng)
        output = output_with_distribution(tree, p_llm)
        result = verify_stochastic(output, tree, SAMPLING, rng)
        counts[result.accepted_tokens[0]] += 1
    return counts / counts.sum()


P_LLM = np.array([0.35, 0.25, 0.15, 0.12, 0.08, 0.05])
Q_SSM = np.array([0.10, 0.45, 0.20, 0.10, 0.10, 0.05])


class TestResidual:
    def test_residual_formula(self):
        residual = _normalized_residual(P_LLM, Q_SSM)
        expected = np.maximum(0, P_LLM - Q_SSM)
        expected /= expected.sum()
        np.testing.assert_allclose(residual, expected)

    def test_dominated_distribution_falls_back(self):
        residual = _normalized_residual(P_LLM, np.ones(VOCAB))
        np.testing.assert_allclose(residual, P_LLM)

    def test_residual_is_distribution(self):
        residual = _normalized_residual(P_LLM, Q_SSM)
        assert residual.sum() == pytest.approx(1.0)
        assert (residual >= 0).all()


class TestTheorem42DistributionPreservation:
    """The emitted-token law equals the LLM's distribution exactly."""

    def test_single_ssm_single_child(self):
        def build(rng):
            tree = TokenTree(0)
            child = int(rng.choice(VOCAB, p=Q_SSM))
            tree.add_child(0, child, tree.add_proposal(Q_SSM))
            return tree

        freqs = empirical_first_token(build, P_LLM, n_trials=20000)
        assert total_variation_distance(freqs, P_LLM) < 0.02

    def test_two_ssms_disjoint_supports(self):
        q1 = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        q2 = np.array([0.0, 0.0, 0.4, 0.3, 0.3, 0.0])

        def build(rng):
            tree = TokenTree(0)
            c1 = int(rng.choice(VOCAB, p=q1))
            c2 = int(rng.choice(VOCAB, p=q2))
            tree.add_child(0, c1, tree.add_proposal(q1))
            tree.add_child(0, c2, tree.add_proposal(q2))
            return tree

        freqs = empirical_first_token(build, P_LLM, n_trials=20000)
        assert total_variation_distance(freqs, P_LLM) < 0.02

    def test_oracle_ssm_always_accepts(self):
        """When the SSM equals the LLM, children sampled from it are always
        accepted (ratio = 1) and the output law is trivially preserved."""
        def build(rng):
            tree = TokenTree(0)
            child = int(rng.choice(VOCAB, p=P_LLM))
            tree.add_child(0, child, tree.add_proposal(P_LLM))
            return tree

        rng = np.random.default_rng(1)
        rejections = 0
        for _ in range(2000):
            tree = build(rng)
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, SAMPLING, rng)
            rejections += result.num_rejections
        assert rejections == 0

    def test_hopeless_ssm_still_preserves_law(self):
        """Even proposals the LLM would never emit keep the law intact."""
        q_bad = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        p_llm = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])

        def build(rng):
            tree = TokenTree(0)
            tree.add_child(0, 5, tree.add_proposal(q_bad))
            return tree

        freqs = empirical_first_token(build, p_llm, n_trials=8000)
        assert freqs[5] == 0.0
        assert total_variation_distance(freqs, p_llm) < 0.02

    def test_deep_tree_chain_law_holds_per_level(self):
        """On a 2-level chain, the second emitted token's law (conditioned
        on the first being accepted) is also the LLM's."""
        rng = np.random.default_rng(2)
        counts = np.zeros(VOCAB)
        total = 0
        for _ in range(20000):
            tree = TokenTree(0)
            c1 = int(rng.choice(VOCAB, p=Q_SSM))
            n1 = tree.add_child(0, c1, tree.add_proposal(Q_SSM))
            c2 = int(rng.choice(VOCAB, p=Q_SSM))
            tree.add_child(n1, c2, tree.add_proposal(Q_SSM))
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, SAMPLING, rng)
            if len(result.accepted_tokens) >= 2:
                counts[result.accepted_tokens[1]] += 1
                total += 1
        freqs = counts / total
        assert total_variation_distance(freqs, P_LLM) < 0.03


class TestTheorem43MssBeatsNaive:
    def _rejection_rates(self, q_proposal, n_trials=8000):
        rng_m = np.random.default_rng(3)
        rng_n = np.random.default_rng(4)
        reject_mss = reject_ns = 0
        for _ in range(n_trials):
            child_m = int(rng_m.choice(VOCAB, p=q_proposal))
            tree_m = TokenTree(0)
            tree_m.add_child(0, child_m, tree_m.add_proposal(q_proposal))
            out = output_with_distribution(tree_m, P_LLM)
            res = verify_stochastic(out, tree_m, SAMPLING, rng_m)
            reject_mss += res.num_accepted_speculated == 0

            child_n = int(rng_n.choice(VOCAB, p=q_proposal))
            tree_n = TokenTree(0)
            tree_n.add_child(0, child_n, tree_n.add_proposal(q_proposal))
            out = output_with_distribution(tree_n, P_LLM)
            res = verify_naive_sampling(out, tree_n, SAMPLING, rng_n)
            reject_ns += res.num_accepted_speculated == 0
        return reject_mss / n_trials, reject_ns / n_trials

    def test_mss_rejects_less_with_aligned_proposals(self):
        mss, ns = self._rejection_rates(Q_SSM)
        assert mss <= ns + 0.02, (mss, ns)

    def test_mss_rejects_less_with_llm_matched_proposals(self):
        mss, ns = self._rejection_rates(P_LLM)
        assert mss == pytest.approx(0.0, abs=0.005)
        assert ns > 0.5  # naive still rejects per LLM entropy


class TestFilteredDecoding:
    """Theorem 4.2 under top-k / top-p filtered LLM distributions (the
    paper's section 7: these decoding strategies compose with MSS)."""

    def test_top_k_filtered_law_preserved(self):
        sampling = SamplingConfig(top_k=3)
        rng = np.random.default_rng(7)
        counts = np.zeros(VOCAB)
        # The filtered target distribution.
        from repro.model.sampling import distribution_from_logits

        log_p = np.log(np.clip(P_LLM, 1e-300, None))
        target = distribution_from_logits(log_p, sampling)
        for _ in range(15000):
            tree = TokenTree(0)
            child = int(rng.choice(VOCAB, p=Q_SSM))
            tree.add_child(0, child, tree.add_proposal(Q_SSM))
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, sampling, rng)
            counts[result.accepted_tokens[0]] += 1
        freqs = counts / counts.sum()
        assert total_variation_distance(freqs, target) < 0.02

    def test_top_p_filtered_law_preserved(self):
        sampling = SamplingConfig(top_p=0.8)
        rng = np.random.default_rng(8)
        counts = np.zeros(VOCAB)
        from repro.model.sampling import distribution_from_logits

        log_p = np.log(np.clip(P_LLM, 1e-300, None))
        target = distribution_from_logits(log_p, sampling)
        for _ in range(15000):
            tree = TokenTree(0)
            child = int(rng.choice(VOCAB, p=Q_SSM))
            tree.add_child(0, child, tree.add_proposal(Q_SSM))
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, sampling, rng)
            counts[result.accepted_tokens[0]] += 1
        freqs = counts / counts.sum()
        assert total_variation_distance(freqs, target) < 0.02

    def test_filtered_out_tokens_never_emitted(self):
        """Tokens removed by top-k can be proposed but never emitted."""
        sampling = SamplingConfig(top_k=2)  # keeps tokens 0 and 1 only
        rng = np.random.default_rng(9)
        for _ in range(500):
            tree = TokenTree(0)
            tree.add_child(0, 5, tree.add_proposal(Q_SSM))  # token 5 is filtered out
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, sampling, rng)
            assert result.accepted_tokens[0] in (0, 1)


class TestVerifyStochasticMechanics:
    def test_result_validates(self):
        rng = np.random.default_rng(0)
        tree = TokenTree(0)
        tree.add_child(0, 1, tree.add_proposal(Q_SSM))
        output = output_with_distribution(tree, P_LLM)
        result = verify_stochastic(output, tree, SAMPLING, rng)
        result.validate()

    def test_zero_probability_proposal_rejected(self):
        """A child the SSM claims it could never propose is always rejected."""
        rng = np.random.default_rng(0)
        q = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(200):
            tree = TokenTree(0)
            tree.add_child(0, 3, tree.add_proposal(q))  # but q[3] == 0
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, SAMPLING, rng)
            assert result.num_accepted_speculated == 0

    def test_proposal_free_child_uses_llm_probability(self):
        """Hand-built trees without proposals accept child w.p. P_LLM(x)."""
        rng = np.random.default_rng(0)
        accepts = 0
        n = 8000
        for _ in range(n):
            tree = TokenTree(0)
            tree.add_child(0, 0)  # P_LLM[0] = 0.35
            output = output_with_distribution(tree, P_LLM)
            result = verify_stochastic(output, tree, SAMPLING, rng)
            accepts += result.num_accepted_speculated
        assert accepts / n == pytest.approx(0.35, abs=0.03)

    def test_counts_rejections(self):
        rng = np.random.default_rng(0)
        q = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        p = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        tree = TokenTree(0)
        tree.add_child(0, 5, tree.add_proposal(q))
        output = output_with_distribution(tree, p)
        result = verify_stochastic(output, tree, SAMPLING, rng)
        assert result.num_rejections == 1


class TestTvDistance:
    """The shared helper every distribution-equality check reads."""

    def test_identical_is_zero(self):
        p = np.array([0.5, 0.5])
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            total_variation_distance(np.ones(2), np.ones(3))

    def test_symmetry(self, rng):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p)
        )
