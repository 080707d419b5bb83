import dataclasses
import math

import numpy as np
import pytest

from entclone import cli, protocol
from entclone.analytic import ALPHA_MAX, CloneFamily, alpha_critical, fidelity_bh, fidelity_locc, params_for, schmidt_state
from entclone.channel import apply_choi, channel_from_params, clone_reductions, local_fidelity, trace_output
from entclone.covariant import assemble_ptilde
from entclone.protocol import (
    average_clone_fidelity,
    branch_scores,
    build_dilations,
    build_kraus,
    kraus_to_choi,
    run_protocol_exact,
    run_protocol_sampled,
)
from reference import _per_branch_loop


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test starts and ends with empty memos, so one that patches build_kraus sees its patch."""
    protocol._kraus_set.cache_clear()
    protocol._branch_table.cache_clear()
    yield
    protocol._kraus_set.cache_clear()
    protocol._branch_table.cache_clear()


def test_bell_point_parameters():
    ks = build_kraus(ALPHA_MAX)
    assert abs(ks.w - 0.5) < 1e-14
    assert abs(ks.v - 0.25) < 1e-14


def test_measurement_normalizations():
    for alpha in (0.0, 0.2, 0.45, ALPHA_MAX):
        ks = build_kraus(alpha)
        total = sum(m.conj().T @ m for m in ks.m)
        assert np.abs(total - np.eye(2)).max() < 1e-12
        half = ks.m[0].conj().T @ ks.m[0] + ks.m[2].conj().T @ ks.m[2]
        assert np.abs(half - np.eye(2) / 2.0).max() < 1e-12
        completeness = sum(k.conj().T @ k for k in ks.k)
        assert np.abs(completeness - np.eye(4)).max() < 1e-12


def test_kraus_choi_matches_family_operator():
    for alpha in (0.2, 0.5, ALPHA_MAX):
        ks = build_kraus(alpha)
        direct = assemble_ptilde(params_for(CloneFamily.LOCC_OPTIMAL, alpha))
        assert np.abs(kraus_to_choi(ks) - direct).max() < 1e-10


def test_one_bit_cloner_is_a_coin_mixture_of_two_products():
    """Above alpha0 the LOCC-optimal a is (u u^T + v v^T) / 2 with u = (s, 1 - s, 0, sqrt(s (1 - s)), 0),
    s = sqrt(a11), and v = u with u4 and u5 negated, so the protocol's Choi operator is an equal
    mixture of two product cloners; neither product alone is clone-symmetric."""
    for alpha in np.linspace(alpha_critical(), ALPHA_MAX, 61)[1:]:
        a = params_for(CloneFamily.LOCC_OPTIMAL, alpha)
        s = math.sqrt(a[0, 0])
        u = np.array([s, 1.0 - s, 0.0, math.sqrt(s * (1.0 - s)), 0.0])
        v = u * [1.0, 1.0, 1.0, -1.0, -1.0]
        assert np.abs(a - (np.outer(u, u) + np.outer(v, v)) / 2.0).max() < 1e-15
        products = [assemble_ptilde(np.outer(w, w)) for w in (u, v)]
        assert np.abs((products[0] + products[1]) / 2.0 - kraus_to_choi(build_kraus(alpha))).max() < 1e-12
        for product in products:
            with pytest.raises(ValueError, match="clone symmetry"):
                local_fidelity(product, alpha)


def test_kraus_choi_is_a_channel_choi_operator():
    """kraus_to_choi is on the Choi order that channel reads: it traces out to I_4, gives the
    one-bit fidelity through local_fidelity, and equals channel_from_params of the LOCC family."""
    for alpha in [*np.linspace(0.0, ALPHA_MAX, 25), alpha_critical()]:
        choi = kraus_to_choi(build_kraus(alpha))
        assert np.abs(trace_output(choi) - np.eye(4)).max() < 1e-12
        assert abs(local_fidelity(choi, alpha) - fidelity_locc(alpha)) < 1e-12
        family = channel_from_params(params_for(CloneFamily.LOCC_OPTIMAL, alpha))
        assert np.abs(choi - family).max() < 1e-10


def test_below_threshold_collapses_to_product_family():
    ks = build_kraus(0.2)
    assert ks.v == 0.0
    a = np.zeros((5, 5))
    a[1, 1] = 1.0
    assert np.abs(kraus_to_choi(ks) - assemble_ptilde(a)).max() < 1e-10


def test_bell_branches():
    bell = schmidt_state(ALPHA_MAX)
    transcripts = run_protocol_exact(ALPHA_MAX)
    probs = np.array([tr.joint_probability for tr in transcripts])
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.abs(probs - 0.125).max() < 1e-12
    assert abs(average_clone_fidelity(transcripts, bell) - 5.0 / 8.0) < 1e-12
    assert abs(sum(tr.joint_probability * tr.fidelity for tr in transcripts) - 5.0 / 8.0) < 1e-12
    fids = sorted(tr.fidelity for tr in transcripts)
    assert abs(fids[0] - 0.5) < 1e-12
    assert abs(fids[-1] - 0.75) < 1e-12


def test_branch_bits_pair_alice_outcomes():
    transcripts = run_protocol_exact(0.5)
    for tr in transcripts:
        expected_bit = 0 if tr.alice_outcome in (1, 3) else 1
        assert tr.classical_bit == expected_bit
        if tr.classical_bit == 0:
            assert tr.bob_outcome in (1, 3)
        else:
            assert tr.bob_outcome in (2, 4)


def test_exact_average_matches_closed_form():
    for alpha in (0.0, 0.25, alpha_critical(), 0.5, ALPHA_MAX):
        reference = schmidt_state(alpha)
        transcripts = run_protocol_exact(alpha)
        value = average_clone_fidelity(transcripts, reference)
        assert abs(value - fidelity_locc(alpha)) < 1e-12
    assert abs(average_clone_fidelity(run_protocol_exact(0.0), schmidt_state(0.0)) - 25.0 / 36.0) < 1e-12
    assert fidelity_locc(0.0) == fidelity_bh(0.0)


def test_transcript_states_are_normalized():
    for tr in run_protocol_exact(0.4):
        assert abs(np.trace(tr.post_state) - 1.0) < 1e-12
        assert np.abs(tr.post_state - tr.post_state.conj().T).max() < 1e-12


def test_sampled_estimator():
    exact = fidelity_locc(0.5)
    est, err = run_protocol_sampled(0.5, trials=20000, seed=3)
    assert err > 0.0
    assert abs(est - exact) < 5.0 * err
    again, err_again = run_protocol_sampled(0.5, trials=20000, seed=3)
    assert est == again and err == err_again
    single, spread = run_protocol_sampled(0.5, trials=1, seed=4)
    assert 0.0 <= single <= 1.0
    assert spread == 0.0
    with pytest.raises(ValueError):
        run_protocol_sampled(0.5, trials=0)


@pytest.mark.parametrize("trials", [True, False, 2.0, 1e5, "10", None])
def test_sampled_requires_integer_trials(trials):
    with pytest.raises(ValueError, match="integer"):
        run_protocol_sampled(0.5, trials=trials)


@pytest.mark.parametrize("seed", [True, 2.5, "3", -1, None])
def test_sampled_requires_non_negative_integer_seed(seed, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("generator drawn"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_protocol_sampled(0.5, trials=10, seed=seed)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, np.nan, np.inf])
def test_branch_scores_reject_a_reference_off_the_unit_sphere(scale):
    """A reference not of unit norm, or not finite, would score fidelities outside [0, 1]."""
    transcripts = run_protocol_exact(0.5)
    reference = np.array([scale, 0.0, 0.0, 1.0]) * ALPHA_MAX
    with pytest.raises(ValueError, match="unit norm"):
        branch_scores(transcripts, reference)
    with pytest.raises(ValueError, match="unit norm"):
        average_clone_fidelity(transcripts, reference)
    with pytest.raises(ValueError, match="unit norm"):
        branch_scores(transcripts[:1], reference)
    assert 0.0 <= average_clone_fidelity(transcripts, (1.0 + 1e-12) * schmidt_state(ALPHA_MAX)) <= 1.0


def test_sampled_accepts_numpy_integers():
    for kind in (np.int64, np.int32, np.uint16):
        assert run_protocol_sampled(0.5, kind(1000), 3) == run_protocol_sampled(0.5, 1000, 3)
    assert run_protocol_sampled(0.5, 1000, np.int64(9)) == run_protocol_sampled(0.5, 1000, 9)


def _choice_sampled(alpha, trials, seed):
    """The sampler as numpy's own Generator.choice draws it: the reference for the counts."""
    transcripts = run_protocol_exact(alpha)
    scores = branch_scores(transcripts, schmidt_state(alpha))
    probs = np.clip([tr.joint_probability for tr in transcripts], 0.0, None)
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).choice(len(scores), size=trials, p=probs)
    counts = np.bincount(draws, minlength=len(scores))
    estimate = float(counts @ scores / trials)
    if trials < 2:
        return estimate, 0.0
    variance = float(counts @ (scores - estimate) ** 2 / (trials - 1))
    return estimate, math.sqrt(variance / trials)


@pytest.mark.parametrize("alpha", [0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX])
def test_sampled_counts_equal_numpy_choice(alpha, monkeypatch):
    for seed in (0, 7, 2024):
        for trials in (1, 2, 20_000, protocol._SAMPLE_CHUNK + 1):
            assert run_protocol_sampled(alpha, trials, seed) == _choice_sampled(alpha, trials, seed)
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 5)
    for trials in (4, 5, 6, 101):
        assert run_protocol_sampled(alpha, trials, 11) == _choice_sampled(alpha, trials, 11)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "all-zero"])
def test_sampled_rejects_invalid_branch_probabilities(bad, monkeypatch):
    table = protocol._branch_table(0.5)
    probs = [0.0] * 8 if bad == "all-zero" else [bad, *(tr.joint_probability for tr in table[1:])]
    broken = tuple(dataclasses.replace(tr, joint_probability=p) for tr, p in zip(table, probs))
    monkeypatch.setattr(protocol, "_branch_table", lambda alpha: broken)
    with pytest.raises(ValueError, match="branch probabilities"):
        run_protocol_sampled(0.5, trials=10, seed=1)


def test_memo_arrays_are_read_only():
    ks = build_kraus(0.5)
    transcripts = protocol._branch_table(0.5)
    for arr in [ks.m, ks.k, *(tr.post_state for tr in transcripts)]:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    for tr in transcripts:
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.fidelity = 1.0


def test_memos_rebuild_bit_identical_after_clear():
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        ks = build_kraus(alpha)
        table = protocol._branch_table(alpha)
        protocol._kraus_set.cache_clear()
        protocol._branch_table.cache_clear()
        again = build_kraus(alpha)
        assert again is not ks and (again.w, again.v) == (ks.w, ks.v)
        assert np.array_equal(again.m, ks.m) and np.array_equal(again.k, ks.k)
        rebuilt = protocol._branch_table(alpha)
        assert rebuilt is not table and len(rebuilt) == len(table) == 8
        for tr, old in zip(rebuilt, table):
            assert (tr.joint_probability, tr.fidelity) == (old.joint_probability, old.fidelity)
            assert np.array_equal(tr.post_state, old.post_state)


def test_kraus_set_holds_one_read_only_array_each():
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        ks = build_kraus(alpha)
        assert ks.m.shape == (4, 4, 2) and ks.k.shape == (8, 16, 4)
        for arr in (ks.m, ks.k):
            assert arr.dtype == complex and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_exact_then_sampled_enumerates_once():
    transcripts = run_protocol_exact(0.3)
    run_protocol_sampled(0.3, trials=1000, seed=2)
    run_protocol_sampled(np.float64(0.3), trials=1000, seed=3)
    assert all(a is b for a, b in zip(run_protocol_exact(0.3), transcripts))
    info = protocol._branch_table.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert protocol._kraus_set.cache_info().misses == 1


def test_protocol_command_reruns_identically_in_one_process(capsys):
    argv = ["protocol", "--alpha", "0.2", "--trials", "100000", "--seed", "9"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert protocol._branch_table.cache_info().misses == 1


def test_batched_kraus_equals_kron_reference():
    """K_n = sqrt(2) * Ma (x) Mb with rows regrouped to (1A, 1B, 2A, 2B), bit for bit."""
    for alpha in [*np.linspace(0.0, ALPHA_MAX, 401), alpha_critical()]:
        ks = build_kraus(alpha)
        assert ks.k.shape == (8, 16, 4)
        for (ai, bi), kmat in zip(protocol._BRANCHES, ks.k):
            block = math.sqrt(2.0) * np.kron(ks.m[ai - 1], ks.m[bi - 1])
            expected = block.reshape(2, 2, 2, 2, 4).transpose(0, 2, 1, 3, 4).reshape(16, 4)
            assert kmat.shape == (16, 4)
            assert np.array_equal(kmat, expected)


GRID = [*np.linspace(0.0, ALPHA_MAX, 401), alpha_critical()]


def _assert_matches_loop(transcripts, ks, rho, phi):
    """Each branch against the loop reference, its fidelity against one clone overlap per branch with phi
    and, bit for bit, against branch_scores."""
    assert len(transcripts) == 8
    assert np.array_equal([tr.fidelity for tr in transcripts], branch_scores(transcripts, phi))
    for (ai, bi), tr, (prob, post) in zip(protocol._BRANCHES, transcripts, _per_branch_loop(ks, rho)):
        assert (tr.alice_outcome, tr.classical_bit, tr.bob_outcome) == (ai, 0 if ai in (1, 3) else 1, bi)
        assert abs(tr.joint_probability - prob) <= 1e-15
        assert tr.post_state.shape == (16, 16)
        assert np.abs(tr.post_state - post).max() <= 1e-15
        r1, r2 = clone_reductions(post)
        assert abs(tr.fidelity - float(np.real(phi.conj() @ (r1 + r2) @ phi)) / 2.0) <= 1e-15


def test_batched_exact_equals_per_branch_loop():
    for alpha in GRID:
        phi = schmidt_state(alpha)
        transcripts = run_protocol_exact(alpha)
        _assert_matches_loop(transcripts, build_kraus(alpha), np.outer(phi, phi.conj()), phi)
        # One scoring path: the average is the weighted sum of the transcripts' fidelities, bit for bit.
        weighted = sum(tr.joint_probability * tr.fidelity for tr in transcripts)
        assert average_clone_fidelity(transcripts, phi) == weighted


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_branch_mixture_reproduces_channel(alpha):
    """On a random full-rank state the Kraus set's branches, weighted by their probabilities, sum to its
    Choi operator's channel; on the representative state the table's branches do."""
    rng = np.random.default_rng(31)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    ks = build_kraus(alpha)
    mixture = sum(prob * post for prob, post in _per_branch_loop(ks, rho))
    assert np.abs(mixture - apply_choi(kraus_to_choi(ks), rho)).max() < 1e-12
    phi = schmidt_state(alpha)
    mixture = sum(tr.joint_probability * tr.post_state for tr in run_protocol_exact(alpha))
    assert np.abs(mixture - apply_choi(kraus_to_choi(ks), np.outer(phi, phi.conj()))).max() < 1e-15


def test_branch_mixture_reproduces_channel_over_grid():
    """The table's branch states, weighted by their probabilities, sum to the Kraus set's channel applied to
    the representative state (measured: 1.1e-16)."""
    for alpha in GRID:
        phi = schmidt_state(alpha)
        mixture = sum(tr.joint_probability * tr.post_state for tr in run_protocol_exact(alpha))
        p_e = kraus_to_choi(build_kraus(alpha))
        assert np.abs(mixture - apply_choi(p_e, np.outer(phi, phi.conj()))).max() < 1e-15


def test_floor_branches_get_zero_post_states(monkeypatch):
    """Branches at or below PROBABILITY_FLOOR get zero post-states; one of probability ~1e-10, far
    below any branch of a valid Kraus set but above the floor, keeps its normalized post-state."""
    ks = build_kraus(0.5)
    weak = dataclasses.replace(ks, k=ks.k * np.array([0.0, 1e-8, 3e-5, 1, 1, 1, 1, 1])[:, None, None])
    monkeypatch.setattr(protocol, "build_kraus", lambda alpha: weak)
    phi = schmidt_state(0.5)
    transcripts = run_protocol_exact(0.5)
    _assert_matches_loop(transcripts, weak, np.outer(phi, phi.conj()), phi)
    for tr in transcripts[:2]:
        assert 0.0 <= tr.joint_probability <= protocol.PROBABILITY_FLOOR
        assert np.array_equal(tr.post_state, np.zeros((16, 16)))
        assert tr.fidelity == 0.0
    assert np.array_equal(branch_scores(transcripts[:2], phi), [0.0, 0.0])
    assert 1e-11 < transcripts[2].joint_probability < 1e-9 and transcripts[2].fidelity > 0.1
    for tr in transcripts[2:]:
        assert abs(np.trace(tr.post_state) - 1.0) < 1e-12


def test_transcript_fidelity_equals_branch_scores():
    """One trial draws the table's branch_scores against schmidt_state(alpha) as numpy's choice picks the
    branch, bit for bit; _assert_matches_loop pins every transcript's fidelity to the same scores."""
    for alpha in GRID:
        table = run_protocol_exact(alpha)
        scores = branch_scores(table, schmidt_state(alpha))
        probs = np.array([tr.joint_probability for tr in table])
        for seed in range(4):
            drawn = np.random.default_rng(seed).choice(8, p=probs / probs.sum())
            assert run_protocol_sampled(alpha, 1, seed) == (scores[drawn], 0.0)


def test_kraus_to_choi_equals_outer_product_sum():
    """The single (64x8)(8x64) product equals the sum of the eight outer products vec(Ki) vec(Ki)^dag."""
    for alpha in GRID:
        ks = build_kraus(alpha)
        vecs = [kmat.reshape(-1) for kmat in ks.k]
        expected = sum(np.outer(vec, vec.conj()) for vec in vecs)
        assert np.abs(kraus_to_choi(ks) - expected).max() <= 1e-14


def test_protocol_rejects_alpha_out_of_range():
    for call in (build_kraus, run_protocol_exact):
        with pytest.raises(ValueError):
            call(0.9)


def test_dilations_are_isometries():
    for alpha in (0.3, 0.55, ALPHA_MAX):
        ks = build_kraus(alpha)
        u_a, u_b_plus, u_b_minus = build_dilations(ks)
        assert u_a.shape == (16, 2)
        assert u_b_plus.shape == (8, 2)
        assert np.abs(u_a.conj().T @ u_a - np.eye(2)).max() < 1e-12
        assert np.abs(u_b_plus.conj().T @ u_b_plus - np.eye(2)).max() < 1e-12
        assert np.abs(u_b_minus.conj().T @ u_b_minus - np.eye(2)).max() < 1e-12
        for i, m in enumerate(ks.m):
            block = u_a.reshape(4, 4, 2)[:, i, :]
            assert np.abs(block - m).max() < 1e-14
        for i, m_idx in enumerate((0, 2)):
            block = u_b_plus.reshape(4, 2, 2)[:, i, :]
            assert np.abs(block - math.sqrt(2.0) * ks.m[m_idx]).max() < 1e-14


def test_dilation_column_amplitudes():
    """The even-bit isometry sends |0> to sqrt(2)[w|00,a1> + (w/2+v)|01,a2> + (w/2-v)|10,a2>]."""
    ks = build_kraus(ALPHA_MAX)
    _, u_b_plus, _ = build_dilations(ks)
    column = u_b_plus[:, 0]
    root2 = math.sqrt(2.0)
    assert abs(column[0] - root2 * ks.w) < 1e-14
    assert abs(column[3] - root2 * (ks.w / 2.0 + ks.v)) < 1e-14
    assert abs(column[5] - root2 * (ks.w / 2.0 - ks.v)) < 1e-14
    assert np.abs(np.delete(column, [0, 3, 5])).max() < 1e-14


def test_dilations_reject_corrupted_kraus():
    ks = build_kraus(0.5)
    with_nan = ks.m.copy()
    with_nan[2, 1, 0] = np.nan
    for m in (1.01 * ks.m, with_nan):
        with pytest.raises(ValueError, match="POVM completeness"):
            build_dilations(dataclasses.replace(ks, m=m))
