import dataclasses
import math

import numpy as np
import pytest

from entclone import channel, cli, protocol
from entclone.analytic import ALPHA_MAX, CloneFamily, alpha_critical, fidelity_bh, fidelity_locc, params_for, schmidt_state
from entclone.channel import apply_choi, channel_from_params, local_fidelity, trace_output
from entclone.covariant import assemble_ptilde
from entclone.protocol import (
    average_clone_fidelity,
    branch_fidelity,
    build_dilations,
    build_kraus,
    kraus_to_choi,
    run_protocol_exact,
    run_protocol_sampled,
)


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
    fids = sorted(branch_fidelity(tr, bell) for tr in transcripts)
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


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_branch_mixture_reproduces_channel(alpha):
    rng = np.random.default_rng(31)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    transcripts = run_protocol_exact(alpha, state=rho)
    mixture = sum(tr.joint_probability * tr.post_state for tr in transcripts)
    p_e = kraus_to_choi(build_kraus(alpha))
    assert np.abs(mixture - apply_choi(p_e, rho)).max() < 1e-12


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


def test_sampled_accepts_numpy_integers():
    for kind in (np.int64, np.int32, np.uint16):
        assert run_protocol_sampled(0.5, kind(1000), 3) == run_protocol_sampled(0.5, 1000, 3)


def _choice_sampled(alpha, trials, seed):
    """The sampler as numpy's own Generator.choice draws it: the reference for the counts."""
    transcripts = run_protocol_exact(alpha)
    reference = schmidt_state(alpha)
    scores = np.array([branch_fidelity(tr, reference) for tr in transcripts])
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
    transcripts, probs, scores = protocol._branch_table(0.5)
    broken = np.zeros(8) if bad == "all-zero" else np.array([bad, *probs[1:]])
    monkeypatch.setattr(protocol, "_branch_table", lambda alpha: (transcripts, broken, scores))
    with pytest.raises(ValueError, match="branch probabilities"):
        run_protocol_sampled(0.5, trials=10, seed=1)


def test_memo_arrays_are_read_only():
    ks = build_kraus(0.5)
    transcripts, probs, scores = protocol._branch_table(0.5)
    arrays = [*ks.m, *ks.k, *(tr.post_state for tr in transcripts), probs, scores]
    phi = schmidt_state(0.5)
    arrays += [tr.post_state for tr in run_protocol_exact(0.5, state=np.outer(phi, phi.conj()))]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_memos_rebuild_bit_identical_after_clear():
    for alpha in (0.0, 0.2, alpha_critical(), 0.5, ALPHA_MAX):
        ks = build_kraus(alpha)
        table = protocol._branch_table(alpha)
        protocol._kraus_set.cache_clear()
        protocol._branch_table.cache_clear()
        again = build_kraus(alpha)
        assert again is not ks and (again.w, again.v) == (ks.w, ks.v)
        assert all(np.array_equal(x, y) for x, y in zip((*again.m, *again.k), (*ks.m, *ks.k)))
        rebuilt = protocol._branch_table(alpha)
        assert rebuilt[0] is not table[0]
        assert np.array_equal(rebuilt[1], table[1]) and np.array_equal(rebuilt[2], table[2])
        for tr, old in zip(rebuilt[0], table[0]):
            assert tr.joint_probability == old.joint_probability
            assert np.array_equal(tr.post_state, old.post_state)


def test_table_and_local_fidelity_validate_the_representative_state_once(monkeypatch):
    calls = []
    check_state = channel.check_state
    monkeypatch.setattr(channel, "check_state", lambda rho: calls.append(1) or check_state(rho))
    channel._representative_density.cache_clear()
    alpha = 0.41
    run_protocol_exact(alpha)
    local_fidelity(channel_from_params(params_for(CloneFamily.LOCC_OPTIMAL, alpha)), alpha)
    assert len(calls) == 1
    transcripts, probs, scores = protocol._branch_table(alpha)
    assert np.array_equal(scores, protocol.branch_scores(transcripts, schmidt_state(alpha)))
    assert np.array_equal(probs, [tr.joint_probability for tr in transcripts])


def test_kraus_stack_is_read_only_and_backs_the_tuple():
    ks = build_kraus(0.5)
    assert ks.k_stack.shape == (8, 16, 4) and not ks.k_stack.flags.writeable
    assert all(kmat.base is ks.k_stack for kmat in ks.k)
    weak = dataclasses.replace(ks, k=(0.0 * ks.k[0], *ks.k[1:]))
    assert np.array_equal(weak.k_stack[0], np.zeros((16, 4))) and np.array_equal(weak.k_stack[1:], ks.k_stack[1:])


def test_explicit_state_bypasses_the_table():
    phi = schmidt_state(0.5)
    fresh = run_protocol_exact(0.5, state=np.outer(phi, phi.conj()))
    info = protocol._branch_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    for tr, cached in zip(fresh, run_protocol_exact(0.5)):
        assert tr.post_state is not cached.post_state
        assert tr.joint_probability == cached.joint_probability
        assert np.array_equal(tr.post_state, cached.post_state)


def test_exact_then_sampled_enumerates_once(monkeypatch):
    calls = []
    enumerate_branches = protocol._enumerate_branches

    def counted(alpha, state):
        calls.append(alpha)
        return enumerate_branches(alpha, state)

    monkeypatch.setattr(protocol, "_enumerate_branches", counted)
    transcripts = run_protocol_exact(0.3)
    run_protocol_sampled(0.3, trials=1000, seed=2)
    run_protocol_sampled(np.float64(0.3), trials=1000, seed=3)
    assert all(a is b for a, b in zip(run_protocol_exact(0.3), transcripts))
    assert calls == [0.3]
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
        assert isinstance(ks.k, tuple) and len(ks.k) == 8
        for (ai, bi), kmat in zip(protocol._BRANCHES, ks.k):
            block = math.sqrt(2.0) * np.kron(ks.m[ai - 1], ks.m[bi - 1])
            expected = block.reshape(2, 2, 2, 2, 4).transpose(0, 2, 1, 3, 4).reshape(16, 4)
            assert kmat.shape == (16, 4)
            assert np.array_equal(kmat, expected)


GRID = [*np.linspace(0.0, ALPHA_MAX, 401), alpha_critical()]


def _per_branch_loop(ks, rho):
    """Reference: each branch as its own K rho K^dag, giving (probability, post-state) per K."""
    out = []
    for kmat in ks.k:
        raw = kmat @ rho @ kmat.conj().T
        prob = float(np.trace(raw).real)
        if prob > protocol.PROBABILITY_FLOOR:
            out.append((prob, raw / prob))
        else:
            out.append((max(prob, 0.0), np.zeros((16, 16), dtype=complex)))
    return out


def _assert_matches_loop(transcripts, ks, rho):
    assert len(transcripts) == 8
    for (ai, bi), tr, (prob, post) in zip(protocol._BRANCHES, transcripts, _per_branch_loop(ks, rho)):
        assert (tr.alice_outcome, tr.classical_bit, tr.bob_outcome) == (ai, 0 if ai in (1, 3) else 1, bi)
        assert abs(tr.joint_probability - prob) <= 1e-15
        assert tr.post_state.shape == (16, 16)
        assert np.abs(tr.post_state - post).max() <= 1e-15


def test_batched_exact_equals_per_branch_loop():
    for alpha in GRID:
        phi = schmidt_state(alpha)
        transcripts = run_protocol_exact(alpha)
        _assert_matches_loop(transcripts, build_kraus(alpha), np.outer(phi, phi.conj()))
        # One scoring path: the average is the weighted sum of the branch scores, bit for bit.
        weighted = sum(tr.joint_probability * branch_fidelity(tr, phi) for tr in transcripts)
        assert average_clone_fidelity(transcripts, phi) == weighted
    rng = np.random.default_rng(41)
    for alpha in rng.uniform(0.0, ALPHA_MAX, 20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        _assert_matches_loop(run_protocol_exact(alpha, state=rho), build_kraus(alpha), rho)


def test_floor_branches_get_zero_post_states(monkeypatch):
    ks = build_kraus(0.5)
    weak = dataclasses.replace(ks, k=(0.0 * ks.k[0], 1e-8 * ks.k[1], *ks.k[2:]))
    monkeypatch.setattr(protocol, "build_kraus", lambda alpha: weak)
    phi = schmidt_state(0.5)
    transcripts = run_protocol_exact(0.5)
    _assert_matches_loop(transcripts, weak, np.outer(phi, phi.conj()))
    for tr in transcripts[:2]:
        assert 0.0 <= tr.joint_probability <= protocol.PROBABILITY_FLOOR
        assert np.array_equal(tr.post_state, np.zeros((16, 16)))
        assert branch_fidelity(tr, phi) == 0.0
    for tr in transcripts[2:]:
        assert abs(np.trace(tr.post_state) - 1.0) < 1e-12


def test_kraus_to_choi_equals_outer_product_sum():
    """The single (64x8)(8x64) product equals the sum of the eight outer products vec(Ki) vec(Ki)^dag."""
    for alpha in GRID:
        ks = build_kraus(alpha)
        vecs = [kmat.reshape(-1) for kmat in ks.k]
        expected = sum(np.outer(vec, vec.conj()) for vec in vecs)
        assert np.abs(kraus_to_choi(ks) - expected).max() <= 1e-14


def test_run_protocol_validates_state():
    with pytest.raises(ValueError):
        run_protocol_exact(0.5, state=np.eye(4))
    with pytest.raises(ValueError):
        run_protocol_exact(0.5, state=np.diag([2.0, -1.0, 0.0, 0.0]))
    for bad in (np.diag([np.nan, 1.0, 0.0, 0.0]), np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            run_protocol_exact(0.5, state=bad)
    with pytest.raises(ValueError):
        build_kraus(0.9)


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
    bad = dataclasses.replace(ks, m=tuple(1.01 * m for m in ks.m))
    with pytest.raises(ValueError):
        build_dilations(bad)
