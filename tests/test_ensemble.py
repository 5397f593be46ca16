"""Monte Carlo engine tests: determinism, exact-zero branches, and gates."""
from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    assert_dist,
    dist_as_dict,
    random_pvm_projectors,
    random_unit_vector,
    random_unitary,
)
from prepost.abl import SelectionContext, post_outcome_distribution, sequence_probability
from prepost.core import (
    EPS_PROB,
    Distribution,
    FilterStage,
    MeasureStage,
    ProjectiveMeasurement,
    PureState,
    UnitaryOp,
    UnitaryStage,
    axis_pvm,
)
from prepost.ensemble import (
    CHUNK,
    MAX_WORKERS,
    AgreementReport,
    EmptySelection,
    EmpiricalDistribution,
    EnsembleStats,
    Protocol,
    agreement_check,
    conditional_frequencies,
    outcome_count_histogram,
    run_ensemble,
    trial_outcome_labels,
)
from prepost.ensemble import BLOCK, _clean_cdfs, _draws, _integer_edges

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)


def z_plus() -> PureState:
    return PureState(("z+", "z-"), [1.0, 0.0])


def sigma_x() -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_eigenvectors(
        ("x+", "x-"), np.array([[S2, S2], [S2, -S2]]))


def aad_protocol() -> Protocol:
    return Protocol(z_plus(), sigma_x(), intermediate=MeasureStage(sigma_x()),
                    selection="x+")


def crossed_protocol() -> Protocol:
    return Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                    selection="pass")


class TestProtocol:
    def test_selection_label_must_exist(self):
        with pytest.raises(KeyError):
            Protocol(z_plus(), sigma_x(), selection="nope")

    def test_dimensions_must_agree(self):
        coin = PureState(("r", "h", "t"), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Protocol(coin, sigma_x())

    def test_filter_absorb_label_must_be_a_final_outcome(self):
        stage = FilterStage(axis_pvm(math.pi / 4), "pass", "gone")
        with pytest.raises(KeyError):
            Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                     intermediate=stage)

    def test_json_round_trip(self):
        proto = aad_protocol()
        back = Protocol.from_json_dict(proto.to_json_dict())
        assert back.selection == "x+"
        assert back.post_pvm.labels == ("x+", "x-")
        assert isinstance(back.intermediate, MeasureStage)


class TestRunEnsemble:
    def test_counts_sum_to_trials(self):
        stats = run_ensemble(aad_protocol(), 5000, seed=3)
        assert sum(stats.counts.values()) == 5000

    def test_same_pvm_before_and_after_repeats_exactly(self):
        stats = run_ensemble(aad_protocol(), 20000, seed=3)
        # A second measurement of the same PVM reproduces the collapsed
        # outcome, so off-diagonal joint counts are impossible.
        assert stats.counts[("x+", "x-")] == 0
        assert stats.counts[("x-", "x+")] == 0

    def test_orthogonal_final_outcome_is_never_sampled(self):
        stats = run_ensemble(crossed_protocol(), 50000, seed=9)
        final_pass = sum(c for (_, f), c in stats.counts.items() if f == "pass")
        assert final_pass == 0

    def test_unitary_stage_flips_the_coin(self):
        flip = UnitaryOp(np.array([
            [0.0, 0.0, 1.0],
            [S2, S2, 0.0],
            [S2, -S2, 0.0],
        ]))
        ready = PureState(("ready", "heads", "tails"), [1.0, 0.0, 0.0])
        heads = np.zeros((3, 3)); heads[1, 1] = 1.0
        pvm = ProjectiveMeasurement([("heads", heads), ("noheads", np.eye(3) - heads)])
        proto = Protocol(ready, pvm, intermediate=UnitaryStage(flip))
        stats = run_ensemble(proto, 10000, seed=5)
        freq = stats.final_frequencies()
        gate = 5.0 * math.sqrt(0.25 / 10000)
        assert abs(freq.distribution.probability("heads") - 0.5) <= gate

    def test_filter_stage_records_absorbed_trials_under_absorb_label(self):
        proto = Protocol(PureState(("x", "y"), [1.0, 0.0]), axis_pvm(math.pi / 2),
                         intermediate=FilterStage(axis_pvm(math.pi / 4), "pass", "block"),
                         selection="pass")
        stats = run_ensemble(proto, 50000, seed=11)
        assert stats.counts[("block", "pass")] == 0
        gate = 5.0 * math.sqrt(0.25 / 50000)
        pass_rate = stats.final_frequencies().distribution.probability("pass")
        assert abs(pass_rate - 0.25) <= gate

    def test_reproducible_across_worker_counts(self):
        proto = aad_protocol()
        a = run_ensemble(proto, 30000, seed=17, workers=1)
        b = run_ensemble(proto, 30000, seed=17, workers=4)
        c = run_ensemble(proto, 30000, seed=17)
        assert a.counts == b.counts == c.counts
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_different_seeds_differ(self):
        a = run_ensemble(aad_protocol(), 5000, seed=1)
        b = run_ensemble(aad_protocol(), 5000, seed=2)
        assert a.counts != b.counts

    def test_trial_count_must_be_positive(self):
        with pytest.raises(ValueError):
            run_ensemble(aad_protocol(), 0, seed=1)

    def test_final_marginal_agrees_with_analytic_distribution(self):
        proto = Protocol(z_plus(), sigma_x(),
                         intermediate=MeasureStage(axis_pvm(0.7)))
        stats = run_ensemble(proto, 100000, seed=23)
        analytic = post_outcome_distribution(z_plus(), sigma_x(),
                                             intermediate=axis_pvm(0.7))
        report = agreement_check(stats.final_frequencies(), analytic, z=5.0)
        assert report.passed

    def test_selection_fraction_matches_summed_path_weights(self):
        proto = Protocol(z_plus(), sigma_x(),
                         intermediate=MeasureStage(axis_pvm(0.7)),
                         selection="x+")
        stats = run_ensemble(proto, 100000, seed=29)
        ctx = SelectionContext(z_plus(), sigma_x(), "x+")
        q = axis_pvm(0.7)
        expected = sum(sequence_probability(ctx, (q, l)) for l in q.labels)
        selected = sum(c for (_, f), c in stats.counts.items() if f == "x+")
        gate = 5.0 * math.sqrt(expected * (1 - expected) / 100000)
        assert abs(selected / 100000 - expected) <= gate


def pinned_protocols() -> dict[str, Protocol]:
    """One protocol per kind of intermediate stage, plus a random dim-8 one."""
    photon = PureState(("x", "y"), [1.0, 0.0])
    ready = PureState(("ready", "heads", "tails"), [1.0, 0.0, 0.0])
    flip = UnitaryOp(np.array([[0.0, 0.0, 1.0], [S2, S2, 0.0], [S2, -S2, 0.0]]))
    heads = np.diag([0.0, 1.0, 0.0])
    coin_pvm = ProjectiveMeasurement([("heads", heads), ("noheads", np.eye(3) - heads)])
    rng = np.random.default_rng(8)
    labels = [str(k) for k in range(8)]
    a = random_unit_vector(rng, 8)
    u, v = UnitaryOp(random_unitary(rng, 8)), UnitaryOp(random_unitary(rng, 8))
    query = ProjectiveMeasurement(
        list(zip([f"q{k}" for k in labels], random_pvm_projectors(rng, 8, False))))
    post = ProjectiveMeasurement(
        list(zip([f"b{k}" for k in labels], random_pvm_projectors(rng, 8, False))))
    return {
        "none": Protocol(photon, axis_pvm(0.7)),
        "unitary": Protocol(ready, coin_pvm, intermediate=UnitaryStage(flip)),
        "measure": Protocol(z_plus(), sigma_x(),
                            intermediate=MeasureStage(axis_pvm(0.7))),
        "filter": Protocol(photon, axis_pvm(math.pi / 2),
                           intermediate=FilterStage(axis_pvm(0.6), "pass", "block")),
        "dim8": Protocol(PureState(labels, a), post, intermediate=MeasureStage(query),
                         pre_to_t=u, t_to_post=v),
    }


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


# The sampler draws its variates in chunks of 2^16 trials; these sizes sit
# on either side of a chunk boundary and past several of them.
PINNED_TRIALS = (1, 3, (1 << 16) - 1, (1 << 16) + 1, 3 * (1 << 16) + 5)
PINNED_SEED = 7
# sha256 prefixes of (counts, per-trial labels) from the sampler that drew
# all variates at once; any refactor must reproduce them exactly.
PINNED_DIGESTS = {
    ("none", 1): ("ff86c0e5b53a5db7", "12a98e7491309919"),
    ("none", 3): ("6b04e060c7837c61", "06686d80a53607ac"),
    ("none", 65535): ("41f9929f03813002", "1d7134be70c159ab"),
    ("none", 65537): ("dae4b2bba62b5fdb", "5d048b6ff4a69faf"),
    ("none", 196613): ("899db72a199768ec", "9d4048198e447269"),
    ("unitary", 1): ("fa61d95b4bdb8363", "9e99ad177cbd1ad8"),
    ("unitary", 3): ("5de77bceb3dae445", "dfbefad373f29669"),
    ("unitary", 65535): ("5e4a7f7850243299", "8f00149cbb01a223"),
    ("unitary", 65537): ("c312d4a0ed97f615", "b6182713eb934731"),
    ("unitary", 196613): ("8a145286d2161074", "c2e43bcf243aa2b2"),
    ("measure", 1): ("15dc7f09a7cba81f", "ca43224478fd252a"),
    ("measure", 3): ("810d4e2937b35407", "c9ed86c380431405"),
    ("measure", 65535): ("7804f939b68e83b4", "e0923a6ffae49828"),
    ("measure", 65537): ("91e43827d2617ddc", "4a30aa753930def8"),
    ("measure", 196613): ("4cd6d223b1c37458", "f6e6dbb3aa929c39"),
    ("filter", 1): ("0bbad85d49468ec0", "0efd257af77ea00b"),
    ("filter", 3): ("c994ead5e5020f0f", "a7ed3adfa0e0f3a4"),
    ("filter", 65535): ("08bdcb74d8278a92", "0dbc682d6b97675f"),
    ("filter", 65537): ("2565f74e540e1b25", "f915bb83e691bd21"),
    ("filter", 196613): ("2eb283d897686305", "a39d16ab0ef26664"),
    ("dim8", 1): ("904519792414b698", "7d9abe07469b608f"),
    ("dim8", 3): ("8b595edd250b67d7", "b45d72fa9dec855c"),
    ("dim8", 65535): ("6d32e30f2703a3d7", "092d522c3abc714a"),
    ("dim8", 65537): ("f1bfcb9b8c667649", "fe8c67e88812a283"),
    ("dim8", 196613): ("5c3296a7f8130b8f", "999490e9df08257b"),
}


class TestDeterminismDigest:
    @pytest.fixture(scope="class")
    def protocols(self):
        return pinned_protocols()

    @pytest.mark.parametrize("trials", PINNED_TRIALS)
    @pytest.mark.parametrize("name", ["none", "unitary", "measure", "filter", "dim8"])
    def test_counts_and_labels_match_pinned_digest(self, protocols, name, trials):
        proto = protocols[name]
        counts, labels = PINNED_DIGESTS[(name, trials)]
        for workers in (1, 2, 3, 4):
            stats = run_ensemble(proto, trials, PINNED_SEED, workers=workers)
            assert _digest(stats.to_json_dict()["counts"]) == counts, workers
        mids, finals = trial_outcome_labels(proto, trials, PINNED_SEED)
        assert _digest([None if mids is None else list(mids),
                        list(finals)]) == labels


    def test_pinned_sizes_straddle_chunk_boundaries(self):
        # Chunk starts must be even: one Philox counter step feeds two trials.
        assert CHUNK % 2 == 0
        assert {CHUNK - 1, CHUNK + 1} <= set(PINNED_TRIALS)
        assert max(PINNED_TRIALS) > 3 * CHUNK


# Working set of one chunk: variates and index arrays, under 64 B a trial.
CHUNK_BYTES = 64 * CHUNK


class TestBoundedMemory:
    @staticmethod
    def peak_bytes(proto: Protocol, trials: int, workers: int) -> int:
        tracemalloc.start()
        try:
            run_ensemble(proto, trials, seed=3, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_trials(self, workers):
        proto = pinned_protocols()["dim8"]  # 8 final outcomes
        small = self.peak_bytes(proto, 4 * CHUNK, workers)
        large = self.peak_bytes(proto, 32 * CHUNK, workers)
        assert abs(large - small) <= CHUNK_BYTES
        assert large <= 4 * CHUNK_BYTES


class TestTrialOutcomeLabels:
    def test_labels_tally_to_the_ensemble_counts(self):
        proto = aad_protocol()
        mids, finals = trial_outcome_labels(proto, 2000, seed=3)
        stats = run_ensemble(proto, 2000, seed=3)
        assert len(mids) == len(finals) == 2000
        tally: dict = {}
        for key in zip(mids, finals):
            tally[key] = tally.get(key, 0) + 1
        assert sum(tally.values()) == sum(stats.counts.values())
        for key, count in stats.counts.items():
            assert tally.get(key, 0) == count

    def test_no_intermediate_outcome_recorded_without_a_measurement(self):
        mids, finals = trial_outcome_labels(crossed_protocol(), 100, seed=1)
        assert mids is None
        assert len(finals) == 100


class TestConditionalFrequencies:
    def test_post_selection_pins_the_earlier_outcome(self):
        stats = run_ensemble(aad_protocol(), 100000, seed=41)
        freq = conditional_frequencies(stats, "x+")
        assert_dist(freq.distribution, {"x+": 1.0, "x-": 0.0}, tol=0.0)
        assert freq.sample_size > 0

    def test_empty_selection_raises_with_counts(self):
        stats = run_ensemble(crossed_protocol(), 1000, seed=7)
        with pytest.raises(EmptySelection, match="0 of 1000"):
            conditional_frequencies(stats, "pass")

    def test_unknown_condition_label(self):
        stats = run_ensemble(aad_protocol(), 100, seed=1)
        with pytest.raises(KeyError):
            conditional_frequencies(stats, "w+")

    def test_protocol_without_intermediate_yields_empty_distribution(self):
        stats = run_ensemble(crossed_protocol(), 1000, seed=7)
        freq = conditional_frequencies(stats, "block")
        assert freq.distribution.entries == ()
        assert freq.sample_size == 1000


class TestAgreementCheck:
    def test_close_frequency_passes(self):
        emp = EmpiricalDistribution(
            Distribution([("a", 0.503), ("b", 0.497)]), 10000)
        report = agreement_check(emp, Distribution([("a", 0.5), ("b", 0.5)]), z=5.0)
        assert report.passed
        # gate = 5 * sqrt(0.25 / 10^4) = 0.025
        assert report.entries[0].tolerance == pytest.approx(0.025, abs=1e-6)

    def test_certain_outcome_passes_at_zero_variance(self):
        emp = EmpiricalDistribution(Distribution([("a", 1.0), ("b", 0.0)]), 50)
        report = agreement_check(emp, Distribution([("a", 1.0), ("b", 0.0)]), z=5.0)
        assert report.passed

    def test_distant_frequency_fails(self):
        emp = EmpiricalDistribution(
            Distribution([("a", 0.40), ("b", 0.60)]), 10000)
        report = agreement_check(emp, Distribution([("a", 0.5), ("b", 0.5)]), z=5.0)
        assert not report.passed
        failed = [e.label for e in report.entries if not e.passed]
        assert "a" in failed

    def test_label_mismatch_rejected(self):
        emp = EmpiricalDistribution(Distribution([("a", 1.0)]), 10)
        with pytest.raises(ValueError):
            agreement_check(emp, Distribution([("z", 1.0)]), z=5.0)


class TestSerialization:
    def test_json_includes_provenance(self):
        stats = run_ensemble(aad_protocol(), 1000, seed=13)
        data = stats.to_json_dict()
        assert data["trials"] == 1000
        assert data["seed"] == 13
        assert data["protocol"]["selection"] == "x+"
        assert sum(row["count"] for row in data["counts"]) == 1000


class TestOutcomeCountHistogram:
    TRIALS = 3 * CHUNK + 5

    @pytest.mark.parametrize("name", ["unitary", "measure", "filter", "dim8"])
    def test_matches_per_trial_labels_and_first_seed_ensemble(self, name):
        proto = pinned_protocols()[name]
        label = proto.post_pvm.labels[0]
        seeds = [PINNED_SEED, 11, 12]
        hits = sum((trial_outcome_labels(proto, self.TRIALS, s)[1] == label).astype(int)
                   for s in seeds)
        expected = np.bincount(hits, minlength=len(seeds) + 1)
        for workers in (1, 3):
            hist, first = outcome_count_histogram(proto, label, self.TRIALS, seeds,
                                                  workers=workers)
            assert np.array_equal(hist, expected)
            assert (first.trials, first.seed) == (self.TRIALS, PINNED_SEED)
            # The first seed's tally is the pinned run_ensemble digest.
            assert _digest(first.to_json_dict()["counts"]) == \
                PINNED_DIGESTS[(name, self.TRIALS)][0]


class TestWorkerBound:
    @pytest.mark.parametrize("run", [
        lambda proto, workers: run_ensemble(proto, 10, 1, workers=workers),
        lambda proto, workers: outcome_count_histogram(
            proto, "x+", 10, [1, 2], workers=workers),
    ])
    def test_more_than_max_workers_is_rejected(self, run):
        # Ten trials are one chunk, so no thread would start either way.
        proto = aad_protocol()
        run(proto, MAX_WORKERS)
        with pytest.raises(ValueError, match=f"between 1 and {MAX_WORKERS}"):
            run(proto, MAX_WORKERS + 1)


# The float sampler that the integer edges replaced, kept verbatim as the
# reference: per-row CDFs, and a right-bisect of Generator.random's variates.

def _clean_cdf(probs: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    p[p <= EPS_PROB] = 0.0
    total = p.sum()
    if total <= 0.0:
        raise ValueError("all outcomes have zero probability")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    return cdf


def _float_draw(branch_cdf: np.ndarray, final_cdfs: np.ndarray, seed: int,
                lo: int, hi: int) -> tuple[np.ndarray | int, np.ndarray]:
    bits = np.random.Philox(key=seed).advance(lo // 2)
    uniforms = np.random.Generator(bits).random((hi - lo, 2))
    final = np.zeros(hi - lo, dtype=np.intp)
    if branch_cdf.size == 1:
        for edge in final_cdfs[0, :-1]:
            final += edge <= uniforms[:, 1]
        return 0, final
    branch = np.searchsorted(branch_cdf, uniforms[:, 0], side="right")
    for column in final_cdfs.T[:-1]:
        final += column.take(branch) <= uniforms[:, 1]
    return branch, final


def _edge_table(rng: np.random.Generator, variates: np.ndarray,
                rows: int, cols: int) -> np.ndarray:
    """Float CDF rows whose inner edges sit exactly on drawn variates, one ulp
    to either side of them, at 0.0, at 5e-324 or at an interior 1.0; the last
    column is 1.0."""
    pool = np.concatenate([variates, np.nextafter(variates, 0.0),
                           np.nextafter(variates, 1.0), [0.0, 5e-324, 1.0]])
    inner = np.sort(rng.choice(pool, size=(rows, cols - 1)), axis=1)
    return np.hstack([inner, np.ones((rows, 1))])


class TestIntegerBisect:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 - 1])
    @pytest.mark.parametrize("offset", [1, 3, 12345, 2**40 + 1])
    def test_random_scales_the_shifted_raw_words(self, seed, offset):
        # The sampler reads outcomes off these integers; a numpy release that
        # made its variates some other way would break the digests.
        n = 1001
        want = np.random.Generator(np.random.Philox(key=seed).advance(offset)).random((n, 2))
        words = np.random.Philox(key=seed).advance(offset).random_raw(2 * n)
        assert np.array_equal(want.ravel(), (words >> 11) * 2.0**-53)

    def test_draw_equals_the_float_bisect(self):
        rng = np.random.default_rng(13)
        on_edge = 0
        for k in range(300):
            seed, lo = int(rng.integers(2**63)), 2 * int(rng.integers(2**40))
            # Every tenth run spans a block boundary.
            hi = lo + int(rng.integers(1, 200)) + (BLOCK if k % 10 == 0 else 0)
            n_branch, n_final = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            bits = np.random.Philox(key=seed).advance(lo // 2)
            variates = np.random.Generator(bits).random((hi - lo, 2))
            branch_cdf = _edge_table(rng, variates[:, 0], 1, n_branch)[0]
            final_cdfs = _edge_table(rng, variates[:, 1], n_branch, n_final)
            want = _float_draw(branch_cdf, final_cdfs, seed, lo, hi)
            blocks = list(_draws(_integer_edges(branch_cdf), _integer_edges(final_cdfs),
                                 seed, lo, hi))
            finals = np.concatenate([f for _, f in blocks])
            branches = np.concatenate([np.broadcast_to(b, f.shape) for b, f in blocks])
            assert np.array_equal(branches, np.broadcast_to(want[0], finals.shape)), k
            assert np.array_equal(finals, want[1]), k
            on_edge += np.isin(variates, final_cdfs[:, :-1]).sum()
        assert on_edge >= 100

    def test_stacked_cdfs_equal_the_per_row_cdfs(self):
        rng = np.random.default_rng(5)
        for k in range(200):
            n_rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 20))
            rows = rng.random((n_rows, n)) ** 4
            tiny = rng.random(rows.shape) < 0.2
            rows[tiny] = rng.choice([0.0, -1e-14, 1e-13, 1e-12, 2e-12], size=tiny.sum())
            rows[:, 0] = rng.random(n_rows) + 0.1
            rows[rng.random(n_rows) < 0.2] = 0.0  # unreached branches
            if k % 2:
                rows = np.asfortranarray(rows)
            want = np.array([_clean_cdf(r) if r.any() else np.ones(n) for r in rows])
            assert np.array_equal(_clean_cdfs(rows), want), k

    def test_a_weightless_row_is_rejected(self):
        with pytest.raises(ValueError, match="all outcomes have zero probability"):
            _clean_cdfs(np.array([[0.5, 0.5], [1e-13, 0.0]]))
