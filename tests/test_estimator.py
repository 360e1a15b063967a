import numpy as np
import pytest

from dbicc import (
    BlockStats,
    DegenerateDistancesError,
    DegenerateInputError,
    DistanceMatrix,
    DistanceSpec,
    GroupedSample,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    Metric,
    NonFiniteError,
    ParameterError,
    PayloadKind,
    TrueScorePopulation,
    block_stats,
    bootstrap_dbicc,
    bootstrap_dbicc_pair,
    build_grouped_sample,
    compute_distance_matrix,
    corr_of_corr_distance,
    dbicc_point,
    gen_gaussian_sample,
    gen_mvn_timeseries,
    l2_distance,
    msd_between,
    msd_within,
    percentile_ci,
    run_coverage_experiment,
    run_point_experiment,
    run_sb_experiment,
    soft_threshold,
)
from conftest import vector_sample


def hand_matrix():
    rows = [("A", 0, [0.0]), ("A", 1, [2.0]), ("B", 0, [0.0]), ("B", 1, [2.0])]
    return compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)


def oracle_msds(dm):
    """Brute-force MSD estimates, summed in row-major upper-triangle order."""
    n = dm.n_total
    ind = np.repeat(np.arange(dm.n_individuals), dm.group_sizes)
    between, within = [], []
    for a in range(n):
        for b in range(a + 1, n):
            (within if ind[a] == ind[b] else between).append(dm.values[a, b] ** 2)
    return (
        float(np.sum(np.array(between)) / len(between)),
        float(np.sum(np.array(within)) / len(within)),
    )


class TestMsd:
    def test_hand_between(self):
        # cross-individual squared distances {0, 4, 4, 0} -> mean 2
        assert msd_between(hand_matrix()) == 2.0

    def test_hand_within(self):
        # within squared distances {4, 4} -> mean 4
        assert msd_within(hand_matrix()) == 4.0

    def test_identical_payloads_give_zero_between(self):
        rows = [("A", 0, [1.0]), ("A", 1, [1.0]), ("B", 0, [1.0]), ("B", 1, [1.0])]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        assert msd_between(dm) == 0.0
        assert msd_within(dm) == 0.0

    def test_matches_bruteforce_oracle_exactly(self, rng):
        for sizes in ([2, 3, 2], [1, 4, 2], [3, 1, 1, 2]):
            dm = compute_distance_matrix(vector_sample(rng, sizes, 3), Metric.L2_VEC)
            b, w = oracle_msds(dm)
            assert msd_between(dm) == b
            assert msd_within(dm) == w

    def test_matches_three_mask_gather_bitwise(self, rng):
        # uneven blocks with singletons; the sums must keep the bits of the
        # gather through same-individual and triu(ones) masks
        sizes = np.concatenate(([1], rng.integers(1, 12, size=90), [1]))
        dm = compute_distance_matrix(vector_sample(rng, sizes, 4), Metric.L2_VEC)
        ind = np.repeat(np.arange(dm.n_individuals), dm.group_sizes)
        same = ind[:, None] == ind[None, :]
        upper = np.triu(np.ones((dm.n_total, dm.n_total), dtype=bool), k=1)
        between = dm.values[upper & ~same]
        within = dm.values[upper & same]
        est = dbicc_point(dm)
        assert est.msd_between == float(
            np.sum(between * between) / est.n_between_pairs
        )
        assert est.msd_within == float(np.sum(within * within) / est.n_within_pairs)

    def test_single_individual(self):
        dm = DistanceMatrix(
            values=np.array([[0.0, 1.0], [1.0, 0.0]]), group_sizes=[2]
        )
        with pytest.raises(InsufficientGroupsError):
            msd_between(dm)

    def test_no_replicated_individual(self):
        dm = DistanceMatrix(
            values=np.array([[0.0, 1.0], [1.0, 0.0]]), group_sizes=[1, 1]
        )
        with pytest.raises(InsufficientReplicatesError):
            msd_within(dm)

    def test_singletons_count_in_between_only(self, rng):
        dm = compute_distance_matrix(vector_sample(rng, [2, 1, 1], 3), Metric.L2_VEC)
        est = dbicc_point(dm)
        assert est.n_within_pairs == 1
        assert est.n_between_pairs == 2 + 2 + 1


class TestDbiccPoint:
    def test_hand_value(self):
        est = dbicc_point(hand_matrix())
        assert est.rho_hat == -1.0  # legal negative dbICC
        assert est.n_within_pairs == 2
        assert est.n_between_pairs == 4

    def test_perfect_reliability(self):
        rows = [("A", 0, [0.0]), ("A", 1, [0.0]), ("B", 0, [5.0]), ("B", 1, [5.0])]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        assert dbicc_point(dm).rho_hat == 1.0

    def test_degenerate_distances(self):
        rows = [("A", 0, [1.0]), ("A", 1, [1.0]), ("B", 0, [1.0]), ("B", 1, [1.0])]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        with pytest.raises(DegenerateDistancesError):
            dbicc_point(dm)

    def test_scale_invariance(self, rng):
        dm = compute_distance_matrix(vector_sample(rng, [3, 2, 2], 4), Metric.L2_VEC)
        base = dbicc_point(dm).rho_hat
        for c in (2.0, 0.125, 3.7):
            scaled = DistanceMatrix(values=c * dm.values, group_sizes=dm.group_sizes)
            assert dbicc_point(scaled).rho_hat == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self, rng):
        payloads = {name: rng.standard_normal((3, 4)) for name in "ABC"}
        base_rows = [(n, j, payloads[n][j]) for n in "ABC" for j in range(3)]
        base = dbicc_point(
            compute_distance_matrix(build_grouped_sample(base_rows), Metric.L2_VEC)
        ).rho_hat
        perm_rows = [(n, j, payloads[n][j]) for n in "CAB" for j in (2, 0, 1)]
        permuted = dbicc_point(
            compute_distance_matrix(build_grouped_sample(perm_rows), Metric.L2_VEC)
        ).rho_hat
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_matches_payload_double_loop_exactly(self, rng):
        sample = vector_sample(rng, [3, 2, 3], 5)
        dm = compute_distance_matrix(sample, Metric.L2_VEC)
        est = dbicc_point(dm)
        payloads = sample.values
        ind = np.repeat(np.arange(dm.n_individuals), dm.group_sizes)
        between, within = [], []
        for a in range(len(payloads)):
            for b in range(a + 1, len(payloads)):
                d2 = l2_distance(payloads[a], payloads[b]) ** 2
                (within if ind[a] == ind[b] else between).append(d2)
        rho = 1.0 - (np.sum(np.array(within)) / len(within)) / (
            np.sum(np.array(between)) / len(between)
        )
        assert est.rho_hat == rho

    def test_consistency_single_large_run(self):
        pop = TrueScorePopulation(np.eye(2), np.eye(2), 500, 4)
        sample = gen_gaussian_sample(pop, np.random.default_rng(11))
        dm = compute_distance_matrix(sample, Metric.L2_VEC)
        assert abs(dbicc_point(dm).rho_hat - 0.5) <= 0.03

    def test_consistency_mean_of_runs(self):
        pop = TrueScorePopulation(np.eye(2), np.eye(2), 500, 4)
        estimates = []
        for run in range(20):
            sample = gen_gaussian_sample(pop, np.random.default_rng([5150, run]))
            dm = compute_distance_matrix(sample, Metric.L2_VEC)
            estimates.append(dbicc_point(dm).rho_hat)
        assert abs(np.mean(estimates) - 0.5) <= 0.02


def _stats(sizes, within, cross):
    return BlockStats(np.array(sizes), np.array(within, float), np.array(cross, float))


def _matrix_sample(mats):
    return GroupedSample(np.array(mats), [2, 2], ("a", "b"), PayloadKind.MATRIX)


_NO_INDIVIDUALS = DistanceMatrix(np.zeros((0, 0)), [])
_ONE_INDIVIDUAL = DistanceMatrix(1.0 - np.eye(2), [2])
_NO_REPLICATES = DistanceMatrix(1.0 - np.eye(2), [1, 1])
_ZERO = DistanceMatrix(np.zeros((4, 4)), [2, 2])
_OVERFLOW = DistanceMatrix(1e200 * (1.0 - np.eye(4)), [2, 2])
_TWO_BY_TWO = _matrix_sample([np.eye(2)] * 4)
# the first payload's lower triangle is constant
_EQUICORRELATED = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
_VARIED = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.1], [0.4, 0.1, 1.0]])
_CONSTANT_TRIANGLE = _matrix_sample([_EQUICORRELATED, _VARIED, _VARIED, _VARIED])
_ONE_BY_ONE = _matrix_sample(np.ones((4, 1, 1)))
_THRESHOLD = DistanceSpec(Metric.L2_VEC, threshold=0.5)

# For each precondition, every public entry that reaches it.
PRECONDITIONS = {
    "two individuals": (InsufficientGroupsError, [
        lambda: GroupedSample(np.zeros((2, 1)), [2], ("a",), PayloadKind.VECTOR),
        lambda: build_grouped_sample([("a", 0, [0.0]), ("a", 1, [1.0])]),
        lambda: dbicc_point(_ONE_INDIVIDUAL),
        lambda: msd_between(_ONE_INDIVIDUAL),
        lambda: dbicc_point(_stats([2], [1.0], [[2.0]])),
        lambda: bootstrap_dbicc(_stats([2], [1.0], [[2.0]]), 100, seed=1),
        lambda: bootstrap_dbicc_pair(_ONE_INDIVIDUAL, 100, seed=1),
    ]),
    "two individuals, given none": (InsufficientGroupsError, [
        lambda: GroupedSample(np.zeros((0, 1)), [], (), PayloadKind.VECTOR),
        lambda: build_grouped_sample([]),
        lambda: dbicc_point(_NO_INDIVIDUALS),
        lambda: bootstrap_dbicc(_NO_INDIVIDUALS, 100, seed=1),
    ]),
    "a replicated individual": (InsufficientReplicatesError, [
        lambda: GroupedSample(np.zeros((2, 1)), [1, 1], ("a", "b"), PayloadKind.VECTOR),
        lambda: build_grouped_sample([("a", 0, [0.0]), ("b", 0, [1.0])]),
        lambda: dbicc_point(_NO_REPLICATES),
        lambda: msd_within(_NO_REPLICATES),
        lambda: bootstrap_dbicc(_stats([1, 1], [0, 0], [[0, 1], [1, 0]]), 100, seed=1),
        lambda: bootstrap_dbicc(_NO_REPLICATES, 100, seed=1),
        lambda: run_point_experiment(4, 1, 0.5, n_runs=2, seed=1),
        lambda: run_coverage_experiment(4, 1, 0.5, n_boot=100, n_runs=2, seed=1),
    ]),
    "nonzero between spread": (DegenerateDistancesError, [
        lambda: dbicc_point(_ZERO),
        lambda: bootstrap_dbicc(_ZERO, 100, seed=1),
        lambda: bootstrap_dbicc_pair(_ZERO, 100, seed=1),
        lambda: dbicc_point(_stats([2, 2], [0, 0], [[0, 0], [0, 0]])),
        lambda: bootstrap_dbicc(_stats([2, 2], [0, 0], [[0, 0], [0, 0]]), 100, seed=1),
    ]),
    "finite squared distances": (NonFiniteError, [
        lambda: dbicc_point(_OVERFLOW),
        lambda: bootstrap_dbicc(_OVERFLOW, 100, seed=1),
        lambda: block_stats(
            GroupedSample(np.array([[1e200, 0], [-1e200, 0], [0, 0], [1, 1]]), [2, 2],
                          ("a", "b"), PayloadKind.VECTOR),
            Metric.L2_VEC,
        ),
        lambda: dbicc_point(_stats([2, 2], [np.inf, 0], [[np.inf, 1], [1, 0]])),
        lambda: bootstrap_dbicc(
            _stats([2, 2], [np.inf, 0], [[np.inf, 1], [1, 0]]), 100, seed=1
        ),
    ]),
    "corr matrices of 3x3 or larger": (DegenerateInputError, [
        lambda: corr_of_corr_distance(np.eye(2), np.eye(2)),
        lambda: compute_distance_matrix(_TWO_BY_TWO, Metric.CORR_OF_CORR),
        lambda: block_stats(_TWO_BY_TWO, Metric.CORR_OF_CORR),
    ]),
    "a non-constant corr triangle": (DegenerateInputError, [
        lambda: corr_of_corr_distance(_EQUICORRELATED, _VARIED),
        lambda: compute_distance_matrix(_CONSTANT_TRIANGLE, Metric.CORR_OF_CORR),
        lambda: block_stats(_CONSTANT_TRIANGLE, Metric.CORR_OF_CORR),
    ]),
    "off-diagonal entries to threshold": (DegenerateInputError, [
        lambda: soft_threshold(np.eye(1), 0.5),
        lambda: compute_distance_matrix(_ONE_BY_ONE, _THRESHOLD),
        lambda: block_stats(_ONE_BY_ONE, _THRESHOLD),
    ]),
    "soft-threshold level in [0, 1]": (ParameterError, [
        lambda: DistanceSpec(Metric.L2_VEC, threshold=1.5),
        lambda: soft_threshold(np.eye(3), 1.5),
    ]),
    "stationary AR(1) coefficient": (ParameterError, [
        lambda: run_sb_experiment(m_grid=[10, 20, 40], ar_coeff=1.0, n_runs=1, seed=1),
        lambda: gen_mvn_timeseries(np.eye(2), 10, 1.0, 1),
    ]),
    "series of 2+ time points": (ParameterError, [
        lambda: run_sb_experiment(m_grid=[1, 5, 9], offset=0, n_runs=1, seed=1),
        lambda: gen_mvn_timeseries(np.eye(2), 1, 0.0, 1),
    ]),
    "a run or more": (ParameterError, [
        lambda: run_point_experiment(4, 2, 0.5, n_runs=0, seed=1),
        lambda: run_coverage_experiment(4, 2, 0.5, n_boot=100, n_runs=0, seed=1),
        lambda: run_sb_experiment(m_grid=[10, 20, 40], n_runs=0, seed=1),
    ]),
    "population dbICC in (0, 1)": (ParameterError, [
        lambda: run_point_experiment(4, 2, 1.5, n_runs=2, seed=1),
        lambda: run_coverage_experiment(4, 2, 1.5, n_boot=100, n_runs=2, seed=1),
    ]),
    "confidence level in (0, 1)": (ParameterError, [
        lambda: percentile_ci([0.1, 0.2, 0.3], 1.5),
        lambda: bootstrap_dbicc(hand_matrix(), 100, level=1.5, seed=1),
        lambda: bootstrap_dbicc_pair(hand_matrix(), 100, level=1.5, seed=1),
        lambda: run_coverage_experiment(
            4, 2, 0.5, n_boot=100, n_runs=2, level=1.5, seed=1
        ),
    ]),
}


@pytest.mark.parametrize("error, calls", PRECONDITIONS.values(), ids=PRECONDITIONS)
def test_each_precondition_has_one_message(error, calls):
    raised = set()
    for call in calls:
        with pytest.raises(error) as info:
            call()
        raised.add((type(info.value), str(info.value)))
    assert raised == {(error, str(info.value))}
