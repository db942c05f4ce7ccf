"""Hybrid encoder: stage contracts, exactness, metering, thresholds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from reference_encoder import (
    batch_meter,
    batch_rows,
    block_draws,
    cell_members,
    grid_members,
    grid_strips,
    long_iterations,
    lookup_reads,
    meter_rows,
    projection_walk,
    reference_encode,
    reference_stage2,
    reference_half_width,
    run_stage,
    seeded_draws,
    stage1_chance,
    stage1_domain,
    stage1_reads,
    stage2_window,
    sub1_iterations,
    success_chance,
    trials,
)

from hqvq import (
    Codebook,
    EncodePath,
    EncoderConfig,
    QueryMeter,
    build_neighborhoods,
    choose_delta_hat,
    clustered_dataset,
    encode,
    encode_vectors,
    full_search,
    grid_codebook,
    kernels,
)
from hqvq.codebook import distances_to_codebook
from hqvq.encoder import (
    PATHS,
    PICK_SLOT,
    BlockFacts,
    EncodeOutcome,
    block_facts,
    delta_hat_from_nearest,
    encode_sub1,
    encode_sub2,
    finishing_walks,
    nearest_distances,
    sub1_radii,
    sub1_table,
    sub2_budget,
    success_table,
)
from hqvq.grover import marked_probability, marked_set_from_distances
from hqvq.neighborhood import GRID_CELL_CAP, DiscGrid, cell_coordinates
from hqvq.pipeline import region_fractions

# positions in EncodeBatch.path
SUB1, FALLBACK = PATHS.index(EncodePath.SUB1), PATHS.index(EncodePath.CLASSICAL_FALLBACK)


def make_setup(n=64, delta_hat_factor=1.2):
    cb = grid_codebook(n)
    delta_hat = delta_hat_factor * cb.delta0 / 2.0
    table = build_neighborhoods(cb, delta_hat)
    return cb, table


def marked_count(x, cb: Codebook, delta: float) -> int:
    return marked_set_from_distances(distances_to_codebook(x, cb), delta).size


def line_codebook(n: int) -> Codebook:
    return Codebook(np.arange(n, dtype=np.float64)[:, None] * 10.0)


def rounded_midpoint(rng: np.random.Generator, k: int):
    """Two-codevector codebook and the midpoint x of its pair.

    Draws pairs until rounding puts x strictly inside delta0/2 of both ends
    (without ``sub1_radii``'s margin stage 1 would mark t = 2), or 400 pairs
    are spent.
    """
    for _ in range(400):
        a, b = rng.normal(size=(2, k))
        cb = Codebook([a, b])
        x = (a + b) / 2
        if marked_count(x, cb, cb.delta0 / 2) == 2:
            break
    return cb, x


def midpoint_case():
    # default_rng(0) gets there at draw 144: both distances are 1.68323059 < delta0/2
    return rounded_midpoint(np.random.default_rng(0), 3)


def stage2_rounds(x, cb, table, draw, ordinal, paper=False) -> list:
    """The j of every stage-2 round the per-block reference runs for this block.

    Over twice its window, or with ``paper`` over all N; an empty window runs none.
    """
    domain = cb.n if paper else 2 * stage2_window(x, cb, table)
    rounds = []
    if domain:
        dvec = distances_to_codebook(x, cb)
        reference_stage2(dvec, table, block_draws(draw, ordinal), QueryMeter(), domain, rounds)
    return rounds


def encode_rows(rows, cb, table, seed):
    rows = np.asarray(rows, dtype=np.float64)
    return encode(rows, cb, table, seeded_draws(seed, rows.shape[0]))


class TestSub1:
    def test_near_codevector_found_with_high_frequency(self):
        cb, table = make_setup(256)
        x = cb.vectors[5] + np.array([0.01, -0.02])
        facts, accepted, _ = run_stage(1, trials(x, 10_000), cb, table, 1, paper=True)
        assert np.all(facts.index == 5)
        assert accepted.mean() >= 0.999  # the paper's stage 1 over N: closed form ~0.99995
        # S(x): (0, 50) and the 5 other codevectors on its anti-diagonal, j = 1, not phase-matched
        assert len(stage1_domain(x, cb)) == 6 and np.all(facts.domain_s == 6)
        _, accepted, meter = run_stage(1, trials(x, 10_000), cb, table, 1)
        chance = success_chance(1, 6, 1)  # sin^2(3 asin(1/sqrt(6))) ~ 0.907
        assert abs(accepted.mean() - chance) < 4 * math.sqrt(chance * (1 - chance) / 10_000)
        assert np.all(meter.grover_iterations == 1)

    def test_far_input_never_found(self):
        cb, table = make_setup(16)
        x = cb.vectors[0] + np.array([4.9, 4.9])  # min distance > delta0/2 = 5
        for paper in (False, True):
            _, accepted, _ = run_stage(1, trials(x, 200), cb, table, 2, paper=paper)
            assert not accepted.any()

    def test_meter_contract(self):
        cb, table = make_setup(64)
        x = cb.vectors[3]  # (0, 30): its anti-diagonal holds 4 codevectors
        _, _, paper = run_stage(1, [x], cb, table, 3, paper=True)
        assert paper.grover_iterations.tolist() == [sub1_iterations(64)]
        assert sub1_iterations(64) == math.floor(math.pi / 4 * 8)
        assert paper.classical_distance_evals.tolist() == [1]
        assert paper.table_reads.tolist() == [0]
        facts, _, meter = run_stage(1, [x], cb, table, 3)
        width = len(stage1_domain(x, cb))
        assert width == 4 and facts.domain_s.tolist() == [width]
        assert meter.grover_iterations.tolist() == [math.floor(math.pi / 4 * math.sqrt(width))] == [1]
        assert meter.classical_distance_evals.tolist() == [1]
        # one binary search over the 128 interval ends, bit_length(128), and the piece's count
        assert meter.table_reads.tolist() == [stage1_reads(64)] == [8 + 1]

    def test_empty_window_is_charged_nothing(self):
        # x lies beyond every codevector's projection: W = 0, no search and no verification
        cb, table = make_setup(16)
        x = np.array([500.0, 500.0])
        facts, accepted, meter = run_stage(1, trials(x, 20), cb, table, 4)
        assert stage1_domain(x, cb) == [] and np.all(facts.domain_s == 0) and np.all(facts.t_s == 0)
        assert not accepted.any()
        assert np.all(meter.grover_iterations == 0) and np.all(meter.classical_distance_evals == 0)
        assert np.all(meter.table_reads == 6 + 1)  # the lookup still runs

    def test_window_of_one_always_succeeds(self):
        # (0, 0) is alone on its anti-diagonal: W = 1, j = 0, and the one index is the marked one
        cb, table = make_setup(64)
        x = cb.vectors[0] + np.array([0.3, -0.3])  # p(x) = p(c_0) = 0
        facts, accepted, meter = run_stage(1, trials(x, 500), cb, table, 5)
        assert stage1_domain(x, cb) == [0] and np.all(facts.domain_s == 1) and np.all(facts.t_s == 1)
        assert sub1_table(1)[1][1] == sub1_table(1)[2][1] == 1.0
        assert accepted.all()
        assert np.all(meter.grover_iterations == 0) and np.all(meter.classical_distance_evals == 1)

    def test_returned_index_is_unique_optimum(self):
        rng = np.random.default_rng(44)
        cb = Codebook(rng.uniform(0, 100, size=(32, 2)))
        table = build_neighborhoods(cb, cb.delta0)
        xs = rng.uniform(0, 100, size=(300, 2))
        facts, accepted, _ = run_stage(1, xs, cb, table, 4)
        assert accepted.sum() > np.count_nonzero(facts.nearest[accepted] < cb.delta0 / 2)
        for x, index, t_s in zip(xs[accepted], facts.index[accepted], facts.t_s[accepted]):
            assert index == full_search(x, cb)[0]
            # the only codevector within its own half-distance
            assert t_s == marked_count(x, cb, cb.nearest_other / 2) == 1

    def test_midpoint_stage1_accepts_only_the_full_search_index(self):
        # both ends lie within rounding of delta0/2 (computed distances below
        # it), so stage 1's margin marks neither and leaves the block to stage 2
        cb, x = midpoint_case()
        table = build_neighborhoods(cb, cb.delta0)
        accepted = [run_stage(1, [x], cb, table, seed)[1][0] for seed in range(40)]
        assert not any(accepted)

    def test_draw_of_zero_passes_only_a_marked_block(self):
        # random() can return 0.0; the t = 0 bias is exactly 0.0, which 0.0 is not below
        n, t_s, u, (iterations, bias, paper_bias) = 64, np.array([0, 1]), np.zeros(2), sub1_table(64)
        meter, paper = batch_meter(2), batch_meter(2)
        accepted = encode_sub1(t_s, np.array([9, 9]), u, (iterations, bias), meter)
        paper_accepted = encode_sub1(t_s, n, u, (iterations, paper_bias), paper)
        assert accepted.tolist() == paper_accepted.tolist() == [False, True]
        assert paper.grover_iterations.tolist() == [sub1_iterations(n)] * 2 == [6, 6]
        assert meter.grover_iterations.tolist() == [sub1_iterations(9)] * 2 == [2, 2]
        assert meter.classical_distance_evals.tolist() == paper.classical_distance_evals.tolist() == [1, 1]

    def test_one_draw_two_coins(self):
        # W = 6 (j = 1, not phase-matched) succeeds with sin^2(3 asin(1/sqrt(6))) ~ 0.907; over
        # N = 64 (j = 6) with ~0.9966.  A draw between the two biases passes the paper's stage 1
        # and fails the codec's; at W = 2 (j = 1, phase-matched) the codec's passes every draw,
        # where the plain search would succeed with sin^2(3 pi / 4) = 1/2
        t_s, (iterations, bias, paper_bias) = np.ones(3, dtype=np.int64), sub1_table(64)
        low, high = success_chance(1, 6, 1), success_chance(1, 64, 6)
        assert 0.9 < low < high and high > 0.99
        draws = np.array([low / 2, (low + high) / 2, (high + 1) / 2])
        accepted = encode_sub1(t_s, np.full(3, 6), draws, (iterations, bias), batch_meter(3))
        paper_accepted = encode_sub1(t_s, 64, draws, (iterations, paper_bias), batch_meter(3))
        assert accepted.tolist() == [True, False, False]
        assert paper_accepted.tolist() == [True, True, False]
        assert abs(paper_bias[2] - 0.5) < 1e-15 and bias[2] == 1.0
        assert encode_sub1(t_s, np.full(3, 2), draws, (iterations, bias), batch_meter(3)).all()

    def test_window_table_is_sub1_iterations_and_marked_probability(self):
        # every W up to 1100, with the bits the per-block reference computes one block at a time:
        # the paper's column is the plain search's, the codec's is 1.0 where Long's count is j
        iterations, bias, paper_bias = sub1_table(1100)
        assert iterations.tolist() == [sub1_iterations(w) for w in range(1101)]
        assert paper_bias[0] == bias[0] == 0.0 and paper_bias[1] == bias[1] == 1.0
        want = [0.0] + [success_chance(1, w, sub1_iterations(w)) for w in range(1, 1101)]
        assert paper_bias.tobytes() == np.array(want).tobytes()
        want = [0.0] + [stage1_chance(1, w, sub1_iterations(w)) for w in range(1, 1101)]
        assert bias.tobytes() == np.array(want).tobytes()
        # the paper's stage 1 reads the entry at N, up to the stream format's 65 536 codevectors,
        # with the bits of the t = 1 row of stage 2's table, which it read before
        for n in (4096, 65_536):
            iterations, _, paper_bias = sub1_table(n)
            j = sub1_iterations(n)
            assert iterations[n] == j == (50 if n == 4096 else 201)
            assert paper_bias[n] == success_chance(1, n, j) == success_table(np.ones(1, dtype=np.int64), n)[0, j]

    def test_codec_bias_is_exactly_one_where_phase_matched(self):
        # up to the stream format's 65 536 codevectors: where Long's count is floor(pi/4 sqrt(W)),
        # the codec's bias is exactly 1.0, elsewhere the plain search's; the paper's column is
        # the plain search's everywhere, one marked_probability call as before
        top = 65_536
        iterations, bias, paper_bias = sub1_table(top)
        width = np.arange(top + 1)
        plain = marked_probability(np.ones(top, dtype=np.int64), width[1:], iterations[1:])
        assert paper_bias[1:].tobytes() == plain.tobytes()
        counts = [long_iterations(w) for w in range(2, top + 1)]
        matched = np.concatenate([[False, False], np.array(counts) == iterations[2:]])
        assert np.all(bias[matched] == 1.0)
        assert bias[~matched].tobytes() == paper_bias[~matched].tobytes()
        # the table decides on W sin^2(pi/(4j + 2)) < 1 - PHASE_MATCH_MARGIN, and no W but 1 and 4,
        # whose plain search is exact, lies within 1e-9 of 1, so rounding cannot flip a decision
        product = width * np.sin(np.pi / (4 * iterations + 2)) ** 2
        near = np.flatnonzero(np.abs(product - 1.0) <= 1e-9)
        assert near.tolist() == [1, 4] and paper_bias[1] == paper_bias[4] == 1.0
        assert np.array_equal(matched[5:], product[5:] < 1.0)

    def test_a_marked_block_in_a_matched_domain_takes_sub1_under_every_seed(self):
        # on the 8 x 8 grid, c_i = (0, 10 i) shares its anti-diagonal with i others, and a block
        # near it has that anti-diagonal as S(x): W = 2, 3, 7 and 8, all phase-matched, where the
        # plain search would fail with 1/2, 0.074, 0.092 and 0.055
        cb, table = make_setup(64)
        rows = cb.vectors[[1, 2, 6, 7]] + np.array([0.2, -0.1])
        _, bias, paper_bias = sub1_table(64)
        assert bias[[2, 3, 7, 8]].tolist() == [1.0] * 4 and np.all(paper_bias[[2, 3, 7, 8]] < 0.95)
        for seed in range(200):
            batch = encode_rows(rows, cb, table, seed)
            assert batch.facts.domain_s.tolist() == [2, 3, 7, 8] and np.all(batch.facts.t_s == 1)
            assert np.all(batch.path == SUB1)
            assert batch.meter.grover_iterations.tolist() == [1, 1, 2, 2]

    def test_marked_set_at_half_delta0_never_exceeds_one(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            cb = Codebook(rng.uniform(0, 40, size=(24, 2)))
            for _ in range(40):
                x = rng.uniform(-5, 45, size=2)
                assert marked_count(x, cb, cb.delta0 / 2) <= 1


class TestSub2:
    # run_stage(2, ...) gives the window's stage 2, a register of 2 W_t, and with paper=True
    # the paper's over all N: each test keeps its N-based expectation on the paper's

    def test_singleton_neighborhood_returns_it(self):
        # isolated codevector far from the cluster: its list is {itself}
        cb = Codebook([[0.0], [1.0], [2.0], [100.0]])
        table = build_neighborhoods(cb, 1.5)
        assert list(table.neighbors(3)) == [3]
        x = [100.6]  # inside the shell of codevector 3 only
        rows = trials(x, 100)
        draw = seeded_draws(5, 100)
        for paper in (False, True):
            facts, accepted, meter = run_stage(2, rows, cb, table, 5, paper=paper)
            assert np.all(facts.index == 3) and np.all(facts.t == 1)
            assert np.all(facts.domain_t == 1)  # the window holds 3 alone: a register of 2, t/D = 1/2
            assert np.all(facts.pick == 3)  # a hit measures 3, its list's only entry
            assert accepted.any()
            for ordinal in np.flatnonzero(accepted):
                rounds = stage2_rounds(x, cb, table, draw, ordinal, paper)
                assert meter.classical_distance_evals[ordinal] == len(rounds)
        # the walk reads 3 after a one-probe locate and evaluates nothing: 3's distance is known
        evals, reads = finishing_walks(facts, cb, table, accepted, np.zeros(100, dtype=bool))
        assert evals.tolist() == [0] * 100
        assert reads[accepted].tolist() == [2] * int(accepted.sum())

    def test_empty_marked_set_exhausts_budget(self):
        # the budget is stage 2's only stopping rule; small N hold the fewest
        # iterations per round, so they run the most rounds before it binds
        for n in (2, 3, 64):
            cb = grid_codebook(n) if n == 64 else line_codebook(n)
            delta_hat = 1.2 * cb.delta0 / 2.0
            table = build_neighborhoods(cb, delta_hat)
            x = np.full(cb.k, 305.0)  # far beyond every codevector's threshold
            assert marked_count(x, cb, delta_hat) == 0
            budget = sub2_budget(n)
            _, accepted, meter = run_stage(2, trials(x, 200), cb, table, 6, paper=True)
            assert not accepted.any()
            assert np.all(meter.grover_iterations <= budget)
            draw = seeded_draws(6, 200)
            for ordinal in range(200):
                rounds = stage2_rounds(x, cb, table, draw, ordinal, paper=True)
                assert meter.classical_distance_evals[ordinal] == len(rounds)
            # x's window is empty as well: the window's stage 2 runs no round
            facts, accepted, meter = run_stage(2, trials(x, 200), cb, table, 6)
            assert np.all(facts.domain_t == 0) and not accepted.any()
            assert not meter.grover_iterations.any() and not meter.classical_distance_evals.any()
        # (305, -305) projects onto (0, 0), alone on its anti-diagonal, and marks nothing:
        # a register of 2 with t = 0 and a budget of ceil(3 sqrt 2) = 5
        x = np.array([305.0, -305.0])
        facts, accepted, meter = run_stage(2, trials(x, 200), cb, table, 6)
        assert np.all(facts.domain_t == 1) and np.all(facts.t == 0) and sub2_budget(2) == 5
        assert not accepted.any() and np.all(meter.grover_iterations <= 5)
        for ordinal in range(200):
            rounds = stage2_rounds(x, cb, table, draw, ordinal)
            assert meter.grover_iterations[ordinal] == sum(rounds)
            assert meter.classical_distance_evals[ordinal] == len(rounds)

    def test_meter_charges_every_drawn_iteration(self):
        # encode_sub2 is the only place stage-2 iterations are charged: the
        # meter equals the sum of the drawn j, which never exceeds the budget
        cb, table = make_setup(64)
        rng = np.random.default_rng(53)
        shell = cb.vectors[20] + (cb.delta0 / 2.0) * 1.1 / math.sqrt(2.0)
        points = [shell, np.array([305.0, 305.0]), *rng.uniform(-20, 100, size=(8, 2))]
        rows = np.repeat(np.array(points), 50, axis=0)
        draw = seeded_draws(15, rows.shape[0])
        for paper in (False, True):
            facts, _, meter = run_stage(2, rows, cb, table, 15, paper=paper)
            for ordinal, x in enumerate(rows):
                rounds = stage2_rounds(x, cb, table, draw, ordinal, paper)
                assert meter.grover_iterations[ordinal] == sum(rounds)
            budget = sub2_budget(64) if paper else np.where(facts.domain_t > 0, sub2_budget(2 * facts.domain_t), 0)
            assert np.all(meter.grover_iterations <= budget)

    def test_success_charges_neighborhood_scan(self):
        cb = Codebook([[0.0], [1.0], [2.0], [100.0]])
        table = build_neighborhoods(cb, 1.5)
        x = [0.7]
        dvec = distances_to_codebook(x, cb)
        marked = marked_set_from_distances(dvec, table.delta_hat)
        draw = seeded_draws(7, 1)
        for paper in (False, True):
            facts, accepted, meter = run_stage(2, [x], cb, table, 7, paper=paper)
            assert accepted[0]
            h = marked[int(draw(PICK_SLOT)[0] * marked.size)]  # the index the hit measures
            assert 1 in table.neighbors(h)  # the optimum lies in the verified index's list
            assert facts.pick[0] == h
            rounds = stage2_rounds(x, cb, table, draw, 0, paper)
            assert meter.classical_distance_evals[0] == len(rounds)  # the rounds' verifications
        # the walk visits the list's entries within half_width(0.3) of p(x) = 0.7: codevector 1 alone
        evals, reads = finishing_walks(facts, cb, table, accepted, ~accepted)
        assert projection_walk(x, cb, table.neighbors(h), dvec, known=h) == (1, evals[0], reads[0])
        assert evals[0] == (h != 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 1024])
    def test_success_table_is_marked_probability(self, n):
        # every t a block can have and every j a round can draw, with the bits
        # the per-block reference computes one block at a time: over one N
        table = success_table(np.arange(n + 1, dtype=np.int64), n)
        width = math.isqrt(n) + 1
        assert table.shape == (n + 1, width)
        want = [[success_chance(t, n, j) for j in range(width)] for t in range(n + 1)]
        assert table.tobytes() == np.array(want).tobytes()
        # and over each level's own register of 2 W_t, t <= W_t <= n, as the window's rounds read it:
        # every pair up to n = 16, 300 drawn pairs beyond
        levels, domains = np.divmod(np.arange((n + 1) ** 2, dtype=np.int64), n + 1)
        keep = np.flatnonzero((levels <= domains) & (domains > 0))
        if keep.size > 300:
            keep = np.random.default_rng(n).choice(keep, size=300, replace=False)
        levels, domains = levels[keep], 2 * domains[keep]
        table = success_table(levels, domains)
        width = math.isqrt(int(domains.max())) + 1
        want = [[success_chance(t, d, j) for j in range(width)] for t, d in zip(levels.tolist(), domains.tolist())]
        assert table.tobytes() == np.array(want).tobytes()

    def test_budget_leavers_and_hits_in_one_round(self):
        # far blocks (t = 0) run out of budget in the rounds where blocks with
        # t = 1 still hit; every block's meter is written when it leaves.  Over N
        # the blocks sit on a line; the window's far block needs a non-empty window,
        # so it projects onto (0, 0), alone on its anti-diagonal of the grid
        line = line_codebook(64)
        grid, grid_table = make_setup(64)
        for paper, cb, table, rows in (
            (True, line, build_neighborhoods(line, 6.0), np.array([[0.0], [1e4]] * 100)),
            (False, grid, grid_table, np.array([[0.3, -0.3], [305.0, -305.0]] * 100)),
        ):
            facts, accepted, meter = run_stage(2, rows, cb, table, 1, paper=paper)
            assert facts.t.tolist() == [1, 0] * 100
            assert paper or facts.domain_t.tolist() == [1, 1] * 100
            draw = seeded_draws(1, rows.shape[0])
            left, hit = set(), set()
            for ordinal, x in enumerate(rows):
                want = QueryMeter()
                rounds = []
                domain = cb.n if paper else 2 * stage2_window(x, cb, table)
                dvec = distances_to_codebook(x, cb)
                ok = reference_stage2(dvec, table, block_draws(draw, ordinal), want, domain, rounds)
                assert accepted[ordinal] == ok
                assert meter.grover_iterations[ordinal] == want.grover_iterations
                assert meter.classical_distance_evals[ordinal] == want.classical_distance_evals
                # a hit in round r ran r + 1 rounds; a leaver in round r ran r
                (hit if ok else left).add(len(rounds) - ok)
            assert left & hit

    def test_budget_boundary_with_chosen_draws(self):
        # N = 16, t = 1: budget 12, cutoffs 2, 2, 2, 2, 3, 3, 3, 4 in rounds 0..7.
        # Both blocks draw j = cutoff - 1 and miss until round 7, spending 10;
        # there block 0 draws j = 2 (12, the budget) and block 1 j = 3 (13).
        # Both coins are 0.0, below the bias at either j, so both would hit.
        n = 16
        assert sub2_budget(n) == 12

        def draw(slot):
            r, coin = divmod(slot - 2, 2)
            if r < 7:
                return np.full(2, 0.999)
            return np.zeros(2) if coin else np.array([0.6, 0.9])

        meter = batch_meter(2)
        (accepted,) = encode_sub2(np.array([1, 1]), ((np.arange(2), n, meter),), draw)
        # on the budget: accepted after 8 verifications; past it: left after the 7 rounds before
        assert accepted.tolist() == [True, False]
        assert meter.grover_iterations.tolist() == [12, 10]
        assert meter.classical_distance_evals.tolist() == [8, 7]
        # D = 8 on the same draws: budget ceil(3 sqrt 8) = 9, cutoffs 2, 2, 2, 2, 3, 3, 3, 3,
        # capped at floor(sqrt 8) + 1.  Both spend 10 > 9 by round 6 (1 + 1 + 1 + 1 + 2 + 2 + 2)
        # and leave there, charged the 6 rounds before and their 8 iterations
        assert sub2_budget(8) == 9
        window, paper = batch_meter(2), batch_meter(2)
        both = encode_sub2(np.array([1, 1]), ((np.arange(2), 8, window), (np.arange(2), n, paper)), draw)
        assert [mask.tolist() for mask in both] == [[False, False], [True, False]]
        assert window.grover_iterations.tolist() == [8, 8]
        assert window.classical_distance_evals.tolist() == [6, 6]
        assert meter_rows(paper) == meter_rows(meter)

    def test_no_live_block_draws_nothing(self):
        # a batch whose every block stage 1 passed, or whose windows are all empty, runs no round
        meter = batch_meter(3)
        masks = encode_sub2(np.array([1, 0, 2]), ((np.zeros(0, dtype=np.int64), 64, meter),) * 2, no_draw)
        assert [mask.tolist() for mask in masks] == [[False] * 3] * 2
        assert meter_rows(meter) == [(0, 0, 0)] * 3

    def test_two_searches_read_each_round_draw_once(self):
        # one call runs a window search (a register per block) and an N search on one
        # draw function; each slot is drawn once, and each search equals its reference
        cb, table = make_setup(64)
        rows = clustered_dataset(cb, table.delta_hat, 300, seed=9)
        draw = seeded_draws(4, rows.shape[0])
        drawn = []

        def counted(slot):
            drawn.append(slot)
            return draw(slot)

        facts = block_facts(rows, cb, table, draw(PICK_SLOT))
        window, paper = batch_meter(rows.shape[0]), batch_meter(rows.shape[0])
        searched = np.flatnonzero(facts.domain_t > 0)
        everyone = np.arange(rows.shape[0])
        searches = ((searched, 2 * facts.domain_t[searched], window), (everyone, cb.n, paper))
        accepted, paper_accepted = encode_sub2(facts.t, searches, counted)
        assert len(drawn) == len(set(drawn)) and sorted(drawn) == list(range(2, 2 + len(drawn)))
        for ordinal, x in enumerate(rows):
            dvec = distances_to_codebook(x, cb)
            domains = (2 * stage2_window(x, cb, table), cb.n)
            for meter, mask, domain in zip((window, paper), (accepted, paper_accepted), domains):
                want = QueryMeter()
                ok = bool(domain) and reference_stage2(dvec, table, block_draws(draw, ordinal), want, domain)
                assert mask[ordinal] == ok
                assert meter_rows(meter)[ordinal] == (want.grover_iterations, want.classical_distance_evals, 0)

    def test_mean_iterations_within_bbht_bound(self):
        # smaller cousin of the acceptance check: t=4 solutions out of n=256, and
        # out of the window's register of 2 W_t = 2t
        n, t = 256, 4
        cb = line_codebook(n)
        delta_hat = 10.0 * t - 5.0  # marks exactly the first t codevectors of x=0
        table = build_neighborhoods(cb, delta_hat)
        x = np.array([0.0])
        assert marked_count(x, cb, delta_hat) == t
        _, _, meter = run_stage(2, trials(x, 400), cb, table, 9, paper=True)
        assert np.mean(meter.grover_iterations) <= 1.1 * 2.25 * math.sqrt(n / t)
        facts, _, meter = run_stage(2, trials(x, 400), cb, table, 9)
        assert np.all(facts.domain_t == t)
        assert np.mean(meter.grover_iterations) <= 1.1 * 2.25 * math.sqrt(2 * t / t)


class TestEncode:
    def test_exact_codevector_hits_sub1(self):
        # c_7 = (0, 70) shares its anti-diagonal with 7 others: |S(x)| = 8, j = 2, where the plain
        # search succeeds with ~0.945 and the phase-matched one with certainty;
        # c_0 = (0, 0) has its own: W = 1, success exactly 1
        cb, table = make_setup(64)
        batch = encode_rows(trials(cb.vectors[7], 4000), cb, table, 10)
        assert np.all(batch.facts.index == 7)
        assert len(stage1_domain(cb.vectors[7], cb)) == 8 and long_iterations(8) == sub1_iterations(8) == 2
        assert np.all(batch.path == SUB1) and np.all(batch.meter.grover_iterations == 2)
        ((index, path, *_),) = batch_rows(encode_rows(cb.vectors[0:1], cb, table, 10))
        assert (index, path) == (0, SUB1)

    def test_exactness_over_random_instances(self):
        rng = np.random.default_rng(50)
        for n in (16, 64):
            for _ in range(10):
                cb = Codebook(rng.uniform(0, 50, size=(n, 2)))
                delta_hat = cb.delta0 / 2 * rng.uniform(1.0, 3.0)
                table = build_neighborhoods(cb, delta_hat)
                xs = rng.uniform(-10, 60, size=(20, 2))
                indices = encode_rows(xs, cb, table, 11).facts.index
                assert indices.tolist() == [full_search(x, cb)[0] for x in xs]

    def test_shell_input_never_wrong(self):
        cb, table = make_setup(64)
        # place x in the shell: between delta0/2 and delta_hat of its nearest
        offset = np.array([1.0, 1.0]) / math.sqrt(2.0)
        x = cb.vectors[20] + offset * (cb.delta0 / 2.0) * 1.1
        batch = encode_rows(trials(x, 200), cb, table, 12)
        assert np.all(batch.path != SUB1)
        assert np.all(batch.facts.index == full_search(x, cb)[0])

    def test_fallback_meters_full_scan(self):
        cb, table = make_setup(16)
        x = [500.0, 500.0]
        cfg = EncoderConfig(delta_hat=table.delta_hat, master_seed=13)
        _, stats, batch = encode_vectors([x], cb, table, cfg)
        ((_, path, iterations, evals, reads),) = batch_rows(batch)
        assert path == FALLBACK
        # x - c_15 lies along the mean axis, so c_15's projection gap is d* itself:
        # the margin keeps it in the strip, and the walk evaluates it alone.  It
        # reads 5 probes to locate p(x) past the last of 16 entries, c_15, and
        # the entry that closes the lower side
        assert projection_walk(x, cb, range(16), distances_to_codebook(x, cb)) == (15, 1, 5 + 1 + 1)
        # the walk's 7 reads, stage 1's lookup, bit_length(32) + 1, and stage 2's window's, 2 bit_length(16)
        walk = finishing_walks(batch.facts, cb, table, np.array([False]), np.array([True]))
        assert walk[0].tolist() == [1] and reads == 7 + 7 + 10
        # both domains are empty (|S(x)| = W_t = 0): no verification and no stage-2 round, the walk's 1 alone
        assert batch.facts.domain_s.tolist() == batch.facts.domain_t.tolist() == [0]
        assert (iterations, evals) == (0, 1)
        # the paper's stage 1 verifies once, its rounds over N verify each (>= 1), and its full scan charges 16
        rounds = stage2_rounds(np.array(x), cb, table, seeded_draws(13, 1), 0, paper=True)
        assert len(rounds) >= 1
        assert batch.paper.classical_distance_evals.tolist() == [1 + len(rounds) + 16]
        assert stats.paper_mean_classical_evals == 1 + len(rounds) + 16

    def test_total_iteration_budget(self):
        cb, table = make_setup(64)
        cap = sub1_iterations(64) + sub2_budget(64)
        xs = np.random.default_rng(51).uniform(-20, 100, size=(300, 2))
        batch = encode(xs, cb, table, seeded_draws(14, 300))
        assert np.all(batch.paper.grover_iterations <= cap)
        # each block's own cap: stage 1 over its window, and stage 2's budget over its register of 2 W_t
        facts = batch.facts
        own = sub1_table(64)[0][facts.domain_s] + np.where(facts.domain_t > 0, sub2_budget(2 * facts.domain_t), 0)
        assert np.all(batch.meter.grover_iterations <= own)
        assert np.all(own <= cap) and np.any(own < cap)
        # the window's stage 1 never costs more than the paper's; its stage 2 adds at most
        # its budget, here within the paper's, as no window holds more than N/2 codevectors
        assert np.all(2 * facts.domain_t <= 64)
        assert np.all(batch.meter.grover_iterations <= batch.paper.grover_iterations + sub2_budget(64))

    def test_midpoint_of_two_codevectors_matches_full_search(self):
        # rounding puts x = (a + b) / 2 strictly inside delta0/2 of both a and b,
        # so a plain delta0/2 test would see t = 2; the index must be full search's
        cb, x = midpoint_case()
        table = build_neighborhoods(cb, cb.delta0)
        oracle, _ = full_search(x, cb)
        got = {int(encode_rows([x], cb, table, seed).facts.index[0]) for seed in range(40)}
        assert got == {oracle}

    def test_deterministic_for_seed(self):
        cb, table = make_setup(64)
        xs = np.random.default_rng(52).uniform(0, 80, size=(50, 2))
        a = encode_rows(xs, cb, table, 99)
        b = encode_rows(xs, cb, table, 99)
        assert batch_rows(a) == batch_rows(b)
        assert meter_rows(a.paper) == meter_rows(b.paper)


def no_draw(slot):
    raise AssertionError("a draw was made before the input check")


class TestEncodeChecksItsInput:
    # hqvq.encode is public: it checks what it reads before its first draw,
    # as encode_vectors, which calls it, used to check for it
    def test_rows_of_another_dimension_rejected(self):
        # read as their first two components, these encoded to [1 4]
        cb, table = make_setup(16)
        with pytest.raises(ValueError, match="dimension mismatch: vector has 3, codebook has 2"):
            encode(np.array([[0.0, 10.0, 5.0], [10.0, 0.0, 5.0]]), cb, table, no_draw)

    def test_nan_row_rejected(self):
        # used to fail inside numpy with "attempt to get argmin of an empty sequence"
        cb, table = make_setup(16)
        with pytest.raises(ValueError, match="non-finite"):
            encode(np.array([[np.nan, np.nan]]), cb, table, no_draw)

    def test_row_beyond_max_component_rejected(self):
        # its distances overflowed to inf with a RuntimeWarning, and it got index 0
        cb, table = make_setup(16)
        with pytest.raises(ValueError, match=r"beyond 2\*\*500"):
            encode(np.array([[3e200, 0.0]]), cb, table, no_draw)

    def test_table_for_another_codebook_size_rejected(self):
        # grid_codebook(16) used to encode with grid_codebook(25)'s table and be charged its walks
        cb, _ = make_setup(16)
        table = build_neighborhoods(grid_codebook(25), 0.6 * cb.delta0)
        with pytest.raises(ValueError, match="table has 25 lists, codebook has 16 codevectors"):
            encode(np.array([[0.0, 0.0], [31.0, 9.0]]), cb, table, no_draw)

    def test_nested_list_encodes_like_an_array(self):
        cb, table = make_setup(16)
        rows = [[0.0, 0.0], [31.0, 9.0]]
        assert batch_rows(encode(rows, cb, table, seeded_draws(3, 2))) == batch_rows(encode_rows(rows, cb, table, 3))


BOUNDARIES = ("midpoint", "half_delta0", "delta_hat", "two_delta_hat")


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(boundary="midpoint", seed=0, k=3, n=2, factor=1.0)  # midpoint_case()
@given(
    boundary=st.sampled_from(BOUNDARIES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
)
def test_index_is_full_search_for_every_seed(boundary, seed, k, n, factor):
    # inputs on the encoder's boundaries: rounded pair midpoints, and the
    # delta0/2, delta_hat and 2 * delta_hat shells around a codevector
    rng = np.random.default_rng(seed)
    if boundary == "midpoint":
        cb, x = rounded_midpoint(rng, k)
        delta_hat = factor * cb.delta0 / 2.0
    else:
        cb = Codebook(rng.normal(size=(n, k)))
        delta_hat = factor * cb.delta0 / 2.0
        radius = {
            "half_delta0": cb.delta0 / 2.0,
            "delta_hat": delta_hat,
            "two_delta_hat": 2.0 * delta_hat,
        }[boundary]
        direction = rng.normal(size=k)
        direction *= radius / np.linalg.norm(direction)
        x = cb.vectors[rng.integers(0, cb.n)] + direction
    table = build_neighborhoods(cb, delta_hat)
    oracle, _ = full_search(x, cb)
    got = {int(encode_rows([x], cb, table, s).facts.index[0]) for s in range(5)}
    assert got == {oracle}


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(where="midpoint", seed=0, k=3, n=2, ulps=0)  # midpoint_case()
@given(
    where=st.sampled_from(["midpoint", "shell"]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    ulps=st.integers(-8, 8),
)
def test_stage1_marks_at_most_the_full_search_index(where, seed, k, n, ulps):
    # inputs a few ulps from the delta0/2 shell: rounded pair midpoints, whose
    # computed distances to both ends can lie below delta0/2, and points at
    # delta0/2 from a codevector of a larger codebook
    rng = np.random.default_rng(seed)
    if where == "midpoint":
        cb, x = rounded_midpoint(rng, k)
    else:
        cb = Codebook(rng.normal(size=(n, k)))
        direction = rng.normal(size=k)
        x = cb.vectors[rng.integers(0, cb.n)] + direction * (cb.delta0 / 2.0 / np.linalg.norm(direction))
    x = x + ulps * np.spacing(x)
    table = build_neighborhoods(cb, cb.delta0)
    facts, accepted, _ = run_stage(1, trials(x, 20), cb, table, seed)
    oracle, _ = full_search(x, cb)
    marked = np.flatnonzero(distances_to_codebook(x, cb) < sub1_radii(cb))
    assert marked.tolist() in ([], [oracle])
    assert np.all(facts.t_s == marked.size)
    assert np.all(facts.index == oracle)
    assert not accepted.any() or marked.size == 1


def spread_codebook(rng: np.random.Generator, k: int, n: int):
    """A codebook whose half-distances differ, and the rounded midpoint of its closest pair.

    ``rounded_midpoint``'s pair sits at the origin, its midpoint usually
    within rounding of delta0/2 of both ends; a cluster of n codevectors sits
    at 100 on every axis, and isolated ones 10 to 40 from the cluster, whose
    half-distances lie far above delta0/2.
    """
    pair, midpoint = rounded_midpoint(rng, k)
    cluster = 100.0 + rng.normal(size=(n, k))
    direction = rng.normal(size=(3, k))
    direction *= rng.uniform(10.0, 40.0, size=(3, 1)) / np.linalg.norm(direction, axis=1, keepdims=True)
    return Codebook(np.vstack([pair.vectors, cluster, 100.0 + direction])), midpoint


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(seed=0, k=3, n=4, ulps=0)  # midpoint_case()'s pair
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(2, 12), ulps=st.integers(-8, 8))
def test_stage1_marks_at_most_the_full_search_index_at_every_own_radius(seed, k, n, ulps):
    # inputs a few ulps from each codevector's own shells, its half-distance
    # and its stage-1 radius, and at the rounded midpoints of nearest pairs
    rng = np.random.default_rng(seed)
    cb, midpoint = spread_codebook(rng, k, n)
    radii = sub1_radii(cb)
    assert radii.max() > cb.delta0 / 2.0  # the isolated codevectors' radii
    direction = rng.normal(size=(cb.n, k))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    stretch = 1.0 + ulps * 2.0**-52
    nearest_of = [int(np.argsort(distances_to_codebook(c, cb))[1]) for c in cb.vectors]
    rows = np.vstack([
        cb.vectors + direction * (cb.nearest_other / 2.0 * stretch)[:, None],
        cb.vectors + direction * (radii * stretch)[:, None],
        (cb.vectors + cb.vectors[nearest_of]) / 2.0,
        [midpoint],
    ])
    rows = rows + ulps * np.spacing(rows)
    table = build_neighborhoods(cb, cb.delta0)
    facts, accepted, _ = run_stage(1, rows, cb, table, seed)
    for x, t_s, index, hit in zip(rows, facts.t_s, facts.index, accepted):
        oracle, _ = full_search(x, cb)
        marked = np.flatnonzero(distances_to_codebook(x, cb) < radii)
        assert marked.tolist() in ([], [oracle])
        assert t_s == marked.size and index == oracle
        assert not hit or t_s == 1


def boundary_batch(rng: np.random.Generator, cb: Codebook, delta_hat: float, per_kind: int):
    """Blocks on every boundary the meter simulation branches on.

    Codevectors themselves, points on the delta0/2, delta_hat and 2 * delta_hat
    shells and on each codevector's own half-distance shell, pair midpoints,
    the centroid (t = N once delta_hat is large) and points far from every
    codevector (t = 0).
    """
    k = cb.k
    rows = [cb.vectors[rng.integers(0, cb.n, size=per_kind)]]
    for radius in (cb.delta0 / 2.0, delta_hat, 2.0 * delta_hat, None):
        at = rng.integers(0, cb.n, size=per_kind)
        direction = rng.normal(size=(per_kind, k))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        rows.append(cb.vectors[at] + direction * (cb.nearest_other[at, None] / 2.0 if radius is None else radius))
    pairs = rng.integers(0, cb.n, size=(per_kind, 2))
    rows.append((cb.vectors[pairs[:, 0]] + cb.vectors[pairs[:, 1]]) / 2)
    rows.append(np.tile(cb.vectors.mean(axis=0), (per_kind, 1)))
    rows.append(cb.vectors[rng.integers(0, cb.n, size=per_kind)] + 1e3 * (1.0 + cb.delta0 + delta_hat))
    rows = np.vstack(rows)
    return rows[rng.permutation(rows.shape[0])]


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(seed=0, k=3, n=2, factor=1.0, master_seed=0, per_kind=6)
@example(seed=1, k=1, n=3, factor=50.0, master_seed=1, per_kind=6)
@example(seed=2, k=2, n=3, factor=1.0, master_seed=2, per_kind=6)
# 320 distinct rows, more than two window tiles: three looks, which defer 11 rows to the bounded pass
@example(seed=18, k=2, n=64, factor=3.0, master_seed=5, per_kind=60)
# delta_hat 1e308: the plane overflows, so the k = 4 table takes the strips
@example(seed=3, k=4, n=16, factor=math.inf, master_seed=3, per_kind=6)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.sampled_from([2, 3, 5, 16, 64]),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0, 50.0, math.inf]),
    master_seed=st.integers(0, 2**32 - 1),
    per_kind=st.just(6),
)
def test_batch_equals_per_block_reference(seed, k, n, factor, master_seed, per_kind):
    # the lockstep batch and the per-block walk read the same slot draws, so
    # every block's (index, path, meter) must agree, on every boundary; an inf
    # factor stands for delta_hat 1e308, whose blocks sit on the 50 factor's shells
    rng = np.random.default_rng(seed)
    cb = Codebook(rng.normal(size=(n, k)))
    if n == 2:
        midpoint_cb, midpoint = rounded_midpoint(rng, k)
        if marked_count(midpoint, midpoint_cb, midpoint_cb.delta0 / 2) == 2:
            cb = midpoint_cb  # the batch below gets a rounded midpoint
    delta_hat = 1e308 if factor == math.inf else factor * cb.delta0 / 2.0
    table = build_neighborhoods(cb, delta_hat)
    rows = boundary_batch(rng, cb, min(delta_hat, 25.0 * cb.delta0), per_kind)
    # equal blocks share one distance row but each keeps its own draws
    repeats = rng.integers(0, rows.shape[0], size=rows.shape[0])
    rows = np.vstack([rows, rows[rng.permutation(rows.shape[0])], rows[repeats]])
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=master_seed)
    indices, _, batch = encode_vectors(rows, cb, table, cfg)
    draw = seeded_draws(master_seed, rows.shape[0])
    want = [reference_encode(x, cb, table, block_draws(draw, ordinal)) for ordinal, x in enumerate(rows)]
    assert batch_rows(batch) == want
    # the paper's meter: stage 1 over all N and the paper's scans, on the same draws
    paper = [reference_encode(x, cb, table, block_draws(draw, ordinal), paper=True) for ordinal, x in enumerate(rows)]
    assert meter_rows(batch.paper) == [charges[2:] for charges in paper]
    assert indices.tolist() == [index for index, *_ in want]


WINDOW_CASES = ("interval_ends", "gap_at_radius", "shared_projection", "alone", "empty")


def on_projection(targets: np.ndarray, k: int) -> np.ndarray:
    """Rows on the mean axis whose computed projection is each target, where a step of x_0 reaches it.

    Each row starts at target * (1, ..., 1) / sqrt(k) and moves its first
    component by up to 256 ulps to the first step whose ``kernels.projections``
    is the target, or to the nearest one when none is.  In one dimension
    the projection is the row itself.
    """
    rows = targets[:, None] * (np.ones(k) / math.sqrt(k))
    steps = np.arange(-256, 257)
    tries = np.repeat(rows[:, None, :], steps.size, axis=1)
    tries[:, :, 0] += steps * np.spacing(rows[:, :1])
    p = kernels.projections(tries.reshape(-1, k)).reshape(targets.size, steps.size)
    hit = p == targets[:, None]
    best = np.where(hit.any(axis=1), hit.argmax(axis=1), np.abs(p - targets[:, None]).argmin(axis=1))
    return tries[np.arange(targets.size), best]


def window_case(case: str, rng: np.random.Generator, k: int, n: int):
    """(codebook, rows) on one boundary of stage 1's domain S(x).

    - interval_ends: a codebook whose radii differ (``spread_codebook``),
      and blocks on the mean axis whose projections are 4 codevectors'
      interval ends p(c_i) -+ ``reference_half_width(r_i)``, exactly and
      up to 3 ulps either way;
    - gap_at_radius: x - c along the mean axis at c's own radius r_c, a
      few ulps either way, for 4 codevectors c of such a codebook, so a
      marked c sits at a projection gap of r_c, its interval's reach less
      its margin;
    - shared_projection: integer codevectors with one sum, as on the grid's
      anti-diagonals, so one projection and |S(x)| = N, and blocks near them;
    - alone: codevectors 10 apart along the mean axis, each alone in its
      interval: |S(x)| = 1 near each;
    - empty: blocks beyond every projection: |S(x)| = 0.
    """
    u = np.ones(k) / math.sqrt(k)
    if case in ("interval_ends", "gap_at_radius"):
        cb, _ = spread_codebook(rng, k, n)
    elif case == "shared_projection":
        k = max(k, 2)
        head = np.column_stack([rng.permutation(np.arange(-20, 21))[:n], rng.integers(-9, 10, size=(n, k - 2))])
        cb = Codebook(np.column_stack([head, 7 - head.sum(axis=1)]).astype(np.float64))
    elif case == "alone":
        cb = Codebook(10.0 * np.arange(n)[:, None] * u + rng.normal(size=k) * 3.0)
    else:
        cb = Codebook(rng.normal(size=(n, k)))
    radii = sub1_radii(cb)
    picked = rng.choice(cb.n, size=min(4, cb.n), replace=False)
    if case == "interval_ends":
        half = np.array([reference_half_width(r, cb) for r in radii[picked].tolist()])
        ends = np.concatenate([cb.projections[picked] - half, cb.projections[picked] + half])
        return cb, on_projection((ends[:, None] + np.arange(-3, 4) * np.spacing(ends)[:, None]).ravel(), cb.k)
    direction = rng.normal(size=(8, cb.k))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    at = cb.vectors[rng.integers(0, cb.n, size=8)]
    if case == "gap_at_radius":
        stretch = (1.0 + np.arange(-6, 3) * 2.0**-52)[:, None, None]
        gap = (radii[picked, None] * u) * stretch
        rows = np.vstack([(cb.vectors[picked] + gap).reshape(-1, cb.k), (cb.vectors[picked] - gap).reshape(-1, cb.k)])
    elif case == "empty":
        rows = at + (1e3 + 10.0 * np.abs(cb.vectors).max()) * u
    else:
        rows = np.vstack([at, at + direction * (radii.min() * rng.uniform(0.0, 0.9, size=(8, 1)))])
    ulps = rng.integers(-3, 4, size=rows.shape)
    return cb, rows + ulps * np.spacing(rows)


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(case="interval_ends", seed=0, k=1, n=3, master_seed=0)
@example(case="interval_ends", seed=1, k=3, n=5, master_seed=1)
# a block at codevector 6's upper end c + w, the largest radius's: p - w rounds above c
@example(case="interval_ends", seed=10000, k=1, n=3, master_seed=181)
@example(case="gap_at_radius", seed=0, k=2, n=5, master_seed=0)
@example(case="gap_at_radius", seed=1, k=1, n=3, master_seed=1)
@example(case="gap_at_radius", seed=1, k=3, n=5, master_seed=5)
@example(case="shared_projection", seed=2, k=2, n=12, master_seed=2)
@example(case="alone", seed=3, k=3, n=6, master_seed=3)
@example(case="empty", seed=4, k=2, n=4, master_seed=4)
@given(
    case=st.sampled_from(WINDOW_CASES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    master_seed=st.integers(0, 2**32 - 1),
)
def test_stage1_window_holds_every_index_it_can_mark(case, seed, k, n, master_seed):
    # |S(x)| is the brute-force count of codevectors whose own interval
    # p(c_i) -+ half_width(r_i) holds p(x), ends included; a marked index lies
    # in S(x); S(x) never exceeds the one strip at the largest radius; full
    # search is the oracle, and every block's charges and its paper's charges
    # match the per-block reference.  On a disc grid (k >= 3), S(x) is the
    # brute-force list of the stage-1 discs that meet x's grid cell, bounded by
    # the strips one cell side wider, and the cases' exact widths are the strips'
    rng = np.random.default_rng(seed)
    cb, rows = window_case(case, rng, k, n)
    table = build_neighborhoods(cb, cb.delta0)
    cfg = EncoderConfig(delta_hat=table.delta_hat, master_seed=master_seed)
    indices, _, batch = encode_vectors(rows, cb, table, cfg)
    draw = seeded_draws(master_seed, rows.shape[0])
    strip = reference_half_width(float(sub1_radii(cb).max()), cb)
    half = kernels.half_width(sub1_radii(cb), cb.k, cb.norm_scale)[cb.order]
    lower, upper = cb.axis - half, cb.axis + half
    grid = isinstance(table.domains, DiscGrid)
    got, paper = batch_rows(batch), meter_rows(batch.paper)
    on_an_end = 0
    for ordinal, x in enumerate(rows):
        oracle, _ = full_search(x, cb)
        assert indices[ordinal] == oracle
        width = int(batch.facts.domain_s[ordinal])
        p = kernels.projections(x[None])[0]
        if grid:
            members = grid_members(x, cb, table)[0]
            assert width == len(members) <= grid_strips(x, cb, table)[0]
        else:
            members = stage1_domain(x, cb)
            # each interval widened to the largest: c - strip <= c - w_i and c + w_i <= c + strip
            # in floats too, while p - strip <= c can fail by a rounding where c + w_i = p
            widest = np.count_nonzero((cb.projections - strip <= p) & (p <= cb.projections + strip))
            assert width == len(members) <= widest
        if batch.facts.t_s[ordinal]:
            assert oracle in members
        on_an_end += np.count_nonzero((lower == p) | (upper == p))
        # the exact widths are the strips'; a grid cell can reach past them
        if case == "shared_projection" and not grid:
            assert width == cb.n
        elif case == "alone" and batch.facts.t_s[ordinal] and not grid:
            assert width == 1 and batch.path[ordinal] == SUB1
        elif case == "empty":
            assert width == 0
        u = block_draws(draw, ordinal)
        assert got[ordinal] == reference_encode(x, cb, table, u)
        assert paper[ordinal] == reference_encode(x, cb, table, u, paper=True)[2:]
    if case == "alone":
        assert batch.facts.t_s.any()
    elif case == "interval_ends":
        assert on_an_end >= 8 if cb.k == 1 else on_an_end > 0


STAGE2_WINDOW_CASES = ("edge", "shared_projection", "full", "empty")


def stage2_window_case(case: str, rng: np.random.Generator, k: int, n: int, factor: float):
    """(codebook, delta_hat, rows) on one boundary of stage 2's projection window.

    - edge: x - c along the mean axis at delta_hat, a few ulps either way,
      so a marked c sits at a projection gap of delta_hat, the window's reach
      less its margin; and x on p(c') -+ ``kernels.half_width(delta_hat)``,
      the window's edges;
    - shared_projection: integer codevectors with one sum, so one projection
      and W_t = N, and blocks within 0.9 delta_hat of them;
    - full: codevectors 10 apart along the mean axis and blocks on that
      axis, each a gap of 0.5 to 1.5 from a codevector and at least 1 from
      each shell: every codevector in the window is marked, W_t = t;
    - empty: blocks beyond every projection, W_t = 0, and blocks between
      stage 2's half-width and stage 1's from a codevector, where stage 1's
      window can hold codevectors that stage 2's does not.
    """
    u = np.ones(k) / math.sqrt(k)
    if case == "shared_projection":
        k = max(k, 2)
        head = np.column_stack([rng.permutation(np.arange(-20, 21))[:n], rng.integers(-9, 10, size=(n, k - 2))])
        cb = Codebook(np.column_stack([head, 7 - head.sum(axis=1)]).astype(np.float64))
    elif case == "full":
        cb = Codebook(10.0 * np.arange(n)[:, None] * u + rng.normal(size=k) * 3.0)
    else:
        cb = Codebook(rng.normal(size=(n, k)))
    delta_hat = factor * cb.delta0 / 2.0
    half = kernels.half_width(delta_hat, cb.k, cb.norm_scale)
    u = np.ones(cb.k) / math.sqrt(cb.k)
    at = cb.vectors[rng.integers(0, cb.n, size=8)]
    direction = rng.normal(size=(8, cb.k))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    if case == "edge":
        c = cb.vectors[rng.integers(0, cb.n)]
        stretch = 1.0 + np.arange(-6, 3)[:, None] * 2.0**-52
        rows = np.vstack([c + delta_hat * stretch * u, c - delta_hat * stretch * u, at + half * u, at - half * u])
    elif case == "shared_projection":
        rows = np.vstack([at, at + direction * (delta_hat * rng.uniform(0.0, 0.9, size=(8, 1)))])
    elif case == "full":
        gap = rng.uniform(0.5, 1.5, size=(8, 1)) * rng.choice([-1.0, 1.0], size=(8, 1))
        return cb, delta_hat, at + gap * u
    else:
        reach = max(reference_half_width(float(sub1_radii(cb).max()), cb), half)
        beyond = at + (1e3 + 10.0 * np.abs(cb.vectors).max()) * u
        rows = np.vstack([beyond, at + (half + reach) / 2 * u, at - (half + reach) / 2 * u])
    ulps = rng.integers(-3, 4, size=rows.shape)
    return cb, delta_hat, rows + ulps * np.spacing(rows)


@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(case="edge", seed=0, k=2, n=5, factor=1.0, master_seed=0)
@example(case="edge", seed=1, k=1, n=3, factor=3.0, master_seed=1)
@example(case="shared_projection", seed=2, k=2, n=12, factor=1.25, master_seed=2)
@example(case="full", seed=3, k=3, n=6, factor=2.0, master_seed=3)
@example(case="full", seed=4, k=1, n=4, factor=3.0, master_seed=4)
@example(case="empty", seed=5, k=2, n=4, factor=1.0, master_seed=5)
@given(
    case=st.sampled_from(STAGE2_WINDOW_CASES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
    master_seed=st.integers(0, 2**32 - 1),
)
def test_stage2_window_holds_every_marked_index(case, seed, k, n, factor, master_seed):
    # W_t is the literal count of projections within kernels.half_width(delta_hat)
    # of p(x), or on a disc grid (k >= 3) of the stage-2 discs that meet x's cell;
    # every index marked at delta_hat lies in it, so t <= W_t; full
    # search is the oracle, and every block's charges and its paper's charges
    # match the per-block reference.  A block with W_t = 0 runs no round, is
    # charged nothing by stage 2 and falls back unless stage 1 passed it
    rng = np.random.default_rng(seed)
    cb, delta_hat, rows = stage2_window_case(case, rng, k, n, factor)
    table = build_neighborhoods(cb, delta_hat)
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=master_seed)
    indices, _, batch = encode_vectors(rows, cb, table, cfg)
    draw = seeded_draws(master_seed, rows.shape[0])
    half = kernels.half_width(delta_hat, cb.k, cb.norm_scale)
    facts = batch.facts
    grid = isinstance(table.domains, DiscGrid)
    got, paper = batch_rows(batch), meter_rows(batch.paper)
    for ordinal, x in enumerate(rows):
        assert indices[ordinal] == full_search(x, cb)[0]
        width = int(facts.domain_t[ordinal])
        p = kernels.projections(x[None])[0]
        marked = marked_set_from_distances(distances_to_codebook(x, cb), delta_hat)
        if grid:
            members = grid_members(x, cb, table)[1]
            assert width == len(members) <= grid_strips(x, cb, table)[1]
            assert set(marked.tolist()) <= set(members)
        else:
            assert width == stage2_window(x, cb, table)
        assert marked.size == facts.t[ordinal] <= width
        assert np.all((p - half <= cb.projections[marked]) & (cb.projections[marked] <= p + half))
        u = block_draws(draw, ordinal)
        assert got[ordinal] == reference_encode(x, cb, table, u)
        assert paper[ordinal] == reference_encode(x, cb, table, u, paper=True)[2:]
    # the exact widths are the strips'; a grid cell can reach past them
    if case == "shared_projection" and not grid:
        assert np.all(facts.domain_t == cb.n)
    elif case == "full" and not grid:
        assert np.all(facts.domain_t == facts.t) and np.all(facts.t >= 1)
    elif case == "empty":
        assert np.any(facts.domain_t == 0)
    # stage 2 alone: a block with an empty window is not searched and is charged nothing
    _, accepted, meter = run_stage(2, rows, cb, table, master_seed)
    empty = facts.domain_t == 0
    assert not accepted[empty].any() and np.all(batch.path[empty] != PATHS.index(EncodePath.SUB2))
    assert not meter.grover_iterations[empty].any() and not meter.classical_distance_evals[empty].any()
    assert np.all(meter.table_reads == lookup_reads(table)[1])


GRID_CASES = ("cell_edges", "corner_rim", "shells", "far")


def split_axis(k: int) -> np.ndarray:
    """The unit split axis: +1 over the first k // 2 components, -1 over the last k // 2, over sqrt(k')."""
    half = k // 2
    return np.concatenate([np.ones(half), np.zeros(k % 2), -np.ones(half)]) / math.sqrt(2 * half)


def on_plane(targets: np.ndarray, k: int) -> np.ndarray:
    """Rows whose computed (p, q) is each target (p, q), or the nearest that 40 ulps of two components reach.

    Each row starts at p u + q v on the mean and split axes and moves its
    first and last components, each by -40..40 ulps, to the step whose
    ``kernels.projections`` and ``kernels.split_projections`` lie fewest
    ulps from the target, exactly when some step hits it.
    """
    rows = targets[:, :1] * (np.ones(k) / math.sqrt(k)) + targets[:, 1:] * split_axis(k)
    steps = np.arange(-40, 41)
    tries = np.repeat(rows[:, None, :], steps.size**2, axis=1)
    tries[:, :, 0] += np.repeat(steps, steps.size) * np.spacing(rows[:, :1])
    tries[:, :, -1] += np.tile(steps, steps.size) * np.spacing(rows[:, -1:])
    flat = tries.reshape(-1, k)
    got = np.stack([kernels.projections(flat), kernels.split_projections(flat)], axis=1)
    got = got.reshape(targets.shape[0], -1, 2)
    miss = (np.abs(got - targets[:, None, :]) / np.spacing(np.abs(targets))[:, None, :]).sum(axis=2)
    return tries[np.arange(targets.shape[0]), miss.argmin(axis=1)]


def cell_edges(grid, axis: int, index: np.ndarray) -> np.ndarray:
    """The first float of each column (axis 0) or row (axis 1) ``index``: where its coordinate's floor turns."""
    origin = (grid.origin_p, grid.origin_q)[axis]
    edge = origin + index * grid.side
    for _ in range(64):  # step down while still inside, then up while below: a few ulps each way
        inside = np.floor(cell_coordinates(np.nextafter(edge, -np.inf), origin, grid.side)) >= index
        edge = np.where(inside, np.nextafter(edge, -np.inf), edge)
    for _ in range(64):
        below = np.floor(cell_coordinates(edge, origin, grid.side)) < index
        edge = np.where(below, np.nextafter(edge, np.inf), edge)
    return edge


def grid_case(case: str, rng: np.random.Generator, k: int, n: int, factor: float):
    """(codebook, delta_hat, rows, points) on one boundary of the k >= 3 grid's domains.

    ``points`` are (p, q) pairs looked up in the grid directly.
    - cell_edges: points on cells' first floats in p, in q and in both, and
      3 ulps either way; blocks whose computed (p, q) are those points
      (``on_plane``) or within a few ulps of them;
    - corner_rim: a codevector moved so its (p, q) lies the stage-2 disc's
      radius from a cell corner, and points and blocks at that corner;
    - shells: blocks on the delta0/2, delta_hat and own half-distance shells
      of codevectors, codevectors themselves and pair midpoints;
    - far: those shells with one far codevector at 1e100, whose grid the
      64 N cap stretches.
    """
    cb = Codebook(rng.normal(size=(n, k)) * rng.choice([1.0, 30.0], size=(n, 1)))
    if case == "far":
        cb = Codebook(np.vstack([cb.vectors, np.full((1, k), 1e100)]))
    delta_hat = factor * cb.delta0 / 2.0
    grid = build_neighborhoods(cb, delta_hat).domains
    ulps = np.arange(-3, 4)
    if case == "corner_rim":
        # move codevector j onto a circle of radius half_width(delta_hat) around a corner of its
        # cell; where the move keeps the grid's origin, norm and delta_hat valid, the corner stays
        j = int(np.argsort(cb.projections)[n // 2])
        corner = np.floor(np.array([
            cell_coordinates(cb.projections[j], grid.origin_p, grid.side),
            cell_coordinates(kernels.split_projections(cb.vectors[j : j + 1])[0], grid.origin_q, grid.side),
        ]))
        angle = rng.uniform(0, 2 * math.pi)
        rim = np.array([grid.origin_p, grid.origin_q]) + corner * grid.side
        rim += kernels.half_width(delta_hat, k, cb.norm_scale) * np.array([math.cos(angle), math.sin(angle)])
        vectors = cb.vectors.copy()
        vectors[j] = on_plane(rim[None], k)[0]
        moved = Codebook(vectors)

        def frame(c):  # what places the grid: the norm and each axis's smallest coordinate
            return c.norm_scale, c.projections.min(), kernels.split_projections(c.vectors).min()

        if frame(moved) == frame(cb) and moved.delta0 <= 2 * delta_hat:
            cb = moved
            grid = build_neighborhoods(cb, delta_hat).domains
        around = np.arange(-1, 3)
        q_j = kernels.split_projections(cb.vectors[j : j + 1])[0]
        p = cell_edges(grid, 0, np.floor(cell_coordinates(cb.projections[j], grid.origin_p, grid.side)) + around)
        q = cell_edges(grid, 1, np.floor(cell_coordinates(q_j, grid.origin_q, grid.side)) + around)
        points = np.stack(np.meshgrid(p, q), axis=-1).reshape(-1, 2)
    elif case == "cell_edges":
        cols, rows = grid.sub1.shape
        a = (grid.low_p + rng.integers(0, cols + 1, size=4)).astype(np.float64)
        b = (grid.low_q + rng.integers(0, rows + 1, size=4)).astype(np.float64)
        p, q = cell_edges(grid, 0, a), cell_edges(grid, 1, b)
        middle_p, middle_q = grid.origin_p + (a + 0.5) * grid.side, grid.origin_q + (b + 0.5) * grid.side
        points = np.vstack([np.column_stack([p, q]), np.column_stack([p, middle_q]), np.column_stack([middle_p, q])])
    if case in ("corner_rim", "cell_edges"):
        nudged = points[:, None, :] + ulps[None, :, None] * np.spacing(points)[:, None, :]
        p_only = np.stack([nudged[:, :, 0].ravel(), points[:, 1].repeat(ulps.size)], axis=1)
        points = np.vstack([points, nudged.reshape(-1, 2), p_only])
        rows = on_plane(points[:: max(1, points.shape[0] // 40)], k)
        rows = np.vstack([rows, rows + rng.integers(-3, 4, size=rows.shape) * np.spacing(rows)])
        return cb, delta_hat, rows, points
    rows = boundary_batch(rng, Codebook(cb.vectors[:n]), delta_hat, 4)
    radii = sub1_radii(cb)[:n]
    direction = rng.normal(size=(n, k))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    stretch = 1.0 + rng.integers(-4, 5, size=(n, 1)) * 2.0**-52
    rows = np.vstack([rows, cb.vectors[:n] + direction * radii[:, None] * stretch])
    points = np.stack([kernels.projections(rows), kernels.split_projections(rows)], axis=1)
    return cb, delta_hat, rows, points


@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(case="cell_edges", seed=0, k=3, n=6, factor=1.0, master_seed=0)
@example(case="cell_edges", seed=1, k=4, n=10, factor=3.0, master_seed=1)
@example(case="corner_rim", seed=2, k=4, n=8, factor=1.25, master_seed=2)
@example(case="corner_rim", seed=3, k=5, n=9, factor=2.0, master_seed=3)
@example(case="shells", seed=4, k=3, n=12, factor=1.0, master_seed=4)
@example(case="far", seed=5, k=5, n=7, factor=3.0, master_seed=5)
@given(
    case=st.sampled_from(GRID_CASES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(3, 5),
    n=st.integers(3, 12),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
    master_seed=st.integers(0, 2**32 - 1),
)
def test_grid_domains_hold_every_index_either_stage_can_mark(case, seed, k, n, factor, master_seed):
    # for k >= 3 a block's two domains are its grid cell's counts: the brute-force
    # lists of the discs that meet the cell (reference_encoder.grid_members); stage 1's
    # holds the index it can mark and stage 2's every index marked at delta_hat, with
    # full search and nearest_many as the oracle; each count lies between the exact disc
    # count and the strips one cell side wider; a (p, q) point on a cell's first float,
    # or a few ulps from it, reads the cell the floor of its coordinates gives; every
    # block's charges match the per-block reference
    rng = np.random.default_rng(seed)
    cb, delta_hat, rows, points = grid_case(case, rng, k, n, factor)
    table = build_neighborhoods(cb, delta_hat)
    grid = table.domains
    assert grid.sub1.size <= GRID_CELL_CAP * cb.n
    w1 = kernels.half_width(sub1_radii(cb), k, cb.norm_scale)
    w2 = kernels.half_width(delta_hat, k, cb.norm_scale)
    got = grid.lookup(points[:, 0], points[:, 1])
    split = kernels.split_projections(cb.vectors)
    for (p, q), s, t in zip(points.tolist(), *got):
        a = math.floor((p - grid.origin_p) / grid.side)
        b = math.floor((q - grid.origin_q) / grid.side)
        cols, height = grid.sub1.shape
        inside = grid.low_p <= a < grid.low_p + cols and grid.low_q <= b < grid.low_q + height
        lists = cell_members(a, b, cb, table) if inside else ([], [])
        assert (s, t) == tuple(map(len, lists))
        gap = (p - cb.projections) ** 2 + (q - split) ** 2
        assert set(np.flatnonzero(gap <= w1 * w1).tolist()) <= set(lists[0])
        assert set(np.flatnonzero(gap <= w2 * w2).tolist()) <= set(lists[1])
    cfg = EncoderConfig(delta_hat=delta_hat, master_seed=master_seed)
    indices, _, batch = encode_vectors(rows, cb, table, cfg)
    oracle, _ = kernels.nearest_many(rows, cb.vectors)
    assert indices.tolist() == oracle.tolist()
    facts = batch.facts
    draw = seeded_draws(master_seed, rows.shape[0])
    charges, paper = batch_rows(batch), meter_rows(batch.paper)
    for ordinal, x in enumerate(rows):
        sub1, sub2 = grid_members(x, cb, table)
        assert (facts.domain_s[ordinal], facts.domain_t[ordinal]) == (len(sub1), len(sub2))
        dvec = distances_to_codebook(x, cb)
        if facts.t_s[ordinal]:
            assert oracle[ordinal] in sub1 and dvec[oracle[ordinal]] < sub1_radii(cb)[oracle[ordinal]]
        assert set(np.flatnonzero(dvec < delta_hat).tolist()) <= set(sub2)
        p, q = kernels.projections(x[None])[0], kernels.split_projections(x[None])[0]
        gap = (p - cb.projections) ** 2 + (q - split) ** 2
        wide = grid_strips(x, cb, table)
        assert np.count_nonzero(gap <= w1 * w1) <= len(sub1) <= wide[0]
        assert np.count_nonzero(gap <= w2 * w2) <= len(sub2) <= wide[1]
        u = block_draws(draw, ordinal)
        assert charges[ordinal] == reference_encode(x, cb, table, u)
        assert paper[ordinal] == reference_encode(x, cb, table, u, paper=True)[2:]
    if case == "cell_edges":
        # some point sits on a cell's first float: one ulp lower reads the cell below
        first = np.floor(cell_coordinates(points[:, 0], grid.origin_p, grid.side))
        lower = np.floor(cell_coordinates(np.nextafter(points[:, 0], -np.inf), grid.origin_p, grid.side))
        assert np.any(lower < first)


WALK_CASES = ("mean_axis", "shared_projection", "ties", "isolated", "random")


def walk_case(case: str, rng: np.random.Generator, k: int, n: int, factor: float):
    """(codebook, delta_hat, rows) on one boundary of the finishing walks.

    - mean_axis: x - c lies along the mean axis at the delta0/2, delta_hat and
      2 delta_hat shells, so c's projection gap is its distance;
    - shared_projection: integer codevectors with one sum, so one projection,
      and blocks on that projection or near a codevector;
    - ties: lattice codevectors and the exact midpoints between them;
    - isolated: a far codevector whose neighbor list is itself alone, and
      blocks within delta_hat of it;
    - random: blocks spread over the codebook's box.
    """
    if case == "shared_projection":
        k = max(k, 2)
        head = np.column_stack([rng.permutation(np.arange(-20, 21))[:n], rng.integers(-9, 10, size=(n, k - 2))])
        vectors = np.column_stack([head, 7 - head.sum(axis=1)]).astype(np.float64)
    elif case == "ties":
        vectors = 2.0 * np.unique(rng.integers(0, 4, size=(n + 2, k)), axis=0)[: max(n, 2)]
        if vectors.shape[0] < 2:
            vectors = np.array([np.zeros(k), np.full(k, 2.0)])
    elif case == "isolated":
        vectors = np.vstack([rng.normal(size=(n, k)), np.full(k, 100.0)])
    else:
        vectors = rng.normal(size=(n, k))
    cb = Codebook(vectors)
    delta_hat = factor * cb.delta0 / 2.0
    at = cb.vectors[rng.integers(0, cb.n, size=6)]
    direction = rng.normal(size=(6, cb.k))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    shells = np.array([cb.delta0 / 2.0, delta_hat, 2.0 * delta_hat])
    if case == "mean_axis":
        rows = (cb.vectors[:, None, :] + shells[None, :, None] / math.sqrt(cb.k)).reshape(-1, cb.k)
    elif case == "shared_projection":
        rows = np.vstack([at + 0.3 * direction, at + 0.3 * (direction - direction.mean(axis=1, keepdims=True))])
    elif case == "ties":
        pairs = rng.integers(0, cb.n, size=(12, 2))
        rows = np.vstack([(cb.vectors[pairs[:, 0]] + cb.vectors[pairs[:, 1]]) / 2, cb.vectors + 1.0])
    elif case == "isolated":
        rows = cb.vectors[-1] + direction * rng.uniform(0.0, delta_hat, size=(6, 1))
    else:
        low, high = cb.vectors.min(axis=0), cb.vectors.max(axis=0)
        rows = rng.uniform(low - delta_hat, high + delta_hat, size=(12, cb.k))
    return cb, delta_hat, np.vstack([rows, at + direction * shells[rng.integers(0, 3, size=(6, 1))]])


@settings(max_examples=80, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@example(case="mean_axis", seed=0, k=2, n=8, factor=1.0)
@example(case="mean_axis", seed=1, k=4, n=5, factor=3.0)
@example(case="shared_projection", seed=2, k=2, n=12, factor=2.0)
@example(case="shared_projection", seed=3, k=3, n=6, factor=1.25)
@example(case="ties", seed=4, k=2, n=12, factor=1.0)
@example(case="ties", seed=5, k=1, n=3, factor=3.0)
@example(case="isolated", seed=6, k=3, n=4, factor=2.0)
@given(
    case=st.sampled_from(WALK_CASES),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    n=st.integers(2, 12),
    factor=st.sampled_from([1.0, 1.25, 2.0, 3.0]),
)
def test_projection_walks_find_full_search_and_batch_charges_match(case, seed, k, n, factor):
    # the literal walk's argmin is full search's, ties to the smallest index,
    # from every marked h's list and from the whole codebook; the batch charges
    # what the walk evaluates and reads, whether h is j* or lies outside the strip
    rng = np.random.default_rng(seed)
    cb, delta_hat, rows = walk_case(case, rng, k, n, factor)
    table = build_neighborhoods(cb, delta_hat)
    if case == "isolated":
        assert table.neighbors(cb.n - 1).tolist() == [cb.n - 1]
    blocks, picks, want = [], [], []
    for x in rows:
        dvec = distances_to_codebook(x, cb)
        oracle, _ = full_search(x, cb)
        walk = projection_walk(x, cb, range(cb.n), dvec)
        assert walk[0] == oracle
        blocks.append(x), picks.append(-1), want.append(walk[1:])
        for h in np.flatnonzero(dvec < delta_hat):
            walk = projection_walk(x, cb, table.neighbors(h), dvec, known=h)
            assert walk[0] == oracle
            blocks.append(x), picks.append(h), want.append(walk[1:])
    blocks = np.array(blocks)
    facts = block_facts(blocks, cb, table, np.zeros(len(blocks)))
    facts = dataclasses.replace(facts, pick=np.array(picks, dtype=np.int64))
    hit = facts.pick >= 0
    evals, reads = finishing_walks(facts, cb, table, hit, ~hit)
    assert list(zip(evals.tolist(), reads.tolist())) == want


def test_walk_drops_h_only_inside_the_strip():
    # p(x) = 14 and d* = 4 (codevector 1): the strip holds codevector 1 alone
    cb = line_codebook(4)
    table = build_neighborhoods(cb, 9.0)  # radius 18: list 1 is {0, 1, 2}, list 2 is {1, 2, 3}
    x = np.array([[14.0]])
    facts = block_facts(np.repeat(x, 2, axis=0), cb, table, np.zeros(2))
    assert facts.t.tolist() == [2, 2]  # codevectors 1 and 2 verify below 9
    facts = dataclasses.replace(facts, pick=np.array([1, 2]))
    evals, _ = finishing_walks(facts, cb, table, np.ones(2, dtype=bool), np.zeros(2, dtype=bool))
    # h = 1 = j*: the strip's one entry is h, whose distance the verification gave;
    # h = 2 lies outside the strip, and its list's entry 1 is evaluated
    assert evals.tolist() == [0, 1]
    dvec = distances_to_codebook(x[0], cb)
    assert [projection_walk(x[0], cb, table.neighbors(h), dvec, known=h)[:2] for h in (1, 2)] == [(1, 0), (1, 1)]


def test_codevectors_on_the_strip_edges_are_walked():
    # x = 3 with d* = 3 (codevector 0); two codevectors sit exactly at the
    # strip's ends 3 -+ half_width(3), in one dimension where p(c) = c
    x = np.array([[3.0]])
    half = float(kernels.half_width(3.0, 1, 100.0))  # max |c| = 100
    low, high = 3.0 - half, 3.0 + half
    cb = Codebook([[-100.0], [low], [0.0], [high]])
    table = build_neighborhoods(cb, 4.0)  # low, 0 and high verify, and each one's list holds all three
    rows = np.repeat(x, 4, axis=0)
    facts = block_facts(rows, cb, table, np.zeros(4))
    assert facts.index.tolist() == [2] * 4 and facts.nearest.tolist() == [3.0] * 4
    facts = dataclasses.replace(facts, pick=np.array([-1, 1, 2, 3]))
    hit = facts.pick >= 0
    evals, reads = finishing_walks(facts, cb, table, hit, ~hit)
    # the fallback evaluates low, 0 and high, and -100 closes its lower side; after a
    # hit on any of the three, the walk evaluates the other two
    dvec = distances_to_codebook(x[0], cb)
    assert (evals[0], reads[0]) == projection_walk(x[0], cb, range(4), dvec)[1:] == (3, 3 + 3 + 1)
    for b, h in ((1, 1), (2, 2), (3, 3)):
        assert (evals[b], reads[b]) == projection_walk(x[0], cb, table.neighbors(h), dvec, known=h)[1:] == (2, 2 + 3)


def test_blocks_sharing_a_row_and_list_share_one_charge():
    # x = (4, 6) walks h = 0's list, h = 1's list and the codebook, y = (5, 5) walks
    # h = 0's and h = 1's, each pair's charge different; (x, 0) repeats between them
    cb = grid_codebook(16)
    table = build_neighborhoods(cb, 2.0 * cb.delta0)  # 0 and 1 verify for both inputs
    x, y, fallback = [4.0, 6.0], [5.0, 5.0], -1
    batch = [(x, 0), (x, 1), (x, 0), (x, fallback), (x, 0), (y, 0), (x, 0), (y, 1), (x, 0)]
    rows = np.array([v for v, _ in batch])
    pick = np.array([h for _, h in batch])
    facts = dataclasses.replace(block_facts(rows, cb, table, np.zeros(len(batch))), pick=pick)
    hit = pick >= 0
    evals, reads = finishing_walks(facts, cb, table, hit, ~hit)
    charges = {}
    for v, h in batch:
        dvec = distances_to_codebook(np.array(v), cb)
        entries = range(cb.n) if h == fallback else table.neighbors(h)
        known = None if h == fallback else h
        charges[tuple(v), h] = projection_walk(np.array(v), cb, entries, dvec, known=known)[1:]
    assert list(zip(evals.tolist(), reads.tolist())) == [charges[tuple(v), h] for v, h in batch]
    assert len(set(charges.values())) == len(charges) == 5
    # the pairs' charges do not depend on which of a pair's blocks comes first
    order = np.random.default_rng(8).permutation(len(batch))
    permuted = BlockFacts(**{f.name: getattr(facts, f.name)[order] for f in dataclasses.fields(facts)})
    again = finishing_walks(permuted, cb, table, hit[order], ~hit[order])
    assert again[0].tolist() == evals[order].tolist() and again[1].tolist() == reads[order].tolist()
    # (-0.0, 0.0) and (0.0, -0.0) are one distinct row beside codevector 0 at the origin: the walks
    # read that row's projection, and each block is charged its own walk, after a hit on 0 and in a fallback
    zeros = np.array([[-0.0, 0.0], [0.0, -0.0]] * 2)
    pick = np.array([0, 0, fallback, fallback])
    facts = dataclasses.replace(block_facts(zeros, cb, table, np.zeros(4)), pick=pick)
    assert facts.row.tolist() == [0] * 4 and facts.t.tolist() == [4] * 4
    hit = pick >= 0
    evals, reads = finishing_walks(facts, cb, table, hit, ~hit)
    for b, (z, h) in enumerate(zip(zeros, pick)):
        entries, known = (range(cb.n), None) if h == fallback else (table.neighbors(h), h)
        walk = projection_walk(z, cb, entries, distances_to_codebook(z, cb), known=known)
        assert walk[0] == 0 and (evals[b], reads[b]) == walk[1:]


def test_one_far_block_widens_only_its_own_window(monkeypatch):
    # a block at (1e100, -1e100) projects to 0, beside the grid's corner, but its reach
    # is about 1.4e100: its own bounded tile measures the whole codebook, and every
    # other row keeps the margin of its own reach, since the margin's norm is the codebook's
    cb = grid_codebook(256)
    delta_hat = 0.6 * cb.delta0
    table = build_neighborhoods(cb, delta_hat)
    clean = clustered_dataset(cb, delta_hat, 2000, seed=1)
    far = np.vstack([clean, [[1e100, -1e100]]])
    computed = [0]
    window_tiles = kernels.window_tiles

    def counting(*args, **kwargs):
        for rows, cols, d in window_tiles(*args, **kwargs):
            computed[0] += d.size
            yield rows, cols, d

    monkeypatch.setattr(kernels, "window_tiles", counting)

    def passes(vectors):
        """(facts, nearest, distances computed by block_facts, by nearest_distances)."""
        computed[0] = 0
        facts = block_facts(vectors, cb, table, np.zeros(vectors.shape[0]))
        in_facts = computed[0]
        nearest = nearest_distances(cb, vectors)
        return facts, nearest, in_facts, computed[0] - in_facts

    _, _, clean_facts, clean_nearest = passes(clean)
    facts, nearest, far_facts, far_nearest = passes(far)
    assert far_facts <= clean_facts + kernels.WINDOW_TILE * cb.n
    assert far_nearest <= clean_nearest + kernels.WINDOW_TILE * cb.n
    idx, dist = kernels.nearest_many(far, cb.vectors)
    assert facts.index.tolist() == idx.tolist()
    assert facts.nearest.tobytes() == nearest.tobytes() == dist.tobytes()


class TestBatch:
    def test_prefix_gives_the_same_outcomes(self):
        # a block's draws are keyed by (seed, slot, ordinal), never by M
        cb = grid_codebook(64)
        delta_hat = 0.6 * cb.delta0
        table = build_neighborhoods(cb, delta_hat)
        rows = clustered_dataset(cb, delta_hat, 400, seed=3)
        cfg = EncoderConfig(delta_hat=delta_hat, master_seed=21)
        _, _, whole = encode_vectors(rows, cb, table, cfg)
        for k in (1, kernels.WINDOW_TILE - 1, kernels.WINDOW_TILE, kernels.WINDOW_TILE + 1, 399):
            _, _, prefix = encode_vectors(rows[:k], cb, table, cfg)
            assert batch_rows(prefix) == batch_rows(whole)[:k]
            assert meter_rows(prefix.paper) == meter_rows(whole.paper)[:k]

    def test_getitem_builds_each_blocks_outcome(self):
        # the batch is a read-only sequence of EncodeOutcome, plain ints, built from its arrays
        cb = grid_codebook(64)
        table = build_neighborhoods(cb, 0.6 * cb.delta0)
        rows = clustered_dataset(cb, table.delta_hat, 200, seed=5)
        batch = encode_rows(rows, cb, table, 6)
        assert len(batch) == 200 and {PATHS[p] for p in batch.path.tolist()} == set(EncodePath)
        want = [EncodeOutcome(index, PATHS[path], QueryMeter(*charges)) for index, path, *charges in batch_rows(batch)]
        assert list(batch) == want
        assert batch[-1] == batch[199] == want[199]
        assert all(type(v) is int for v in (batch[0].index, *dataclasses.astuple(batch[0].meter)))
        with pytest.raises(IndexError):
            batch[200]

    def test_index_is_nearest_many_including_ties(self):
        # grid points and the exact midpoints between them: on a midpoint two
        # or four codevectors tie, and both rules take the smallest index
        cb = grid_codebook(64)
        table = build_neighborhoods(cb, 0.6 * cb.delta0)
        rng = np.random.default_rng(31)
        ties = cb.vectors[rng.integers(0, 64, size=(300, 2))].mean(axis=1)
        rows = np.vstack([ties, rng.uniform(-5, 75, size=(300, 2)), cb.vectors])
        cfg = EncoderConfig(delta_hat=table.delta_hat, master_seed=4)
        indices, _, batch = encode_vectors(rows, cb, table, cfg)
        oracle, _ = kernels.nearest_many(rows, cb.vectors)
        assert indices.tolist() == oracle.tolist() == batch.facts.index.tolist()
        dists = np.array([distances_to_codebook(x, cb) for x in rows])
        assert np.count_nonzero((dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1) > 100


class TestClassifyRegion:
    def test_on_codevector(self):
        cb, table = make_setup(16)
        _, d = full_search(cb.vectors[0], cb)
        assert region_fractions([d], cb.delta0, table.delta_hat) == (1.0, 0.0, 0.0)

    def test_boundary_is_shell(self):
        cb = Codebook([[0.0], [10.0]])
        # min distance exactly delta0/2: strict < pushes it out of the core
        _, d = full_search([5.0], cb)
        assert region_fractions([d], cb.delta0, 6.0) == (0.0, 1.0, 0.0)

    def test_beyond_threshold(self):
        cb = Codebook([[0.0], [10.0]])
        _, d = full_search([30.0], cb)
        assert region_fractions([d], cb.delta0, 6.0) == (0.0, 0.0, 1.0)


class TestChooseDeltaHat:
    def test_zeros_clamp_to_half_delta0(self):
        cb = Codebook([[0.0], [10.0]])
        sample = np.array([[0.0], [10.0], [0.0]])
        got = choose_delta_hat(cb, sample, percentile=99)
        assert got == np.nextafter(5.0, math.inf)

    def test_nearest_rank_percentile(self):
        # delta0/2 = 0.1 keeps the clamp out of the way; nearest dists are 1..100
        cb = Codebook([[0.0], [-0.2]])
        sample = np.arange(1, 101, dtype=np.float64)[:, None]
        assert choose_delta_hat(cb, sample, percentile=99) == 99.0
        assert choose_delta_hat(cb, sample, percentile=100) == 100.0

    def test_monotone_in_percentile(self):
        rng = np.random.default_rng(53)
        cb = Codebook(rng.uniform(0, 100, size=(8, 2)))
        sample = rng.uniform(0, 100, size=(200, 2))
        vals = [choose_delta_hat(cb, sample, percentile=p) for p in (50, 75, 90, 99, 100)]
        assert vals == sorted(vals)

    def test_empty_sample_rejected(self):
        cb = Codebook([[0.0], [10.0]])
        with pytest.raises(ValueError, match="non-empty"):
            choose_delta_hat(cb, np.empty((0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN row used to give the delta0/2 floor at percentile 100, an inf row inf
        cb = grid_codebook(64)
        sample = clustered_dataset(cb, 0.6 * cb.delta0, 50, seed=2)
        sample[17, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            choose_delta_hat(cb, sample, percentile=100)

    @pytest.mark.parametrize("percentile", [0, -5, 100.5, math.nan])
    def test_bad_percentile_rejected_before_the_pass(self, monkeypatch, percentile):
        cb = grid_codebook(64)
        sample = clustered_dataset(cb, 0.6 * cb.delta0, 50, seed=2)

        def no_pass(queries, vectors, radius):
            raise AssertionError("a distance pass ran before the percentile check")

        monkeypatch.setattr(kernels, "window_tiles", no_pass)
        with pytest.raises(ValueError, match="percentile"):
            choose_delta_hat(cb, sample, percentile=percentile)

    def test_nearest_distances_is_every_rows_nearest(self):
        cb = grid_codebook(64)
        base = clustered_dataset(cb, 0.6 * cb.delta0, 100, seed=3)
        sample = np.vstack([base, base[::-1], base[:7]])
        want = [full_search(x, cb)[1] for x in sample]
        assert nearest_distances(cb, sample).tolist() == want

    @pytest.mark.parametrize("percentile", [1, 50, 99, 100])
    def test_equals_the_full_sample_percentile(self, percentile):
        # the pass over distinct rows, gathered back, gives every row's distance
        cb = grid_codebook(64)
        rng = np.random.default_rng(8)
        base = clustered_dataset(cb, 0.6 * cb.delta0, 300, seed=8)
        sample = np.vstack([base, base[rng.integers(0, 300, size=900)]])[rng.permutation(1200)]
        _, nearest = kernels.nearest_many(sample, cb.vectors)
        want = delta_hat_from_nearest(nearest, cb.delta0, percentile)
        assert choose_delta_hat(cb, sample, percentile=percentile) == want


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(delta_hat=0.0)
        with pytest.raises(ValueError):
            EncoderConfig(delta_hat=-1.0)

    def test_defaults(self):
        cfg = EncoderConfig(delta_hat=1.0)
        assert cfg.master_seed == 0
        assert sub2_budget(64) == 24  # ceil(3 * sqrt(64))

    @pytest.mark.parametrize("seed", [1.5, -1, "1", None, True], ids=repr)
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            EncoderConfig(delta_hat=1.0, master_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert EncoderConfig(delta_hat=1.0, master_seed=np.int64(7)).master_seed == 7
