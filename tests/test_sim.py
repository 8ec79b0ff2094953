import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bgev.sim as sim_mod
from bgev import BgevParams, InfeasibleStartError, SimConfig, fit_mle, log_likelihood, quantile, run_cell, run_suite, sample
from bgev.likelihood import kernel, log_density_terms
from bgev.mle import fit_mle_rows
from bgev.sim import CSV_HEADER, SimCellError, load_suite_config, reports_to_csv, reports_to_table, run_cells

CELL = SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0), n=100, m=12, seed=5)


def test_report_moment_identity():
    rep = run_cell(CELL)
    for k in ("xi", "mu", "delta"):
        # mse = variance + bias^2 implies mse >= bias^2 up to arithmetic slack
        assert rep.mse[k] >= rep.bias[k] ** 2 - 1e-12
        assert rep.mean[k] == pytest.approx(
            getattr(CELL.truth, k) + rep.bias[k], rel=1e-12, abs=1e-12
        )


def test_single_replicate_custom_start_well_formed():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    cfg = SimConfig(truth=truth, n=5000, m=1, seed=3)
    rep = run_cell(cfg)
    assert rep.replicates_used == 1 and rep.failures == 0
    for k in ("xi", "mu", "delta"):
        assert abs(rep.bias[k]) < 0.1  # estimator noise only at n=5000


def test_determinism_identical_csv():
    a = reports_to_csv([run_cell(CELL)])
    b = reports_to_csv([run_cell(CELL)])
    assert a == b
    assert a.startswith(CSV_HEADER)


def test_parallel_serial_agreement():
    cells = [
        CELL,
        SimConfig(truth=BgevParams(xi=1.0, mu=-1.0, sigma=1.0, delta=0.0), n=100, m=10, seed=9),
    ]
    serial, err_s = run_suite(cells, parallelism=1)
    parallel, err_p = run_suite(cells, parallelism=2)
    assert not err_s and not err_p
    assert reports_to_csv(serial) == reports_to_csv(parallel)


def test_parallelism_never_exceeds_the_cell_count(monkeypatch):
    # a pool starts all its workers up front, so it is asked for no more
    # than there are cells; the fake pool runs each cell in-process
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cells = [replace(CELL, m=3, seed=s) for s in range(3)]
    serial, _ = run_suite(cells)
    for parallelism, expect in ((64, [3]), (2, [2]), (1, [])):
        sizes.clear()
        reports, errors = run_suite(cells, parallelism=parallelism)
        assert sizes == expect and not errors
        assert reports_to_csv(reports) == reports_to_csv(serial)
    sizes.clear()
    run_suite(cells[:1], parallelism=8)  # one cell runs in this process
    assert sizes == []


@pytest.mark.parametrize("parallelism", [0, -3])
def test_run_suite_rejects_parallelism_below_one(parallelism):
    with pytest.raises(ValueError, match=f"parallelism must be >= 1, got {parallelism}"):
        run_suite([CELL], parallelism=parallelism)


def test_single_cell_suite_equals_run_cell():
    suite, errors = run_suite([CELL])
    assert not errors
    assert reports_to_csv(suite) == reports_to_csv([run_cell(CELL)])


def test_failure_budget_enforced(monkeypatch):
    # every replicate's fit reports an infeasible start
    def always_diverges(x, starts, fixed=None):
        return [InfeasibleStartError("forced failure") for _ in starts]

    monkeypatch.setattr(sim_mod, "fit_mle_rows", always_diverges)
    with pytest.raises(SimCellError):
        run_cell(CELL)
    # the suite runner contains the damage and reports it
    reports, errors = run_suite([CELL])
    assert reports == [None]
    assert len(errors) == 1 and "replicates failed" in errors[0][1]


def test_unexpected_fit_error_propagates(monkeypatch):
    # only infeasible starts and inadmissible parameters count as replicate
    # failures; any other ValueError is a defect and must surface
    def broken(x, starts, fixed=None):
        raise ValueError("programming error")

    monkeypatch.setattr(sim_mod, "fit_mle_rows", broken)
    with pytest.raises(ValueError, match="programming error"):
        run_cell(CELL)
    reports, errors = run_suite([CELL])
    assert reports == [None]
    assert errors == [(0, "programming error")]


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(truth=CELL.truth, n=4, m=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(truth=CELL.truth, n=100, m=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(truth=CELL.truth, n=100, m=10, seed=-1)


def test_table_rendering_contains_cells():
    rep = run_cell(CELL)
    table = reports_to_table([rep])
    assert "0.5" in table and "100" in table
    assert "wall" not in table.lower()  # timing must stay out of deterministic artifacts


def test_load_suite_config_cells_and_grid(tmp_path):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(
        """
[cell one]
xi = 0.5
mu = 0
delta = 2
n = 100
m = 7
seed = 11

[grid main]
xi = 1, 0.5
mu = -1, 0, 1
delta = 0, 2, 4
n = 50, 100
m = 3
seed = 100
""",
        encoding="utf-8",
    )
    cells = load_suite_config(str(cfg))
    assert len(cells) == 1 + 2 * 3 * 3 * 2
    assert cells[0].m == 7 and cells[0].seed == 11
    # expansion order is xi-outer ... n-inner with consecutive seeds
    assert cells[1].seed == 100 and cells[2].seed == 101
    assert cells[1].truth.xi == 1.0 and cells[1].n == 50 and cells[2].n == 100
    assert cells[-1].truth.xi == 0.5 and cells[-1].truth.mu == 1.0 and cells[-1].truth.delta == 4.0


def test_full_study_grid_expands_to_180_cells(tmp_path):
    cfg = tmp_path / "full_study.ini"
    cfg.write_text(
        """
[grid full]
xi = 1, 0.5, 0.25, -0.25, -0.5
mu = -1, 0, 1
delta = 0, 2, 4
n = 50, 100, 250, 1000
m = 100
seed = 0
""",
        encoding="utf-8",
    )
    cells = load_suite_config(str(cfg))
    assert len(cells) == 5 * 3 * 3 * 4 == 180
    seeds = [c.seed for c in cells]
    assert seeds == list(range(180))


def test_load_suite_config_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(FileNotFoundError):
        load_suite_config(str(missing))
    bad = tmp_path / "bad.ini"
    bad.write_text("[weird]\nxi = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_suite_config(str(bad))


def test_load_suite_config_names_missing_keys(tmp_path):
    cfg = tmp_path / "lacking.ini"
    cfg.write_text("[grid ok]\nxi = 1\nmu = 0\ndelta = 0\nn = 50\n\n[cell a]\nxi = 0.5\nmu = 0\nm = 4\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_suite_config(str(cfg))
    assert str(err.value) == f"{cfg}: [cell a] has no delta, n"


def test_cell_is_a_one_point_grid(tmp_path):
    cfg = tmp_path / "one.ini"
    body = "xi = 0.5\nmu = 0\ndelta = 2\nn = 100\nm = 7\nseed = 11\n"
    cfg.write_text(f"[cell a]\n{body}\n[grid b]\n{body}", encoding="utf-8")
    a, b = load_suite_config(str(cfg))
    assert a == b
    cfg.write_text("[cell a]\nxi = 0.5, 1\nmu = 0\ndelta = 2\nn = 100\n", encoding="utf-8")
    with pytest.raises(ValueError, match="one value per key"):
        load_suite_config(str(cfg))


# the mc_study cell whose replicate r = 2 has no interior maximum with sigma
# pinned: its fit is still climbing a ridge at the step cap
RUNAWAY = SimConfig(truth=BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5), n=50, m=20, seed=34009)
STUDY = SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0), n=250, m=20, seed=1)


def project_start(truth: BgevParams, shift: np.ndarray, lam: float) -> BgevParams:
    """The start of one replicate at shrink lam, in scalar arithmetic: the
    truth plus lam times the shift, delta kept 1e-6 above -1 and |xi| at
    least 1e-6 on the truth's side of 0."""
    xi = truth.xi + lam * shift[0]
    mu = truth.mu + lam * shift[1]
    delta = max(truth.delta + lam * shift[2], -1.0 + 1e-6)
    if abs(xi) < 1e-6:
        xi = 1e-6 if truth.xi > 0 else -1e-6
    return BgevParams(xi=xi, mu=mu, sigma=truth.sigma, delta=delta)


def start_alone(truth: BgevParams, x: np.ndarray, shift: np.ndarray) -> BgevParams:
    """The first of 40 halvings of the shift at which x is feasible, else
    the truth."""
    lam = 1.0
    for _ in range(40):
        cand = project_start(truth, shift, lam)
        if np.isfinite(log_likelihood(cand, x)):
            return cand
        lam *= 0.5
    return truth


def replicate_alone(cfg: SimConfig, r: int):
    """Replicate r of a cell drawn by ``sample``: its data and start shift."""
    rng = np.random.default_rng([cfg.seed, r])
    x = sample(cfg.n, cfg.truth, rng)
    return x, rng.random(3)


def per_replicate_fits(cfg: SimConfig):
    """fit_mle on each replicate alone, from the start run_cell gives it."""
    fits = []
    for r in range(cfg.m):
        x, shift = replicate_alone(cfg, r)
        fits.append(fit_mle(x, start_alone(cfg.truth, x, shift), {"sigma": cfg.truth.sigma}))
    return fits


@pytest.mark.parametrize("cfg", [RUNAWAY, STUDY], ids=["runaway", "study"])
def test_lockstep_cell_equals_per_replicate_fits(cfg):
    fits = per_replicate_fits(cfg)
    used = [f.theta_hat for f in fits if f.converged]
    est = np.array([[t.xi, t.mu, t.delta] for t in used])
    rep = run_cell(cfg)
    assert rep.failures == cfg.m - len(used)
    assert rep.replicates_used == len(used)
    truth = np.array([cfg.truth.xi, cfg.truth.mu, cfg.truth.delta])
    mean = est.mean(axis=0)
    assert [rep.mean[k] for k in ("xi", "mu", "delta")] == mean.tolist()
    assert [rep.mse[k] for k in ("xi", "mu", "delta")] == ((est - truth) ** 2).mean(axis=0).tolist()
    # and replicate by replicate, every field of the fit
    xs = np.array([sample(cfg.n, cfg.truth, np.random.default_rng([cfg.seed, r])) for r in range(cfg.m)])
    lockstep = fit_mle_rows(xs, [f.start for f in fits], {"sigma": cfg.truth.sigma})
    for alone, batched in zip(fits, lockstep):
        assert batched.theta_hat == alone.theta_hat
        assert batched.neg2loglik == alone.neg2loglik
        assert (batched.converged, batched.stop, batched.iterations, batched.n_eval) == (
            alone.converged, alone.stop, alone.iterations, alone.n_eval,
        )
        assert np.array_equal(batched.fim, alone.fim) and np.array_equal(batched.std_errors, alone.std_errors)


def test_drops_name_the_cause_and_stay_out_of_outputs():
    rep = run_cell(RUNAWAY)
    assert rep.failures == 1 and rep.drops == {"not_converged:step_cap": 1}
    clean = run_cell(STUDY)
    assert clean.failures == 0 and clean.drops == {}
    # a diagnostic like wall_time: no part of equality or of the output files
    assert rep == replace(rep, drops={}, wall_time=0.0)
    assert "step_cap" not in reports_to_csv([rep]) + reports_to_table([rep])


# perfbench's mc_study suite (perfbench/inputs.write_suite): four truths at
# three sizes, m = 20, cell seed 1000*s + idx at workload seed s
MC_STUDY = list(product(((1.0, -1.0, 0.0), (0.5, 0.0, 2.0), (-0.25, 0.0, 2.0), (0.25, 1.0, -0.5)), (50, 250, 1000)))


def test_mc_study_seeds_drop_only_the_runaway_replicate():
    # the optimizer's drop gate, 12,000 fits: over workload seeds 0-49 the
    # only replicate that drops is RUNAWAY's r = 2, which has no interior
    # maximum (test_fallback_when_likelihood_runs_off)
    cells = [
        SimConfig(truth=BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta), n=n, m=20, seed=1000 * s + idx)
        for s in range(50)
        for idx, ((xi, mu, delta), n) in enumerate(MC_STUDY)
    ]
    reports, errors = run_suite(cells)
    assert not errors
    assert {c.seed: r.drops for c, r in zip(cells, reports) if r.failures} == {RUNAWAY.seed: {"not_converged:step_cap": 1}}


# the suite of README's config example: a grid of five xi, three mu, three
# delta and four n, seeded 0-179 in xi-outer to n-inner order, and one
# more cell, each of 100 replicates
README_SUITE = [
    SimConfig(truth=BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta), n=n, m=100, seed=seed)
    for seed, (xi, mu, delta, n) in enumerate(
        product((1.0, 0.5, 0.25, -0.25, -0.5), (-1.0, 0.0, 1.0), (0.0, 2.0, 4.0), (50, 100, 250, 1000))
    )
] + [SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0), n=250, m=100, seed=999)]

# its drops by cell seed and cause since the trust-region run came in: 25
# step_cap and 6 no_ascent of 18,100 fits
README_SUITE_DROPS = {
    24: {"not_converged:step_cap": 10},
    28: {"not_converged:step_cap": 6},
    32: {"not_converged:step_cap": 8},
    104: {"not_converged:step_cap": 1},
    148: {"not_converged:no_ascent": 1},
    152: {"not_converged:no_ascent": 1},
    172: {"not_converged:no_ascent": 4},
}


def test_readme_suite_drops_no_more_than_before():
    # the optimizer's second drop gate: no cell of the README suite drops
    # more replicates for any cause than it did
    reports, errors = run_suite(README_SUITE)
    assert not errors
    for cfg, rep in zip(README_SUITE, reports):
        allowed = README_SUITE_DROPS.get(cfg.seed, {})
        assert all(count <= allowed.get(cause, 0) for cause, count in rep.drops.items()), (cfg.seed, rep.drops)


def test_drops_count_infeasible_starts(monkeypatch):
    def two_errors(x, starts, fixed=None):
        fits = fit_mle_rows(x, starts, fixed)
        fits[0] = fits[5] = InfeasibleStartError("forced")
        return fits

    monkeypatch.setattr(sim_mod, "fit_mle_rows", two_errors)
    rep = run_cell(CELL)
    assert rep.failures == 2 and rep.replicates_used == CELL.m - 2
    assert rep.drops == {"infeasible_start": 2}


# cells of two sample sizes and two sigmas with different m, and RUNAWAY
# with its step_cap drop: run_suite fits them in four batches, two shared
MIXED = [
    RUNAWAY,
    SimConfig(truth=BgevParams(xi=1.0, mu=-1.0, sigma=2.0, delta=0.0), n=50, m=6, seed=3),
    SimConfig(truth=BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=2.0), n=80, m=5, seed=4),
    SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0), n=50, m=9, seed=7),
    SimConfig(truth=BgevParams(xi=0.25, mu=1.0, sigma=2.0, delta=-0.5), n=80, m=4, seed=8),
    SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=2.0, delta=2.0), n=50, m=7, seed=9),
]


@pytest.fixture(scope="module")
def mixed_alone():
    return [run_cell(c) for c in MIXED]


def test_batches_group_by_size_and_sigma(monkeypatch):
    assert sim_mod._batches(MIXED, 1) == [[0, 3], [1, 5], [2], [4]]
    assert sim_mod._batches(MIXED, 2) == [[0], [3], [1], [5], [2], [4]]
    seven = [replace(CELL, seed=s) for s in range(7)]
    assert sim_mod._batches(seven, 3) == [[0, 1], [2, 3], [4, 5, 6]]
    # the cap cuts a group into contiguous runs: counting each replicate as
    # n + _REPLICATE_VALUES values, cells 0 and 3 hold 8874 together and
    # cells 1 and 5 hold 3978
    monkeypatch.setattr(sim_mod, "_BATCH_VALUES", 4000)
    assert sim_mod._batches(MIXED, 1) == [[0], [3], [1, 5], [2], [4]]


def test_batched_suite_equals_cells_alone(mixed_alone):
    reports, errors = run_suite(MIXED)
    assert not errors
    for rep, alone in zip(reports, mixed_alone):
        assert rep == alone and rep.drops == alone.drops
    assert reports[0].drops == {"not_converged:step_cap": 1}


def test_batched_suite_bytes_serial_parallel_and_sliced(monkeypatch, mixed_alone):
    expect = reports_to_csv(mixed_alone)
    for parallelism in (1, 2):
        reports, errors = run_suite(MIXED, parallelism=parallelism)
        assert not errors and reports_to_csv(reports) == expect
    monkeypatch.setattr(sim_mod, "_BATCH_VALUES", 300)  # every cell alone
    reports, errors = run_suite(MIXED)
    assert not errors and reports_to_csv(reports) == expect
    assert [r.drops for r in reports] == [r.drops for r in mixed_alone]


def test_batch_wall_time_is_shared():
    a, b = run_cells([MIXED[1], MIXED[5]])
    assert a.wall_time == b.wall_time > 0.0
    with pytest.raises(ValueError, match="share n and sigma"):
        run_cells([MIXED[0], MIXED[1]])


def real_quantile_except(bad_truth, replacement):
    def fake(q, truth):
        x = quantile(q, truth)
        return replacement(x) if truth == bad_truth else x

    return fake


def raise_draw(x):
    raise ArithmeticError("draw failed")


def nan_draw(x):
    x[3, 5] = np.nan
    return x


@pytest.mark.parametrize(
    "replacement, message",
    [(raise_draw, "draw failed"), (nan_draw, "sample contains non-finite values")],
    ids=["draw-raises", "non-finite-sample"],
)
def test_one_bad_draw_fails_its_cell_alone(monkeypatch, mixed_alone, replacement, message):
    bad = MIXED[3].truth  # shares its batch with RUNAWAY
    monkeypatch.setattr(sim_mod, "quantile", real_quantile_except(bad, replacement))
    with pytest.raises(Exception, match=message):
        run_cell(MIXED[3])
    reports, errors = run_suite(MIXED)
    assert errors == [(3, message)]
    assert reports[3] is None
    assert reports_to_csv(reports) == reports_to_csv([r for i, r in enumerate(mixed_alone) if i != 3])
    assert reports[0].drops == mixed_alone[0].drops


def test_failure_budget_is_per_cell_in_a_batch(monkeypatch, mixed_alone):
    # the first five replicates of the shared fit are RUNAWAY's, its
    # step_cap one among them: 5 of 20 is over the budget, while the cell
    # batched after it keeps its bytes
    def five_errors(x, starts, fixed=None):
        fits = fit_mle_rows(x, starts, fixed)
        if len(x) == RUNAWAY.m + MIXED[3].m:
            fits[:5] = [InfeasibleStartError("forced")] * 5
        return fits

    monkeypatch.setattr(sim_mod, "fit_mle_rows", five_errors)
    reports, errors = run_suite(MIXED)
    assert [i for i, _ in errors] == [0]
    assert errors[0][1].startswith("5/20 replicates failed (budget 20%) for cell truth=")
    assert reports[1:] == mixed_alone[1:]


def test_shared_fit_error_fails_every_cell_of_its_batch(monkeypatch, mixed_alone):
    def broken_for_sigma_2(x, starts, fixed=None):
        if fixed["sigma"] == 2.0:
            raise ValueError("programming error")
        return fit_mle_rows(x, starts, fixed)

    monkeypatch.setattr(sim_mod, "fit_mle_rows", broken_for_sigma_2)
    reports, errors = run_suite(MIXED)
    # in cell-index order, though the n = 80 batch with cell 4 runs last
    assert errors == [(1, "programming error"), (4, "programming error"), (5, "programming error")]
    assert [r for i, r in enumerate(reports) if i not in (1, 4, 5)] == [mixed_alone[i] for i in (0, 2, 3)]


@pytest.mark.parametrize(
    "cfg",
    [
        RUNAWAY,
        SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0), n=50, m=6, seed=2),  # ** 0.5 is a sqrt
        SimConfig(truth=BgevParams(xi=1.0, mu=-1.0, sigma=2.0, delta=0.0), n=80, m=4, seed=3),
        SimConfig(truth=BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=2.0), n=250, m=3, seed=4),
    ],
    ids=["delta<0", "delta=1", "delta=0", "xi<0"],
)
def test_bulk_draw_equals_sample_per_replicate(cfg):
    # each replicate's stream gives its uniforms and then its shift, and
    # the whole cell's quantile map is bitwise sample's row by row
    xs = np.empty((cfg.m, cfg.n))
    shifts = sim_mod._draw(cfg, xs)
    for r in range(cfg.m):
        x, shift = replicate_alone(cfg, r)
        assert xs[r].tobytes() == x.tobytes() and shifts[r].tobytes() == shift.tobytes()


def test_batched_starts_equal_each_cell_alone():
    # mixed truths in one call, with two made-up replicates: a shift that
    # puts xi exactly at 0, so the start is clamped to -1e-6, and a sample
    # with an observation at the origin, infeasible at every delta != 0,
    # whose 40 shrinks all fail so that its start is the truth
    cells = [MIXED[0], MIXED[2], MIXED[3], replace(MIXED[2], m=2, seed=11)]
    blocks = [np.empty((c.m, 50)) for c in cells]
    shifts = [sim_mod._draw(replace(c, n=50), b) for c, b in zip(cells, blocks)]
    shifts[3][0] = [0.25, 0.0, 0.0]  # xi = -0.25 + 0.25
    blocks[3][1, 7] = 0.0
    alone = [sim_mod._starts([c.truth] * c.m, b, s) for c, b, s in zip(cells, blocks, shifts)]
    truths = [c.truth for c in cells for _ in range(c.m)]
    batched = sim_mod._starts(truths, np.concatenate(blocks), np.concatenate(shifts))
    assert batched == [s for cell in alone for s in cell]
    scalar = [start_alone(t, x, s) for t, x, s in zip(truths, np.concatenate(blocks), np.concatenate(shifts))]
    as_bytes = lambda starts: np.array([[p.xi, p.mu, p.sigma, p.delta] for p in starts]).tobytes()  # noqa: E731
    assert as_bytes(batched) == as_bytes(scalar)
    assert batched[-2].xi == -1e-6 and batched[-1] is cells[3].truth


FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# far-tail observations: at the float range's ends, and subnormal, where
# |x|**delta overflows for delta near -1
FAR = [1e300, -1e300, 1e154, -3e200, 1e-310, -1e-320, 5e-324, 1e-200]

xi_sizes = st.one_of(st.just(sim_mod._XI_MARGIN), st.floats(math.log(1e-6), math.log(5.0)).map(math.exp))
truths = st.builds(
    BgevParams,
    xi=st.tuples(st.sampled_from([-1.0, 1.0]), xi_sizes).map(lambda sv: sv[0] * sv[1]),
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(math.log(0.2), math.log(5.0)).map(math.exp),
    delta=st.one_of(st.floats(-1.0, 3.0, exclude_min=True), st.sampled_from([-1.0 + 1e-6, -0.999, -0.99, -0.96])),
)
# an edit puts a far-tail value, an exact zero of either sign, or a tie
# with another observation at an index
edits = st.lists(
    st.tuples(st.integers(0, 39), st.one_of(st.sampled_from([*FAR, 0.0, -0.0]), st.integers(0, 39))), max_size=4
)


@st.composite
def replicates(draw):
    """A truth, a sample drawn from it with edits, and a start shift."""
    truth = draw(truths)
    n = draw(st.integers(8, 40))
    with np.errstate(all="ignore"):
        x = np.clip(sample(n, truth, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))), -1e300, 1e300)
    for i, v in draw(edits):
        x[i % n] = v if isinstance(v, float) else x[v % n]
    shift = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    return truth, x, shift


def overflow_edge(p: BgevParams, x: np.ndarray) -> bool:
    """Whether every term of the log density of x at p is finite while the
    log-likelihood is not: a sum over the sample overflowed."""
    q = np.empty((3, 1, x.size))
    with np.errstate(all="ignore"):
        log_density_terms(np.array([[p.mu, p.sigma, p.delta, p.xi]]), x[None], q)
    return bool(np.isfinite(q).all()) and not np.isfinite(log_likelihood(p, x))


@FUZZ
@given(replicates())
def test_screen_decides_feasibility_as_the_whole_sample(case):
    # at every shrink step a candidate that the whole sample admits passes
    # the screen of three observations, and one that passes is admitted
    # but where a sum of finite terms overflows
    truth, x, shift = case
    cands = [project_start(truth, shift, 0.5**k) for k in range(40)]
    theta = np.array([[c.mu, c.sigma, c.delta, c.xi] for c in cands])
    ends = sim_mod._screen(x[None])
    rest = x.tolist()
    for v in ends[0].tolist():
        rest.remove(v)  # three observations, each of its own place
    assert ends.min() == x.min() and ends.max() == x.max() and np.abs(ends).min() == np.abs(x).min()
    screen = np.isfinite(kernel(theta, np.broadcast_to(ends, (40, 3)), 0)).tolist()
    for cand, passes in zip(cands, screen):
        full = bool(np.isfinite(log_likelihood(cand, x)))
        assert passes or not full
        assert full or not passes or overflow_edge(cand, x)


@FUZZ
@given(replicates())
def test_screened_start_equals_the_start_alone(case):
    truth, x, shift = case
    (got,) = sim_mod._starts([truth], x[None], shift[None])
    want = start_alone(truth, x, shift)
    as_bytes = lambda p: np.array([p.xi, p.mu, p.sigma, p.delta]).tobytes()  # noqa: E731
    assert as_bytes(got) == as_bytes(want) or overflow_edge(got, x)


def test_screen_takes_the_least_magnitude_besides_the_extremes():
    # min, max and the observation nearest the origin, each at its own
    # place: a subnormal one overflows |x|**delta near delta = -1, and an
    # exact zero is infeasible at every delta != 0
    x = np.array([[0.5, -1.0, 1e-320, 2.0, 0.25, 3.0, -0.5, 1.0]])
    assert sim_mod._screen(x).tolist() == [[-1.0, 1e-320, 3.0]]
    near = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=-0.99)
    assert log_likelihood(near, x[0]) == -np.inf and log_likelihood(near, sim_mod._screen(x)[0]) == -np.inf
    assert log_likelihood(near, [-1.0, 3.0, -1.0]) > -np.inf  # the extremes alone miss it
    x[0, 4] = 0.0
    assert sim_mod._screen(x).tolist() == [[-1.0, 0.0, 3.0]]
    ties = np.full((1, 8), 2.0)
    assert sim_mod._screen(ties).tolist() == [[2.0, 2.0, 2.0]]


def test_starts_evaluate_no_full_sample(monkeypatch):
    # the starts of a suite pass are screened on three observations per
    # replicate; the fits' own kernel calls go through bgev.mle
    seen = []

    def spy(theta, x, order=2, rows=None):
        seen.append((order, np.shape(x)[1]))
        return kernel(theta, x, order, rows)

    monkeypatch.setattr(sim_mod, "kernel", spy)
    reports, errors = run_suite(MIXED[:3])
    assert not errors and seen
    assert all(order == 0 and cols <= 3 for order, cols in seen)


# the results.csv text of a small mixed suite, one cell with a step_cap
# drop, as the trust-region optimizer writes it with the kernel's one
# product: a change that claims to keep every fit must keep these bytes
GOLDEN_CELLS = [
    replace(RUNAWAY, m=5),
    SimConfig(truth=BgevParams(xi=1.0, mu=-1.0, sigma=1.0, delta=0.0), n=250, m=5, seed=1),
    SimConfig(truth=BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0), n=50, m=5, seed=2),
    SimConfig(truth=BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=2.0), n=250, m=5, seed=3),
]
GOLDEN_CSV = """\
xi,mu,sigma,delta,n,m,seed,mean_xi,mean_mu,mean_delta,bias_xi,bias_mu,bias_delta,mse_xi,mse_mu,mse_delta,failures
0.25,1,1,-0.5,50,5,34009,0.082987385445906059,1.0752591572609747,-0.53045595572052173,-0.16701261455409394,0.075259157260974652,-0.030455955720521732,0.058799877126549452,0.017029033573797422,0.0043080780660308239,1
1,-1,1,0,250,5,1,1.0104372204045065,-0.99309178347094273,-0.0095428396073464795,0.010437220404506453,0.006908216529057265,-0.0095428396073464795,0.0013703341237546792,0.0025708575418118369,0.004511415485853096,0
0.5,0,1,1,50,5,2,0.62184643551435559,0.025328269799982012,1.1337964974526433,0.12184643551435559,0.025328269799982012,0.13379649745264333,0.085635903344597336,0.014821274385161513,0.12903318742890599,0
-0.25,0,1,2,250,5,3,-0.27627372812791989,-0.015673673346109328,1.9085206402412176,-0.026273728127919893,-0.015673673346109328,-0.091479359758782408,0.0034791890505513718,0.0050018400954821365,0.018683522856528682,0
"""


def test_golden_suite_bytes():
    reports, errors = run_suite(GOLDEN_CELLS)
    assert not errors and reports[0].drops == {"not_converged:step_cap": 1}
    assert reports_to_csv(reports) == GOLDEN_CSV
