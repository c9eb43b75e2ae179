"""Smoke and shape tests for every experiment runner at tiny scale.

These are integration tests: each runner must execute end to end,
produce the declared table shape, and (where cheap to check) satisfy the
paper's qualitative claims. ``PAPER_CLAIMS`` checks each paper table's
direction claims once more at ``BENCH_SCALE``, where they hold with
more margin than at ``TINY``.
"""

import functools

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import REGISTRY, get_runner, list_experiments
from repro.sim import BENCH_SCALE

TINY = 0.012


@functools.lru_cache(maxsize=None)
def tiny_sensitivity():
    """The slowest runner (a 14-replay sweep): run it once per session,
    shared by the smoke test and the qualitative-claim test."""
    return get_runner("sensitivity")(scale=TINY, seed=0)


@pytest.mark.parametrize("experiment_id", list_experiments())
def test_runner_smoke(experiment_id):
    """Every registered runner executes at tiny scale and returns a
    well-formed :class:`ExperimentResult` -- no exceptions, no skips."""
    runner = get_runner(experiment_id)
    kwargs = {"scale": TINY} if experiment_id not in ("tab6", "tab7") else {
        "scale": 0.15
    }
    if experiment_id == "fig7":
        kwargs["apps"] = [3, 19]
    result = (
        tiny_sensitivity()
        if experiment_id == "sensitivity"
        else runner(seed=0, **kwargs)
    )
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.rows, experiment_id
    assert result.headers, experiment_id
    for row in result.rows:
        assert len(row) == len(result.headers), experiment_id
    rendered = result.render()
    assert result.experiment_id in rendered


def test_registry_covers_every_paper_artifact():
    expected = {
        "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
        "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7",
        "sensitivity", "cluster_scaling", "cluster_rebalance",
        "cluster_faults", "cluster_serve", "serve_chaos",
    }
    assert set(REGISTRY) == expected


def test_unknown_runner_rejected():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        get_runner("fig99")


def fig1_hit_rate_curve(result):
    rates = [row[1] for row in result.rows]
    # Non-decreasing curve reaching a high plateau (paper: concave).
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.8
    assert "concave" in result.notes


def fig2_default_vs_solver(result):
    assert len(result.rows) == 20
    by_app = {row[0]: row for row in result.rows}
    # Imbalanced applications gain from the solver...
    assert by_app["app06"][4] > 0.02
    # ...and the cliff application 19 is hurt by it (paper: 99.5->74.7).
    assert by_app["app19"][4] < 0.0


def fig3_cliff_curve(result):
    assert "cliff regions" in result.notes
    assert "NONE" not in result.notes
    # The hull dominates the raw curve somewhere (a genuine cliff).
    gaps = [row[2] - row[1] for row in result.rows]
    assert max(gaps) > 0.02


def fig4_talus_partitioning(result):
    # The paper's exact 957/7043-item worked example.
    paper = next(r for r in result.rows if r[0] == "paper-example")
    assert round(paper[4], 2) == 0.48
    assert abs(paper[5] - 957) < 1
    assert abs(paper[6] - 7043) < 1
    synthetic = [r for r in result.rows if r[0] != "paper-example"]
    if synthetic:  # cliff detected in the synthetic curve
        row = synthetic[0]
        assert row[8] > row[7]  # hull beats raw inside the cliff


def fig6_cliffhanger(result):
    assert len(result.rows) == 20
    default_mean = sum(r[2] for r in result.rows) / 20
    cliffhanger_mean = sum(r[4] for r in result.rows) / 20
    # Paper: Cliffhanger improves the mean hit rate; at this scale we
    # require it not to regress and to win on the solver-hostile app 19.
    assert cliffhanger_mean >= default_mean - 0.005
    by_app = {r[0]: r for r in result.rows}
    assert by_app["app19"][4] >= by_app["app19"][3]  # beats the solver


def fig7_memory_savings(result):
    assert {row[0] for row in result.rows} == {"app02", "app03", "app19"}
    # Savings are a fraction in [0, 0.75] by construction of the grid.
    for row in result.rows:
        assert 0.0 <= row[3] <= 0.75


def fig8_memory_timeline(result):
    assert len(result.rows) >= 10
    slab_columns = result.headers[1:]
    assert len(slab_columns) >= 3  # app05 spreads over several classes
    # Memory actually moves over the week: some series is non-constant.
    moved = False
    for col in range(1, len(result.headers)):
        series = [row[col] for row in result.rows]
        if max(series) - min(series) > 1e-6:
            moved = True
    assert moved


def fig9_early_and_stable(result):
    """Mean window hit rate of the first three active windows, and of
    the stable (pre-burst) windows, 45-70% of the way through."""
    active = [row for row in result.rows if row[1] > 0]
    assert len(active) >= 10
    early = sum(r[2] for r in active[:3]) / 3
    mid = active[int(len(active) * 0.45): int(len(active) * 0.7)]
    return early, sum(r[2] for r in mid) / max(1, len(mid))


def fig9_convergence(result):
    early, stable = fig9_early_and_stable(result)
    # The stable windows do not fall below the earliest ones. This is
    # not the paper's climb, which test_fig9_climbs_as_in_the_paper asks
    # for and which does not hold.
    assert stable >= early - 0.05


def table1_slab_misses(result):
    apps = {row[0] for row in result.rows}
    assert apps == {"app04", "app06"}
    # GET shares per app sum to ~100%.
    for app in apps:
        total = sum(row[2] for row in result.rows if row[0] == app)
        assert abs(total - 100.0) < 1.0


def table2_lsm(result):
    assert [row[0] for row in result.rows] == ["app03", "app04", "app05"]
    # LSM at 100% utilization should not lose to the slab default on
    # average (paper: it wins, modestly).
    lsm_mean = sum(r[2] for r in result.rows) / 3
    default_mean = sum(r[1] for r in result.rows) / 3
    assert lsm_mean >= default_mean - 0.02


def table3_cross_app(result):
    assert len(result.rows) == 5
    # Memory percentages sum to ~100 before and after.
    assert abs(sum(r[1] for r in result.rows) - 100.0) < 1.0
    assert abs(sum(r[2] for r in result.rows) - 100.0) < 2.0
    # The under-provisioned app 2 should gain memory (paper: 4% -> 13%).
    app2 = next(r for r in result.rows if r[0] == "app02")
    assert app2[2] >= app2[1]


def table4_combined_ablation(result):
    total = next(row for row in result.rows if row[0] == "total")
    default, cliff_only, hill_only, combined = total[2:6]
    # Paper ordering: 37.3% < 45.5% < 70.3% < 72.1%.
    assert cliff_only > default
    assert combined > default
    assert combined >= cliff_only - 0.02


def table5_eviction_schemes(result):
    headers = result.headers
    lru = headers.index("lru")
    facebook = headers.index("facebook")
    arc = headers.index("arc")
    cliffhanger = headers.index("cliffhanger+lru")
    for row in result.rows:
        # Mid-insertion keeps one-hit wonders off the hot half.
        assert row[facebook] >= row[lru]
        # ARC gives no improvement on these traces (paper section 5.5).
        assert row[arc] <= row[lru] + 0.03
        # Cliffhanger does not regress vs plain LRU.
        assert row[cliffhanger] >= row[lru] - 0.02


def table6_latency_overhead(result):
    assert len(result.rows) == 4  # 2 algorithms x GET/SET
    for row in result.rows:
        algorithm, op, hit_pct, miss_pct = row
        # Paper regime: low single digits; hits cheaper than misses.
        assert 0.0 <= hit_pct <= miss_pct + 1.0
        assert miss_pct < 15.0


def table7_throughput_slowdown(result):
    assert len(result.rows) == 3
    slowdowns = [row[2] for row in result.rows]
    # Paper: 1.5% / 3% / 3.7% -- small, and growing with SET share.
    assert all(0.0 <= s < 15.0 for s in slowdowns)
    assert slowdowns[-1] >= slowdowns[0] - 0.5


def sensitivity_sweep(result):
    assert len(result.rows) >= 12
    # All configurations produce sane hit rates; the paper's 1-4KB
    # credits should be competitive with the best configuration found.
    rates = {(row[0], row[1]): row[3] for row in result.rows[:-2]}
    best = max(rates.values())
    small_credit_best = max(
        rate for (credit, _), rate in rates.items() if credit <= 4096
    )
    assert small_credit_best >= best - 0.08


#: ``(runner, kwargs, check)``: one paper table's direction claims at
#: ``BENCH_SCALE`` and seed 0 unless ``kwargs`` says otherwise (the
#: fig7 subset: the full 20-app sweep replays the trace dozens of times).
PAPER_CLAIMS = [
    ("fig1", {}, fig1_hit_rate_curve),
    ("fig2", {}, fig2_default_vs_solver),
    ("fig3", {}, fig3_cliff_curve),
    ("fig4", {}, fig4_talus_partitioning),
    ("fig6", {}, fig6_cliffhanger),
    ("fig7", {"apps": [2, 3, 19]}, fig7_memory_savings),
    ("fig8", {}, fig8_memory_timeline),
    ("fig9", {}, fig9_convergence),
    ("tab1", {}, table1_slab_misses),
    ("tab2", {}, table2_lsm),
    ("tab3", {}, table3_cross_app),
    ("tab4", {}, table4_combined_ablation),
    ("tab5", {}, table5_eviction_schemes),
    ("tab6", {"scale": 0.2}, table6_latency_overhead),
    ("tab7", {"scale": 0.2}, table7_throughput_slowdown),
    ("sensitivity", {"scale": 0.02}, sensitivity_sweep),
]


@pytest.mark.parametrize(
    ("experiment_id", "kwargs", "check"),
    PAPER_CLAIMS,
    ids=[experiment_id for experiment_id, _, _ in PAPER_CLAIMS],
)
def test_paper_claims(experiment_id, kwargs, check):
    result = get_runner(experiment_id)(
        **{"scale": BENCH_SCALE, "seed": 0, **kwargs}
    )
    assert result.rows, experiment_id
    check(result)


@pytest.mark.xfail(
    strict=True,
    reason="fig9 does not climb: README.md, 'Paper claims that do not hold'",
)
def test_fig9_climbs_as_in_the_paper():
    """The paper's fig9 climbs from ~0.70 to ~0.997 as the pointers find
    the cliff: early windows below 0.8, the stable ones at least 0.1
    above them. Strict, so it turns red once fig9 climbs."""
    early, stable = fig9_early_and_stable(
        get_runner("fig9")(scale=BENCH_SCALE, seed=0)
    )
    assert early < 0.8
    assert stable >= early + 0.1


class TestQualitativeClaims:
    def test_fig4_reproduces_papers_arithmetic(self):
        result = get_runner("fig4")(scale=TINY, seed=0)
        paper_row = next(r for r in result.rows if r[0] == "paper-example")
        assert round(paper_row[4], 2) == 0.48  # request ratio
        assert abs(paper_row[5] - 957) < 1.0  # left physical queue
        assert abs(paper_row[6] - 7043) < 1.0  # right physical queue

    def test_tab4_ablation_ordering(self):
        result = get_runner("tab4")(scale=0.03, seed=0)
        total = next(r for r in result.rows if r[0] == "total")
        default, cliff_only, hill_only, combined = total[2:6]
        assert cliff_only > default
        assert combined > default

    def test_sensitivity_large_credits_degrade(self):
        # Section 5.3: very large credits oscillate; tiny-scale run of
        # the real sweep (this used to be a permanent skip).
        result = tiny_sensitivity()
        by_credit = {}
        for credit, shadow, resize, hit_rate in result.rows:
            if resize:
                by_credit.setdefault(credit, []).append(hit_rate)
        small = max(max(rates) for c, rates in by_credit.items() if c <= 4096)
        huge = max(by_credit[max(by_credit)])
        assert huge < small

    def test_cluster_rebalance_beats_static_split(self):
        result = get_runner("cluster_rebalance")(scale=TINY, seed=0)
        rows = {row[0]: row for row in result.rows}
        static_hit = rows["static"][2]
        for policy in ("shadow", "load"):
            assert rows[policy][2] > static_hit, policy
            assert rows[policy][4] > 0  # transfers actually happened
            assert rows[policy][5] > 1.0  # hot shard above its even share

    def test_cluster_faults_crash_costs_hits_and_recovers(self):
        result = get_runner("cluster_faults")(scale=TINY, seed=0)
        rows = {row[0]: row for row in result.rows}
        healthy_hit = rows["healthy"][1]
        downtime = rows["static"][3]
        assert downtime > 0
        for name in ("static", "rebalance"):
            assert rows[name][1] < healthy_hit, name  # the fault costs hits
            assert rows[name][3] == downtime, name
            # Recovery is finite and cannot precede the restart.
            assert rows[name][4] >= downtime, name
        assert rows["rebalance"][6] > 0  # transfers actually happened
        assert rows["rebalance"][1] >= rows["static"][1]

    def test_cluster_faults_failover_beats_miss_through(self):
        """On ``cluster_faults``' own crash schedule, rerouting the dead
        shard's keys keeps more hits than answering them as misses."""
        from repro.experiments.cluster_faults import hot_shard_faults
        from repro.experiments.common import (
            flash_crowd_base,
            flash_crowd_trace,
        )
        from repro.sim import run_scenario

        total = sum(flash_crowd_trace(TINY, 0).requests_per_app.values())
        base = flash_crowd_base(TINY, 0, 4, "hill")
        faults = hot_shard_faults(run_scenario(base), total)
        failover = run_scenario(base.replace(faults=faults))
        miss_through = run_scenario(
            base.replace(faults=dict(faults, policy="miss-through"))
        )
        assert miss_through.cluster_report["faults"]["dead_requests"] > 0
        assert failover.overall_hit_rate > miss_through.overall_hit_rate

    def test_fig6_cliffhanger_not_worse_on_average(self):
        result = get_runner("fig6")(scale=0.02, seed=0)
        default_mean = sum(r[2] for r in result.rows) / len(result.rows)
        cliffhanger_mean = sum(r[4] for r in result.rows) / len(result.rows)
        assert cliffhanger_mean >= default_mean - 0.01

    def test_result_json_roundtrip(self, tmp_path):
        result = get_runner("fig1")(scale=TINY, seed=0)
        path = result.save(tmp_path)
        assert path.exists()
        import json

        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "fig1"


def test_cli_runs_one_experiment(capsys):
    from repro.experiments.cli import main

    assert main(["fig1", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out
    assert "hit_rate" in out
