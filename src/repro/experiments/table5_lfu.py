"""Table 5 (and the ARC comparison of section 5.5): eviction schemes.

Applications 3-5 under: plain LRU (original), Facebook's mid-insertion
scheme, ARC, Cliffhanger on LRU, and hill climbing on the Facebook
policy ("Cliffhanger + Facebook" -- cliff scaling assumes LRU rank
semantics, so the combination uses the hill-climbing half, which is the
part that composes with arbitrary eviction policies; see README,
"Substitutions", item 2).

Paper shape: Facebook > LRU >= ARC (ARC shows no improvement on these
traces), and Cliffhanger beats both plain schemes.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.sim import FULL_SCALE, Scenario, load_workload, run_scenario

APPS = (3, 4, 5)


def run(scale: float = FULL_SCALE, seed: int = 0) -> ExperimentResult:
    trace = load_workload(
        "memcachier", scale=scale, seed=seed, apps=list(APPS)
    )
    names = trace.app_names
    base = Scenario(
        workload="memcachier",
        workload_params={"apps": list(APPS)},
        scale=scale,
        seed=seed,
    )
    columns = [
        ("lru", "default", "lru"),
        ("facebook", "default", "facebook"),
        ("arc", "default", "arc"),
        ("cliffhanger+lru", "cliffhanger", "lru"),
        ("cliffhanger+facebook", "hill", "facebook"),
    ]
    results_by_column = {}
    for column_name, scheme, policy in columns:
        results_by_column[column_name] = run_scenario(
            base.replace(scheme=scheme, policy=policy)
        )
    result = ExperimentResult(
        experiment_id="tab5",
        title="Eviction schemes: LRU vs Facebook vs ARC vs Cliffhanger",
        headers=["app"] + [name for name, _, _ in columns],
        paper_reference="Table 5 + section 5.5 (ARC)",
    )
    for app in names:
        result.rows.append(
            [app]
            + [
                results_by_column[name].hit_rates[app]
                for name, _, _ in columns
            ]
        )
    result.notes = (
        "expected: facebook >= lru, arc ~= lru (no gain), cliffhanger "
        "columns highest"
    )
    return result
