"""Seed-0 pins for every curve the runners profile from a trace.

fig1, fig3 and fig4 (and tab4, on fig4"s app) build per-slab-class
curves with ``profile_app_classes``; the ``planned`` scheme"s solver
does too, with the Mimir estimator. tab3 builds one byte-weighted curve
per app with ``_app_byte_curves``. Each pin is a sha256 over a curve"s
``sizes`` and ``hit_rates`` bytes, in the dict order the curves come
out, beside the GET count the curve was built from, at ``BENCH_SCALE``.
A change to how distances are computed must leave every digest as it
is. Print fresh values with ``PYTHONPATH=src python -m
tests.profiling.test_curve_pins``.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.table3_cross_app import APPS as TAB3_APPS
from repro.experiments.table3_cross_app import _app_byte_curves
from repro.sim import BENCH_SCALE, load_workload, profile_app_classes

#: The single-app runners" apps (fig1, fig3, fig4).
PROFILED_APPS = (3, 11, 19)

#: label -> [(curve key, GETs profiled, sha256 of sizes + hit_rates)].
RECORDED = {
    "app03/exact": [
        (2, 53877, "2f20785f44af151b424f29583c0e96a6053dc3253e382a1a2561cdc683d9a375"),
        (9, 6123, "5c93904ba9c7f875220f03bc5685d8f2a15dc4cdc98d4fac3ca8a110445e2fd2"),
    ],
    "app03/mimir": [
        (2, 53877, "a4c4a60d46b0a56f552aa859d0f7c7e1594511a614399f2effa72e4c20993769"),
        (9, 6123, "dcba1227f99ed4b306e3bcf78a31c26b8c56b7d84a7a2adf65bc23a77641e7da"),
    ],
    "app11/exact": [
        (6, 60000, "bcf4ad6d7fdb6c468f44a447633024357385076a3df1919d0effafdb85a2b3c6"),
    ],
    "app11/mimir": [
        (6, 60000, "efac1a6fb61304985061fb93c3492ba7ad3dd058810e8dec7f393a71cb6fe724"),
    ],
    "app19/exact": [
        (2, 41470, "3b046368230048d4e80dbe280f368797eb330479d55bbf5df8bff0cc7e3d088d"),
        (5, 9262, "a7687ed883740d80061722c557945a1a4e81d2c43226d3007528637b6eaccdea"),
        (3, 9268, "d4754359a8f90920910192b5658e8fda7da1b515e13e3c4434545f550fb2f201"),
    ],
    "app19/mimir": [
        (2, 41470, "2d134a9a6ec3c3d325e0894698cb37033b77719db837729a3d80c5f032ab98b6"),
        (5, 9262, "b77b55763a1ec3e7fa62fc045bd8c6794939ceb9c5d1f6991d8a0826f4b21a23"),
        (3, 9268, "c991651dc5013cd20a565ab82a189045ee8ed2376cfd963c5acd4376742b6cd2"),
    ],
    "tab3/bytes": [
        ("app01", 24000, "a3bf461bb39d5fcb93c1b1beee4da8f6bbc14068317fdcb7ac10645f334ec843"),
        ("app02", 11076, "1f5169b439d176757f359e11c01eb863468c1717e66f8de14ccb520fba800c32"),
        ("app03", 9230, "e23c03653eb55e5bca761ba51939d53e7a482529beae760b9f2274772045a16c"),
        ("app04", 8307, "90f24f7a6289396f1e769691b48df85f473819a278c5a0ee2c42ed545d0df348"),
        ("app05", 7384, "2e9538b27a9874c33d90141d8cd77d3433a2a28feb9ebc67b2924d5cce8f0b03"),
    ],
}


def curve_digest(curve) -> str:
    return hashlib.sha256(
        curve.sizes.tobytes() + curve.hit_rates.tobytes()
    ).hexdigest()


def pinned(curves, frequencies):
    return [
        (key, frequencies[key], curve_digest(curve))
        for key, curve in curves.items()
    ]


def observe():
    observed = {}
    for app in PROFILED_APPS:
        trace = load_workload(
            "memcachier", scale=BENCH_SCALE, seed=0, apps=[app]
        )
        compiled = trace.compiled_for(f"app{app:02d}")
        for estimator in ("exact", "mimir"):
            observed[f"app{app:02d}/{estimator}"] = pinned(
                *profile_app_classes(compiled, estimator=estimator)
            )
    trace = load_workload(
        "memcachier", scale=BENCH_SCALE, seed=0, apps=list(TAB3_APPS)
    )
    observed["tab3/bytes"] = pinned(*_app_byte_curves(trace))
    return observed


def test_curves_are_pinned():
    assert observe() == RECORDED


if __name__ == "__main__":
    for label, rows in observe().items():
        print(f"    {json.dumps(label)}: [")
        for key, gets, digest in rows:
            print(f"        ({json.dumps(key)}, {gets}, {json.dumps(digest)}),")
        print("    ],")
