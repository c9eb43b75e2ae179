"""A deterministic cost gate for the engines: Python calls per request.

Wall-clock throughput needs a quiet host; the number of Python-level
function calls a request makes does not. :mod:`tests.perf_counts` warms
each scheme up on memcachier apps 5 and 19 (scale 0.012, seed 0) and
counts the calls under ``src/repro`` that the next rows make through
each engine's ``process_fast``. The gate covers the stock engines
(``default``, ``lsm``), the hill climber (``hill``) and the three
Cliffhanger queue schemes.

To re-record after a change that makes a path leaner, print each
scheme's table (``python -m tests.perf_counts SCHEME``) and write the
new totals into ``BUDGET``. The figures may only go down: a stock
engine that needs more calls is a regression of the baseline every
Cliffhanger overhead ratio divides by, and a Cliffhanger scheme that
needs more is a regression of that ratio.
"""

from __future__ import annotations

import pytest

from tests.perf_counts import count_calls, per_request, render

#: scheme -> recorded calls per request. The ``KeyQueue``-backed LRU
#: and the slab path that looked a key's class up twice made 7.544 and
#: 5.3525 (``default``, ``lsm``). A Cliffhanger GET that searched
#: partitions with ``discard``, called ``_observe_hit`` and re-searched
#: on its fill made 5.3825 (``cliffhanger``), 5.6165 (``cliff-only``)
#: and 5.4105 (``hill-only``); ``hill`` made 5.017 while its fill
#: repeated the shadow test its ``access`` had made.
BUDGET = {
    "default": 2.772,
    "lsm": 2.1315,
    "hill": 4.841,
    "cliffhanger": 3.001,
    "cliff-only": 3.0655,
    "hill-only": 2.827,
}


@pytest.mark.parametrize("scheme", sorted(BUDGET))
def test_calls_per_request_within_budget(scheme):
    calls = count_calls(scheme)
    assert per_request(calls) <= BUDGET[scheme], (
        f"{scheme} over its budget of {BUDGET[scheme]}; largest shares:\n"
        + render(calls)
    )
