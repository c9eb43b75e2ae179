"""Every ``src/`` function has an entry point that runs it, or a stated
reason (``tests/reachability.py``; this check only parses ``src/``)."""

from tests import reachability


def test_every_function_is_reached_or_has_a_reason():
    found = reachability.problems()
    assert not found, "\n".join(
        found
        + [
            "A new function ships with its entry point (then re-record: "
            "PYTHONPATH=src python -m tests.reachability --record) or with "
            "a one-line reason in the allowlist of tests/reachability.json."
        ]
    )
