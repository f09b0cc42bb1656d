"""The obs zero-overhead-when-off contract, enforced.

Components hold an optional tracer and must guard every emission (and
every eager construction of emission arguments) behind a single
``tracer is not None`` check.  The strongest observable form of that
contract: an *untraced* run constructs zero :class:`repro.obs.events.Event`
objects.  A traced run of the same cell constructs plenty -- which also
proves the instrumentation in this test actually counts.
"""

from __future__ import annotations

import pytest

from repro.exp import RunSpec
from repro.obs import StallProfiler
from repro.obs import events as events_mod
from repro.workloads.base import run_workload


@pytest.fixture
def event_counter(monkeypatch):
    """Count every ``Event`` construction for the duration of a test.

    Hooks ``__init__`` (which the dataclass defines in its class dict, so
    monkeypatch restores it exactly), not ``__new__``: ``Event`` inherits
    ``object.__new__``, and any write to ``Event.__new__`` irreversibly
    replaces the C-level ``tp_new`` slot with a Python dispatcher, after
    which ``object.__new__`` rejects the dataclass's constructor
    arguments for every later ``Event(...)`` in the process.
    """
    created = []
    original_init = events_mod.Event.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(events_mod.Event, "__init__", counting_init)
    return created


@pytest.mark.parametrize("model", ["baseline", "asap_rp"])
def test_untraced_run_allocates_no_events(event_counter, model):
    spec = RunSpec("bandwidth", model, ops_per_thread=24, num_threads=2,
                   seed=7)
    spec.execute()
    assert len(event_counter) == 0, (
        f"untraced run allocated {len(event_counter)} obs Event objects; "
        "some component emits (or builds emit arguments) without a "
        "'tracer is not None' guard"
    )


def test_traced_run_does_allocate_events(event_counter):
    """Sanity check: the counting hook sees traced-run allocations."""
    spec = RunSpec("bandwidth", "asap_rp", ops_per_thread=24, num_threads=2,
                   seed=7)
    run_workload(spec.build_workload(), spec.machine, spec.run_config(),
                 num_threads=spec.num_threads, sinks=[StallProfiler()])
    assert len(event_counter) > 0
