import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # the streaming executor does NOT preserve block order by default;
    # several tests assert positionally on to_pandas() output, which is
    # only deterministic with preserve_order (flaked under CPU contention)
    ctx.execution_options.preserve_order = True
    yield
    ray.shutdown()


def _count_executions(monkeypatch) -> list[str]:
    """Records every Ray Data execution started from now on: each runs
    through one of these two ExecutionPlan entry points."""
    from ray.data._internal.plan import ExecutionPlan

    calls = []
    for name in ("execute", "execute_to_iterator"):
        def counted(self, *a, _name=name, _orig=getattr(ExecutionPlan, name), **k):
            calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(ExecutionPlan, name, counted)
    return calls


@pytest.fixture(scope="session")
def count_executions():
    """``count_executions(monkeypatch)`` → a list that records every Ray
    Data execution started until ``monkeypatch`` is undone."""
    return _count_executions


def _force_dataset_tier(monkeypatch) -> None:
    """Both in-process bounds at 0: every table takes the Dataset tier."""
    from graphiti_ray.stages import ops

    monkeypatch.setattr(ops, "SMALL_SORT_ROWS", 0)
    monkeypatch.setattr(ops, "SMALL_SORT_BYTES", 0)


@pytest.fixture(scope="session")
def force_dataset_tier():
    """``force_dataset_tier(monkeypatch)`` sets both in-process bounds
    (``ops.SMALL_SORT_ROWS`` / ``SMALL_SORT_BYTES``) to 0 until
    ``monkeypatch`` is undone."""
    return _force_dataset_tier
