import pytest
from hypothesis import HealthCheck, settings

from rcmlab import stats

settings.register_profile(
    "rcmlab",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("rcmlab")


@pytest.fixture
def pools(monkeypatch):
    """The process pools the replication runner builds, in order; each
    counts its shutdowns."""
    built = []

    class CountedPool(stats.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdowns = 0
            built.append(self)

        def shutdown(self, *args, **kwargs):
            self.shutdowns += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(stats, "ProcessPoolExecutor", CountedPool)
    return built
