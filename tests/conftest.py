import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """Set FJ_WATCHDOG=1 to dump all-thread tracebacks to /tmp/fh.log if a
    single test exceeds 180s (hang diagnosis)."""
    import faulthandler

    if os.environ.get("FJ_WATCHDOG"):
        with open("/tmp/fh.log", "a") as f:
            faulthandler.dump_traceback_later(180, exit=False, file=f)
            yield
            faulthandler.cancel_dump_traceback_later()
    else:
        yield


@pytest.fixture
def spy_exchange(monkeypatch):
    """``spy_exchange(hook)`` runs ``hook(*args, **kwargs)`` before every
    ``exchange()`` call of the test: in each loaded package module that
    bound the name, and in the modules that import it later."""

    def install(hook):
        from fozziejoin_ray import exchange as xmod

        orig = xmod.exchange

        def spy(*a, **kw):
            hook(*a, **kw)
            return orig(*a, **kw)

        for name, mod in list(sys.modules.items()):
            if name.startswith("fozziejoin_ray") and getattr(mod, "exchange", None) is orig:
                monkeypatch.setattr(mod, "exchange", spy)

    return install
