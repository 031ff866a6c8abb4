import os
from contextlib import contextmanager

import pytest

from fracstep import fracops


@pytest.fixture(scope="session", autouse=True)
def isolated_reference_cache(tmp_path_factory):
    """Point the reference cache at a session-private directory."""
    cache_dir = tmp_path_factory.mktemp("refcache")
    old = os.environ.get("FRACSTEP_CACHE_DIR")
    os.environ["FRACSTEP_CACHE_DIR"] = str(cache_dir)
    yield str(cache_dir)
    if old is None:
        os.environ.pop("FRACSTEP_CACHE_DIR", None)
    else:
        os.environ["FRACSTEP_CACHE_DIR"] = old


@pytest.fixture
def tampered_gamma():
    """Context manager corrupting the closed forms' gamma by a relative ``delta``.

    Only the gamma that :mod:`fracstep.fracops` calls is replaced, so the
    quadrature oracle keeps its own constants and the property suite can
    detect the corruption.
    """
    @contextmanager
    def tamper(delta):
        clean = fracops.gamma_fn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fracops, "gamma_fn", lambda x: clean(x) * (1.0 + delta))
            yield

    return tamper
