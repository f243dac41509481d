from collections import Counter

import pytest

from eqls import matter, phases, zstates
from eqls.units import compiled


@pytest.fixture
def f1_calls(monkeypatch):
    """The arguments of every `phases._f1` call made while the test runs."""
    calls = []
    f1 = phases._f1

    def counted(eta):
        calls.append(eta)
        return f1(eta)

    monkeypatch.setattr(phases, "_f1", counted)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """How often each of LAPACK's dgtsv, dstebz and dstein, and `zstates._count_below`
    (one inertia count, by dpttrf), is called while the test runs."""
    lapack = compiled("scipy.linalg._flapack")      # the module `zstates` reads them from
    calls = Counter()

    def counter(module, name):
        routine = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("dgtsv", "dstebz", "dstein"):
        counter(lapack, name)
    counter(zstates, "_count_below")
    return calls


@pytest.fixture
def bisected(monkeypatch):
    """The grid of every `zstates._eigensolve` call made while the test runs."""
    grids = []
    eigensolve = zstates._eigensolve

    def counted(profile, *args):
        grids.append(profile.grid)
        return eigensolve(profile, *args)

    monkeypatch.setattr(zstates, "_eigensolve", counted)
    return grids


@pytest.fixture(scope="session")
def registry():
    return matter.load_registry()


def solve_surface(surface, count=2):
    spec = zstates.RegularizedImage(
        v0_ev=surface.barrier_v0_ev,
        eps_r=surface.dielectric_constant,
        b_A=surface.scattering_length_A,
    )
    return zstates.solve_bound_states(zstates.build_potential(spec), count)


@pytest.fixture(scope="session")
def he_result(registry):
    return solve_surface(registry.get_surface("liquid 4He"))


@pytest.fixture(scope="session")
def ne_result(registry):
    return solve_surface(registry.get_surface("solid Ne"))
