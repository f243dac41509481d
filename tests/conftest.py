from collections import Counter

import pytest

from eqls import matter, phases, zstates


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
    """How often each of LAPACK's dgtsv, dstebz and dstein is called while the test runs."""
    from scipy.linalg import lapack

    calls = Counter()

    def counter(name):
        routine = getattr(lapack, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        return counted

    for name in ("dgtsv", "dstebz", "dstein"):
        monkeypatch.setattr(lapack, name, counter(name))
    return calls


@pytest.fixture
def bisected(monkeypatch):
    """The grid of every `zstates._eigensolve` call made while the test runs."""
    grids = []
    eigensolve = zstates._eigensolve

    def counted(grid, *args):
        grids.append(grid)
        return eigensolve(grid, *args)

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
