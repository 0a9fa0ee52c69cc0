import pytest

from gatedqdot.coupling import assemble_coupling_matrix
from gatedqdot.poisson import fourier_term, solve_full_gate
from gatedqdot.spectral import enumerate_modes


@pytest.fixture(scope="session")
def spec100():
    return enumerate_modes(1.0, 100)


@pytest.fixture(scope="session")
def spec30(spec100):
    return enumerate_modes(1.0, 30)


@pytest.fixture(scope="session")
def field_n1():
    return solve_full_gate([fourier_term(1, 1.0)], 1.0)


@pytest.fixture(scope="session")
def field_n2():
    return solve_full_gate([fourier_term(2, 1.0)], 1.0)


@pytest.fixture(scope="session")
def matrix_n2_100(field_n2, spec100):
    return assemble_coupling_matrix(field_n2, spec100)


@pytest.fixture(scope="session")
def matrix_n1_100(field_n1, spec100):
    return assemble_coupling_matrix(field_n1, spec100)


@pytest.fixture(scope="session")
def matrix_n2_30(field_n2, spec30):
    return assemble_coupling_matrix(field_n2, spec30)
