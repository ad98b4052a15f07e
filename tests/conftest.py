import numpy as np
import pytest

from remest import (
    AgeFunction,
    SystemConfig,
    build_model,
    solve_cmdp,
    sweep_lambda,
    symmetric_chain,
    validate_chain,
)

MAIN_ROWS = [[0.8, 0.1, 0.1], [0.3, 0.6, 0.1], [0.2, 0.1, 0.7]]
MAIN_RHO = dict(a=1.2, b=0.55, c=0.3)
LAMBDA_GRID = [0.5 * i for i in range(41)]  # 0, 0.5, ..., 20


def main_age_function():
    return AgeFunction.exponential_affine(**MAIN_RHO)


@pytest.fixture(scope="session")
def main_config():
    return SystemConfig.from_file("configs/three_state.json")


@pytest.fixture(scope="session")
def main_model(main_config):
    return main_config.build_model()


@pytest.fixture(scope="session")
def sym_model():
    return build_model(
        symmetric_chain(3, 0.1), 0.7, "hamming", main_age_function(), 20, 20, "map"
    )


@pytest.fixture(scope="session")
def zoh_model(main_config):
    return main_config.with_overrides(theta_max=1, estimator="zoh").build_model()


@pytest.fixture(scope="session")
def paper_model(main_config):
    """Main config under the delayed slot timing the reported numbers use."""
    return main_config.build_model(timing="delayed")


@pytest.fixture(scope="session")
def paper_zoh_model(main_config):
    return main_config.with_overrides(theta_max=1, estimator="zoh").build_model(
        timing="delayed"
    )


@pytest.fixture(scope="session")
def main_sweep(main_model):
    return sweep_lambda(main_model, LAMBDA_GRID)


@pytest.fixture(scope="session")
def sym_sweep(sym_model):
    return sweep_lambda(sym_model, LAMBDA_GRID)


@pytest.fixture(scope="session")
def solved_main():
    """Constrained solves on the main config, shared across tests."""
    cache = {}

    def solve(model, f_max):
        key = (id(model), f_max)
        if key not in cache:
            cache[key] = solve_cmdp(model, f_max, 1000.0, 1e-6)
        return cache[key]

    return solve


def small_random_model(rng, timing="immediate"):
    """Random irreducible model at desk scale for oracle comparisons."""
    n = int(rng.integers(2, 4))
    rows = rng.dirichlet(np.ones(n) * 0.8, size=n) + 2.0 * np.eye(n)
    rows = rows / rows.sum(1, keepdims=True)
    chain = validate_chain(rows)
    p_s = float(rng.uniform(0.4, 0.95))
    rho = AgeFunction.exponential_affine(
        float(rng.uniform(0.5, 1.5)),
        float(rng.uniform(0.1, 0.45)),
        float(rng.uniform(0.0, 0.5)),
    )
    d = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    return build_model(chain, p_s, d, rho, 6, 6, "map", timing=timing)
